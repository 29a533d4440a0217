"""Fleet composition model: transitions, class shares, labeling, fit metrics."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonflow.experiments import cell_seeds, verify_probability_model
from platoonflow.fleet import (ClassProbabilities, FleetSpec, VehicleClass, _uniforms,
                               _walk, class_probabilities, draw_flags,
                               empirical_distribution, goodness_of_fit, role_codes,
                               round_half_up, transition_probs)

HV = VehicleClass.HV
LV1 = VehicleClass.LV1
LV2 = VehicleClass.LV2
PV = VehicleClass.PV
CLASSES = list(VehicleClass)  # role code -> class


def labels_of(is_cav, s_max):
    """One ring of CAV flags labeled by role_codes, as VehicleClass members."""
    return [CLASSES[c] for c in role_codes(np.array(is_cav, dtype=bool), [len(is_cav)], s_max)]


def draw_labels(spec, seed, s_max=4):
    """One ring drawn by draw_flags and labeled by role_codes."""
    return [CLASSES[c] for c in role_codes(draw_flags(spec, [seed]), [spec.n_vehicles], s_max)]


def reference_label_roles(is_cav, s_max):
    # The per-vehicle labeling loop that role_codes replaced.
    n = len(is_cav)
    if not any(is_cav):
        return [HV] * n
    if all(is_cav):
        return [LV2 if i % s_max == 0 else PV for i in range(n)]
    roles = [HV] * n
    starts = [i for i in range(n) if is_cav[i] and not is_cav[i - 1]]
    for start in starts:
        offset = 0
        i = start
        while is_cav[i]:
            if offset == 0:
                roles[i] = LV1
            elif offset % s_max == 0:
                roles[i] = LV2
            else:
                roles[i] = PV
            offset += 1
            i = (i + 1) % n
    return roles


def reference_flags(spec, seed):
    # The scalar Markov walk that draw_flags replaced.
    if spec.intensity == 1.0:
        n_cav = round_half_up(spec.p * spec.n_vehicles)
        return [False] * (spec.n_vehicles - n_cav) + [True] * n_cav
    return reference_walk(spec, random.Random(seed).random)


def reference_walk(spec, draw):
    # The walk itself, one vehicle at a time; draw() gives the next uniform.
    t = transition_probs(spec.p, spec.intensity)
    cur = draw() < spec.p
    flags = [cur]
    for _ in range(spec.n_vehicles - 1):
        cur = draw() < (t.t_aa if cur else t.t_ha)
        flags.append(cur)
    return flags


def reference_distribution(sequences):
    # The VehicleClass-keyed count that the code histogram replaced.
    total = sum(len(s) for s in sequences)
    counts = {cls: 0 for cls in VehicleClass}
    for seq in sequences:
        for cls in seq:
            counts[cls] += 1
    return ClassProbabilities(counts[LV1] / total, counts[LV2] / total,
                              counts[PV] / total, counts[HV] / total)


def naive_class_probabilities(p, intensity, s_max):
    # Direct transcription of the run-length formulas, no rearrangement.
    # Serves as an independent oracle away from the t_ah = 0 singularity.
    t_ah = (1.0 - intensity) * (1.0 - p)
    t_ha = (1.0 - intensity) * p
    t_aa = 1.0 - t_ah
    p_lv1 = (1.0 - p) * t_ha
    p_lv2 = t_aa ** s_max * p_lv1 / (1.0 - t_aa ** s_max)
    p_pv = (t_aa * (1.0 - t_aa ** (s_max - 1)) * p_lv1
            / (t_ah * (1.0 - t_aa ** s_max)))
    return p_lv1, p_lv2, p_pv


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(3.5) == 4
    assert round_half_up(2.49) == 2
    assert round_half_up(-0.0) == 0
    assert round_half_up(7.0) == 7


def test_transition_probs_examples():
    t = transition_probs(0.6, 0.0)
    assert t.t_ah == pytest.approx(0.4, abs=1e-12)
    assert t.t_aa == pytest.approx(0.6, abs=1e-12)
    assert t.t_ha == pytest.approx(0.6, abs=1e-12)
    assert t.t_hh == pytest.approx(0.4, abs=1e-12)

    t = transition_probs(0.6, 1.0)
    assert t.t_ah == 0.0
    assert t.t_aa == 1.0
    assert t.t_ha == 0.0
    assert t.t_hh == 1.0

    t = transition_probs(0.5, 0.5)
    assert t.t_ah == pytest.approx(0.25, abs=1e-12)
    assert t.t_ha == pytest.approx(0.25, abs=1e-12)


def test_transition_probs_rejects_out_of_range():
    with pytest.raises(ValueError):
        transition_probs(-0.1, 0.0)
    with pytest.raises(ValueError):
        transition_probs(1.1, 0.0)
    with pytest.raises(ValueError):
        transition_probs(0.5, -0.2)
    with pytest.raises(ValueError):
        transition_probs(0.5, 1.2)


def test_class_probabilities_full_intensity_blocks():
    # Contiguous CAV block chunked into platoons of s_max: one leading
    # leader per p*n vehicles, the rest split 1/s_max leaders.
    probs = class_probabilities(0.8, 1.0, 4)
    assert probs.p_lv1 == pytest.approx(0.0, abs=1e-15)
    assert probs.p_lv2 == pytest.approx(0.2, abs=1e-12)
    assert probs.p_pv == pytest.approx(0.6, abs=1e-12)
    assert probs.p_hv == pytest.approx(0.2, abs=1e-12)


def test_class_probabilities_no_cavs():
    probs = class_probabilities(0.0, 0.3, 4)
    assert probs.p_lv1 == 0.0
    assert probs.p_lv2 == 0.0
    assert probs.p_pv == 0.0
    assert probs.p_hv == 1.0


def test_class_probabilities_every_cav_isolated():
    # Intensity 0 with p ~ 0 makes t_AA = 0: each CAV follows an HV and
    # leads a platoon of one, so only LV1 has a share.
    for p in (0.0, 1e-17):
        assert transition_probs(p, 0.0).t_aa == 0.0
        probs = class_probabilities(p, 0.0, 4)
        assert probs == ClassProbabilities((1.0 - p) * p, 0.0, 0.0, 1.0 - p)
    # just above, the general branch agrees
    near = class_probabilities(1e-15, 0.0, 4)
    assert near.p_lv1 == pytest.approx(1e-15, rel=1e-9)
    assert near.p_lv2 <= 1e-30 and near.p_pv <= 1e-29


def test_class_probabilities_frozen_point():
    probs = class_probabilities(0.5, 0.0, 4)
    assert probs.p_lv1 == pytest.approx(0.25, abs=1e-12)
    assert probs.p_lv2 == pytest.approx(0.0166666667, abs=1e-9)
    assert probs.p_pv == pytest.approx(0.2333333333, abs=1e-9)

    oracle = naive_class_probabilities(0.5, 0.0, 4)
    assert probs.p_lv1 == pytest.approx(oracle[0], abs=1e-12)
    assert probs.p_lv2 == pytest.approx(oracle[1], abs=1e-12)
    assert probs.p_pv == pytest.approx(oracle[2], abs=1e-12)


def test_class_probabilities_match_naive_oracle():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.uniform(0.05, 0.95)
        intensity = rng.uniform(0.0, 0.9)  # keep t_ah away from 0
        s_max = rng.randint(1, 8)
        probs = class_probabilities(p, intensity, s_max)
        oracle = naive_class_probabilities(p, intensity, s_max)
        assert probs.p_lv1 == pytest.approx(oracle[0], abs=1e-12)
        assert probs.p_lv2 == pytest.approx(oracle[1], abs=1e-12)
        assert probs.p_pv == pytest.approx(oracle[2], abs=1e-12)


def test_class_probabilities_monte_carlo():
    # Long random sequences at a point verified by hand; frequencies of
    # each role must approach the closed-form shares.
    spec = FleetSpec(n_vehicles=5000, p=0.5, intensity=0.0)
    emp = empirical_distribution(role_codes(draw_flags(spec, range(200)), [5000] * 200, 4))
    probs = class_probabilities(0.5, 0.0, 4)
    assert emp.p_lv1 == pytest.approx(probs.p_lv1, abs=0.005)
    assert emp.p_lv2 == pytest.approx(probs.p_lv2, abs=0.005)
    assert emp.p_pv == pytest.approx(probs.p_pv, abs=0.005)
    assert emp.p_hv == pytest.approx(0.5, abs=0.005)


def test_class_shares_closure():
    # Shares of the three CAV roles always add up to the penetration and
    # the HV share is its complement.
    rng = random.Random(11)
    for _ in range(1000):
        p = rng.random()
        intensity = rng.random()
        s_max = rng.randint(1, 8)
        probs = class_probabilities(p, intensity, s_max)
        assert abs(probs.total() - p) <= 1e-12
        assert abs(probs.p_hv - (1.0 - p)) <= 1e-12
        for share in (probs.p_lv1, probs.p_lv2, probs.p_pv, probs.p_hv):
            assert -1e-15 <= share <= 1.0 + 1e-15


def test_class_probabilities_full_intensity_limit():
    # Approaching full clustering must converge to the block-layout shares.
    for p in (0.05, 0.2, 0.5, 0.8, 0.95):
        for s_max in (1, 2, 4, 6):
            near = class_probabilities(p, 1.0 - 1e-9, s_max)
            block = class_probabilities(p, 1.0, s_max)
            assert near.p_lv1 == pytest.approx(block.p_lv1, abs=1e-6)
            assert near.p_lv2 == pytest.approx(block.p_lv2, abs=1e-6)
            assert near.p_pv == pytest.approx(block.p_pv, abs=1e-6)


def test_generate_sequence_block_layout():
    # Full clustering is deterministic: HV block then the CAV block in
    # platoon chunks. The chunk behind the last HV starts with a leader
    # that follows an HV, the later chunk heads follow CAVs.
    spec = FleetSpec(n_vehicles=10, p=0.8, intensity=1.0)
    seq = draw_labels(spec, seed=0)
    assert seq == [HV, HV, LV1, PV, PV, PV, LV2, PV, PV, PV]
    # Seed is irrelevant at full intensity.
    assert draw_labels(spec, seed=99) == seq


def test_generate_sequence_all_hv():
    spec = FleetSpec(n_vehicles=5, p=0.0, intensity=0.0)
    assert draw_labels(spec, seed=3) == [HV] * 5


def test_generate_sequence_seeding():
    spec = FleetSpec(n_vehicles=400, p=0.5, intensity=0.3)
    a = draw_labels(spec, seed=5)
    b = draw_labels(spec, seed=5)
    c = draw_labels(spec, seed=6)
    assert a == b
    assert a != c


def test_generate_sequence_cav_count_tracks_p():
    # Mean CAV share matches p. High intensity autocorrelates the walk,
    # so average over many sequences instead of trusting a single one.
    for p in (0.2, 0.5, 0.8):
        for intensity in (0.0, 0.5, 0.9):
            spec = FleetSpec(n_vehicles=1000, p=p, intensity=intensity)
            total = 0
            for seed in range(50):
                seq = draw_labels(spec, seed=seed)
                total += sum(1 for c in seq if c is not HV)
            assert total / 50000 == pytest.approx(p, abs=0.04)


def test_label_roles_examples():
    assert labels_of([False, True, True, True, True, True], 4) == [
        HV, LV1, PV, PV, PV, LV2]
    assert labels_of([False, True], 4) == [HV, LV1]
    # Pure CAV ring has no HV anywhere, so every chunk head is a
    # follower-of-CAV leader.
    assert labels_of([True] * 8, 4) == [LV2, PV, PV, PV, LV2, PV, PV, PV]


def test_label_roles_errors():
    with pytest.raises(ValueError):
        FleetSpec(0, 0.5, 1.0)
    with pytest.raises(ValueError):
        labels_of([True, False], 0)


def _check_adjacency(labels, s_max):
    n = len(labels)
    for i, cls in enumerate(labels):
        pred = labels[(i - 1) % n]
        if cls is LV1:
            assert pred is HV
        elif cls is LV2:
            assert pred is not HV
        elif cls is PV:
            assert pred is not HV
    # Platoon sizes: between consecutive leaders inside a CAV run there
    # are at most s_max - 1 followers.
    run = 0
    for i in range(2 * n):
        cls = labels[i % n]
        if cls is PV:
            run += 1
            assert run <= s_max - 1
        else:
            run = 0


def test_label_roles_adjacency_invariants():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 40)
        s_max = rng.randint(1, 6)
        flags = [rng.random() < 0.6 for _ in range(n)]
        labels = labels_of(flags, s_max)
        assert len(labels) == n
        assert [c is not HV for c in labels] == flags
        if any(flags):
            _check_adjacency(labels, s_max)
        else:
            assert labels == [HV] * n


def test_generate_sequence_adjacency_invariants():
    rng = random.Random(29)
    for _ in range(100):
        spec = FleetSpec(n_vehicles=rng.randint(2, 60),
                         p=rng.random(), intensity=rng.random())
        s_max = rng.randint(1, 6)
        seq = draw_labels(spec, seed=rng.randint(0, 10 ** 6), s_max=s_max)
        if any(c is not HV for c in seq):
            _check_adjacency(seq, s_max)


def test_empirical_distribution_counts():
    # codes of [HV, LV1, PV] and [PV, HV, PV]
    emp = empirical_distribution(np.array([[0, 1, 3], [3, 0, 3]], dtype=np.int8))
    assert emp.p_hv == pytest.approx(1 / 3)
    assert emp.p_lv1 == pytest.approx(1 / 6)
    assert emp.p_pv == pytest.approx(0.5)
    assert emp.p_lv2 == 0.0


def test_empirical_distribution_empty_raises():
    with pytest.raises(ValueError):
        empirical_distribution([])
    with pytest.raises(ValueError):
        empirical_distribution(np.zeros((3, 0), dtype=np.int8))


def test_empirical_block_layout_frequencies():
    spec = FleetSpec(n_vehicles=100, p=0.8, intensity=1.0)
    emp = empirical_distribution(role_codes(draw_flags(spec, [0]), [100], 4))
    assert emp.p_lv1 == pytest.approx(0.01, abs=1e-12)
    assert emp.p_lv2 == pytest.approx(0.19, abs=1e-12)
    assert emp.p_pv == pytest.approx(0.60, abs=1e-12)
    assert emp.p_hv == pytest.approx(0.20, abs=1e-12)


def test_goodness_of_fit_identical():
    fit = goodness_of_fit([0.1, 0.4, 0.5], [0.1, 0.4, 0.5])
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)
    assert fit["rmse"] == pytest.approx(0.0, abs=1e-12)
    assert fit["note"] == ""


def test_goodness_of_fit_known_values():
    fit = goodness_of_fit([1.0, 2.0, 3.0], [1.0, 2.0, 2.0])
    # residual 1 on the last point, ss_tot = 2
    assert fit["r2"] == pytest.approx(0.5, abs=1e-12)
    assert fit["rmse"] == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)


def test_goodness_of_fit_errors():
    with pytest.raises(ValueError):
        goodness_of_fit([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        goodness_of_fit([], [])


def test_goodness_of_fit_constant_reference():
    fit = goodness_of_fit([0.5, 0.5, 0.5], [0.4, 0.5, 0.6])
    assert math.isnan(fit["r2"])
    assert fit["note"]
    assert fit["rmse"] == pytest.approx(math.sqrt(0.02 / 3.0), abs=1e-12)


def test_monte_carlo_error_shrinks_with_samples():
    # Empirical shares converge on the closed form as the sample grows.
    probs = class_probabilities(0.5, 0.0, 4)

    def l2_error(n_seqs, base_seed):
        spec = FleetSpec(n_vehicles=100, p=0.5, intensity=0.0)
        seeds = range(base_seed, base_seed + n_seqs)
        emp = empirical_distribution(role_codes(draw_flags(spec, seeds), [100] * n_seqs, 4))
        return math.sqrt((emp.p_lv1 - probs.p_lv1) ** 2
                         + (emp.p_lv2 - probs.p_lv2) ** 2
                         + (emp.p_pv - probs.p_pv) ** 2
                         + (emp.p_hv - probs.p_hv) ** 2)

    small = l2_error(40, 1000)
    large = l2_error(640, 2000)  # 16x the samples, expect ~4x less error
    assert large < small
    assert large < 0.012


@st.composite
def flag_rings(draw):
    """A few rings of CAV flags of any sizes and a cap in 1..n+1 of the largest."""
    rings = draw(st.lists(st.lists(st.booleans(), min_size=1, max_size=40),
                          min_size=1, max_size=6))
    return rings, draw(st.integers(1, max(map(len, rings)) + 1))


@settings(max_examples=300, deadline=None)
@given(flag_rings())
@example(([[False] * 5], 2))                                # all HV
@example(([[True] * 7, [True] * 7], 3))                     # all CAV
@example(([[True, True, False, True, True, True]], 2))      # run wraps the ring end
@example(([[True]], 1))                                     # n = 1
@example(([[False]], 2))
@example(([[True] * 6, [False, True, True, True, True, True]], 4))
@example(([[True, False], [True] * 3, [True, True, False, True], [True]], 2))
@example(([[True, True, False, True, True], [True] * 3], 1))   # s_max = 1
@example(([[False, False, True, False, False]], 3))          # one CAV
@example(([[False, True, True], [True] * 9], 4))            # all CAV after a ring with an HV
@example(([[True, False, True], [True] * 2, [True] * 9], 5))  # rings shorter than s_max
def test_role_codes_match_per_vehicle_loop(case):
    rings, s_max = case
    sizes = [len(flags) for flags in rings]
    codes = role_codes(np.concatenate(rings).astype(bool), sizes, s_max)
    assert codes.shape == (sum(sizes),)
    assert codes.dtype == np.int8
    start = 0
    for flags, n in zip(rings, sizes):
        got = codes[start:start + n].tolist()
        assert [CLASSES[c] for c in got] == reference_label_roles(flags, s_max)
        start += n


def test_role_codes_rejects_sizes_that_do_not_split_the_flags():
    for sizes in ([3, 3], [2, 2], [5, 0], [], [[5]]):
        with pytest.raises(ValueError, match="do not split 5 vehicles"):
            role_codes(np.ones(5, dtype=bool), sizes, 4)
    with pytest.raises(ValueError, match="size cap"):
        role_codes(np.ones(5, dtype=bool), [5], 0)
    with pytest.raises(ValueError, match="size cap"):
        class_probabilities(0.5, 0.5, 0)


@pytest.mark.parametrize("intensity", [0.0, 0.3, 0.99, 1.0])
def test_draw_flags_matches_scalar_walk(intensity):
    # p = 0.1 is a value where t_AA = 1 - (1 - p) rounds below t_HA = p
    assert 1.0 - (1.0 - 0.1) < 0.1
    seeds = [*range(30), cell_seeds(7, intensity, 0.5, (3,))[0]]
    for p in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
        spec = FleetSpec(50, p, intensity)
        flags = draw_flags(spec, seeds)
        assert flags.dtype == bool and flags.shape == (len(seeds), 50)
        for row, seed in zip(flags.tolist(), seeds):
            assert row == reference_flags(spec, seed)
    assert draw_flags(FleetSpec(1, 0.5, intensity), [4]).tolist() == [
        reference_flags(FleetSpec(1, 0.5, intensity), 4)]


def test_draw_flags_is_exact_where_t_aa_rounds_below_t_ha():
    # Walk uniforms that land between t_AA and t_HA at p = 0.1:
    # after a CAV u is not below t_AA, after an HV it is below t_HA.
    t = transition_probs(0.1, 0.0)
    assert t.t_aa < t.t_ha
    spec = FleetSpec(10, 0.1, 0.0)
    script = [0.0] + [t.t_aa] * 9
    flags = _walk(np.array([script, script]), spec)
    assert flags.tolist() == [[True, False] * 5] * 2
    assert flags[0].tolist() == reference_walk(spec, iter(script).__next__)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=4), st.integers(1, 40))
@example([0], 1)
@example([1, 2**32 - 1], 3)                   # one 32-bit key word
@example([2**32], 2)                          # the smallest two-word key
@example([2**63 + 5, 2**64 - 1], 40)          # two words
@example([2**64, 12345678901234567890, 2**100 + 3], 7)  # past two words
@example([-5, -(2**70)], 5)                   # negative seeds use their magnitude
def test_uniforms_match_random_random(seeds, n):
    expected = np.empty((len(seeds), n))
    for row, seed in zip(expected, seeds):
        draw = random.Random(seed).random
        row[:] = [draw() for _ in range(n)]
    got = _uniforms(seeds, n)
    assert got.shape == (len(seeds), n)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_uniforms_without_seed_differ_per_row():
    u = _uniforms([None, None], 8)
    assert ((0.0 <= u) & (u < 1.0)).all()
    assert not np.array_equal(u[0], u[1])


@st.composite
def walk_cases(draw):
    """A walk spec and rows of uniforms, many exactly at or one ulp off a threshold."""
    p = draw(st.sampled_from([0.0, 0.1, 0.37, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0))
    intensity = draw(st.sampled_from([0.0, 0.3, 0.99]) | st.floats(0.0, 1.0))
    t = transition_probs(p, intensity)
    edges = [v for x in (t.t_aa, t.t_ha, p)
             for v in (math.nextafter(x, -1.0), x, math.nextafter(x, 2.0)) if 0.0 <= v < 1.0]
    value = st.sampled_from(edges) | st.floats(0.0, 1.0, exclude_max=True)
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=4))
    return p, intensity, rows


@settings(max_examples=300, deadline=None)
@given(walk_cases())
@example((0.1, 0.0, [[0.0] + [0.09999999999999998] * 9]))  # t_AA < t_HA: each step negates
@example((0.1, 0.0, [[0.0, 0.09999999999999998, 0.05, 0.1, 0.09999999999999998],
                     [0.1, 0.09999999999999998, 0.09999999999999998, 0.5, 0.0]]))
@example((0.5, 0.0, [[0.5], [0.49999999999999994]]))
@example((1.0, 0.0, [[0.0, 0.5, 0.9999999999999999]]))
def test_walk_matches_scalar_walk(case):
    p, intensity, rows = case
    spec = FleetSpec(len(rows[0]), p, intensity)
    flags = _walk(np.array(rows), spec)
    assert flags.dtype == bool and flags.shape == (len(rows), spec.n_vehicles)
    assert flags.tolist() == [reference_walk(spec, iter(row).__next__) for row in rows]


def test_verify_probability_model_matches_reference_path():
    p_grid = (0.0, 0.1, 0.25, 0.5, 0.7, 0.9, 1.0)
    intensities = (0.0, 0.35, 1.0)
    out = verify_probability_model(n_vehicles=37, runs=15, p_grid=p_grid,
                                   intensities=intensities, seed=5)
    curves, fits = [], []
    for intensity in intensities:
        emp = {"LV1": [], "LV2": [], "PV": []}
        theo = {"LV1": [], "LV2": [], "PV": []}
        for p in p_grid:
            spec = FleetSpec(37, p, intensity)
            dist = reference_distribution(
                [reference_label_roles(
                    reference_flags(spec, cell_seeds(5, intensity, p, (r,))[0]), 4)
                 for r in range(15)])
            model = class_probabilities(p, intensity, 4)
            for name, e, th in (("LV1", dist.p_lv1, model.p_lv1),
                                ("LV2", dist.p_lv2, model.p_lv2),
                                ("PV", dist.p_pv, model.p_pv)):
                emp[name].append(e)
                theo[name].append(th)
                curves.append({"intensity": intensity, "p": p, "class": name,
                               "empirical": e, "theoretical": th})
        for name in emp:
            fit = goodness_of_fit(emp[name], theo[name])
            fits.append({"intensity": intensity, "class": name, "r2": fit["r2"],
                         "rmse": fit["rmse"], "note": fit["note"]})
    assert repr(out.curves) == repr(curves)
    assert repr(out.fits) == repr(fits)
