"""Ring engine: setup, stepping, clamps, invariants, logging."""

import dataclasses
import math
from collections import defaultdict

import numpy as np
import pytest
from conftest import (CLASSES, SimulationError, assign_strategies, equilibrium_flow,
                      form_platoons, init_state, reduce_log, reference_advance, run,
                      run_state, split_log, stack, uniform_state)
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import platoonflow.ring as engine
from platoonflow.controllers import (H_FOLLOWER, H_LEADER, V_FREE, VEHICLE_LENGTH,
                                     ControlContext, Strategy, bdbm_accel, cs_accel,
                                     ctg_accel, hv_accel, vtg1_accel, vtg2_accel)
from platoonflow.fleet import FleetSpec, draw_flags, role_codes
from platoonflow.platoons import COMBOS, STRATEGIES
from platoonflow.ring import A_MAX, A_MIN, GAP_FLOOR, SimConfig, build_rings, cell_fleet


def hand_config(ring, **kw):
    base = dict(ring_length=ring, dt=0.1, duration=1.0, warmup=0.0, record_every=1)
    base.update(kw)
    return SimConfig(**base)


def step_once(state, cfg):
    """State and violations after one step of run_state from ``state``."""
    cfg = dataclasses.replace(cfg, duration=2 * cfg.dt, warmup=cfg.dt, record_every=1)
    log = run_state(state, cfg)
    if log.errors:
        raise SimulationError(log.errors[0])
    new = dataclasses.replace(state, x=log.x[0], v=log.v[0], a=log.a[0])
    return new, [viol for viol in log.violations if viol.t == 0.0]


def code(strategy):
    return STRATEGIES.index(strategy)


def assert_unwired(state):
    """No vehicle reads a platoon leader or a rear gap."""
    own = np.arange(state.n)
    assert np.array_equal(state.leader, own) and np.array_equal(state.rear, own)
    assert not np.any(state.hops)


def test_init_state_full_cav_ring():
    cfg = SimConfig()
    state = init_state(cfg, 100.0, 1.0, 1)
    assert state.n == 100
    dx = (np.roll(state.x, 1) - state.x) % cfg.ring_length
    assert np.allclose(dx - VEHICLE_LENGTH, 5.0, atol=1e-9)
    assert np.all(state.v == 0.0)
    # 25 platoons of four: CTG leaders at 1.1 s, CTG followers at 0.6 s
    assert np.all(state.strategy == code(Strategy.CTG))
    assert np.array_equal(np.flatnonzero(state.h == H_LEADER), np.arange(0, 100, 4))
    assert np.count_nonzero(state.h == H_FOLLOWER) == 75
    assert_unwired(state)


def test_init_state_all_hv():
    state = init_state(SimConfig(), 5.0, 0.0, 1)
    assert state.n == 5
    assert np.all(state.strategy == code(Strategy.HV))
    assert np.all(np.isnan(state.h))
    assert_unwired(state)


def test_init_state_mixed_fleet():
    state = init_state(SimConfig(), 55.0, 0.8, 7)
    assert state.n == 55
    assert np.count_nonzero(state.strategy != code(Strategy.HV)) == 44
    # 11 VTG1 leaders, each followed by three CS followers
    leaders = np.flatnonzero(state.strategy == code(Strategy.VTG1))
    assert leaders.size == 11
    cs = np.flatnonzero(state.strategy == code(Strategy.CS))
    assert cs.size == 33
    assert np.array_equal(state.leader[cs], np.repeat(leaders, 3))
    assert np.array_equal(state.hops[cs], np.tile([1.0, 2.0, 3.0], 11))
    assert np.all(np.isnan(state.h))
    assert np.array_equal(state.rear, np.arange(55))


def test_init_state_vehicle_count_rounds_half_up():
    assert init_state(SimConfig(), 2.5, 1.0, 1).n == 3
    assert init_state(SimConfig(), 2.4, 1.0, 1).n == 2


def test_init_state_infeasible_density():
    with pytest.raises(ValueError):
        init_state(SimConfig(), 250.0, 1.0, 1)
    with pytest.raises(ValueError):
        init_state(SimConfig(), 0.1, 1.0, 1)


def test_built_rings_are_one_ring_states_side_by_side():
    # cells as a sweep chunk holds them: drawn layouts below intensity 1,
    # seeds, and cells that fail their checks and get no ring
    cfg = SimConfig()
    cells = [(15.0, 0.3, 5, 0.4, 7), (250.0, 0.5, 1, 0.4, 1), (40.0, 0.8, 10, 0.8, 3),
             (1.0, 1.0, 4, 1.0, None), (0.1, 0.5, 2, 0.5, 2), (95.0, 0.6, 9, 0.0, 11),
             (55.0, 0.7, 7, 0.3, 12), (20.0, 0.5, 4, 0.9, 4)]
    rows, kept = [], []
    for density, p, combo_id, intensity, seed in cells:
        try:
            rows.append(draw_flags(cell_fleet(cfg, density, p, intensity), [seed])[0])
        except ValueError:
            continue
        kept.append((density, p, combo_id, intensity, seed))
    assert len(kept) == 6
    state = build_rings(cfg, np.concatenate(rows), [row.size for row in rows],
                        [c[2] for c in kept])
    bounds = [*state.starts, state.n]
    assert state.n == sum(row.size for row in rows)
    for r, (density, p, combo_id, intensity, seed) in enumerate(kept):
        alone = init_state(cfg, density, p, combo_id, intensity, seed)
        assert alone.starts == (0,)
        ring_slice = slice(bounds[r], bounds[r + 1])
        for name in ("x", "v", "a", "strategy", "h", "leader", "hops", "rear"):
            got, want = getattr(state, name)[ring_slice], getattr(alone, name)
            if name in ("leader", "rear"):
                got = got - bounds[r]
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), (r, name)  # values and float bits
    # the layouts are drawn: CS followers count hops, BS leaders read past a tail
    assert state.hops.max() >= 2
    assert np.any((state.strategy == code(Strategy.BS)) & (state.rear > np.arange(state.n) + 1))
    # a fleet does not depend on its combo, so build_rings checks the combos
    with pytest.raises(ValueError, match="unknown strategy combo 11"):
        build_rings(cfg, rows[0], [rows[0].size], [11])


# A cell's values, from a few each: p 0 is all human at any intensity and
# combo, a small p puts one CAV on a small ring, 15 and 15.0000001 veh/km
# place the same count, and at intensity 1 the seed draws nothing.
KEY_VALUES = dict(density=st.sampled_from([5.0, 10.0, 15.0, 15.0000001, 40.0]),
                  p=st.sampled_from([0.0, 0.04, 0.1, 0.2, 1.0]) | st.floats(0.0, 1.0),
                  combo_id=st.sampled_from(sorted(COMBOS)),
                  intensity=st.sampled_from([0.0, 0.7, 1.0]), seed=st.integers(0, 3))


@st.composite
def cell_pairs(draw):
    """Two cells that differ in at most one value, so they often build one ring."""
    first = {name: draw(values) for name, values in KEY_VALUES.items()}
    name = draw(st.sampled_from(sorted(KEY_VALUES)))
    return first, {**first, name: draw(KEY_VALUES[name])}


ONE_BS_LEADER = dict(density=5.0, p=0.2, combo_id=4, intensity=1.0, seed=0)
TWO_CAVS = dict(density=10.0, p=0.2, combo_id=1, intensity=1.0, seed=0)


@settings(max_examples=300, deadline=None)
@given(cell_pairs())
# one CAV, a BS leader: its rear-gap source does not depend on the follower law
@example((ONE_BS_LEADER, {**ONE_BS_LEADER, "combo_id": 10}))
# two CAVs, one platoon: CTG or CS drives its follower
@example((TWO_CAVS, {**TWO_CAVS, "combo_id": 5}))
def test_equal_ring_keys_build_equal_columns(pair):
    cfg = SimConfig()
    keys, states = [], []
    for cell in pair:
        fleet = cell_fleet(cfg, cell["density"], cell["p"], cell["intensity"])
        flags = draw_flags(fleet, [cell["seed"]])[0]
        keys.append(engine.ring_key(flags.tobytes(), np.count_nonzero(flags), cell["combo_id"]))
        states.append(build_rings(cfg, flags, [flags.size], [cell["combo_id"]]))
    event(f"equal keys: {keys[0] == keys[1]}")
    if keys[0] != keys[1]:
        return
    for name in ("x", "strategy", "h", "leader", "hops", "rear"):
        got, want = (getattr(state, name) for state in states)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name  # values and float bits


def test_ring_key_names_only_the_laws_a_vehicle_drives():
    cfg = SimConfig()

    def key(density, p, combo_id):
        flags = draw_flags(cell_fleet(cfg, density, p), [None])[0]
        return engine.ring_key(flags.tobytes(), np.count_nonzero(flags), combo_id)

    # all human: no law but HV's; one CAV: only its leader law
    assert len({key(15.0, 0.0, combo_id) for combo_id in COMBOS}) == 1
    assert key(5.0, 0.2, 4) == key(5.0, 0.2, 10)  # BS leaders; BS or CS followers
    assert key(5.0, 0.2, 2) == key(5.0, 0.2, 6) == key(5.0, 0.2, 7)  # VTG1 leaders
    assert key(5.0, 0.2, 1) != key(5.0, 0.2, 2)
    # two CAVs: the follower law counts too, as do the count and the layout
    assert key(10.0, 0.2, 4) != key(10.0, 0.2, 10)
    assert key(10.0, 0.2, 4) != key(15.0, 0.2, 4) != key(15.0, 0.4, 4)
    assert key(15.0, 0.0, 1) == key(15.0000001, 0.0, 1)


CELL = dict(density=20.0, p=1.0, combo_id=1)


def test_config_validation():
    # a cell's own values are checked when its ring is built
    for bad in (dict(density=-5.0), dict(p=1.5), dict(combo_id=11), dict(intensity=-0.1)):
        with pytest.raises(ValueError):
            init_state(SimConfig(), **{**CELL, **bad})
    for bad in (dict(ring_length=0.0), dict(dt=-0.1)):
        with pytest.raises(ValueError, match="ring length and time step must be positive"):
            SimConfig(**bad)
    with pytest.raises(ValueError):
        SimConfig(warmup=200.0, duration=100.0)
    with pytest.raises(ValueError, match="no sample"):
        SimConfig(warmup=5.0, duration=5.0)
    with pytest.raises(ValueError):
        SimConfig(record_every=0)
    with pytest.raises(ValueError, match="record_every"):
        SimConfig(record_every=2.5)
    # horizons that are not a whole number of steps
    with pytest.raises(ValueError, match="duration"):
        SimConfig(dt=0.7, duration=1.0, warmup=0.0)
    with pytest.raises(ValueError, match="warmup"):
        SimConfig(dt=0.3, duration=3.0, warmup=0.5)
    SimConfig(dt=0.1, duration=3600.0, warmup=1800.0)
    SimConfig(dt=0.3, duration=0.9, warmup=0.3)
    SimConfig(record_every=np.int64(3))
    # 1e20 steps recorded every 10th are 1e19 samples, past sys.maxsize
    with pytest.raises(ValueError, match="holds more samples than a run can count"):
        SimConfig(duration=1e19, warmup=0.0)
    assert len(SimConfig(duration=1e19, warmup=0.0, record_every=100).sample_steps) == 10**18
    # a step count past the largest float is inf, which round() cannot take
    for bad in (dict(dt=1e-310), dict(duration=1e308, warmup=0.0, dt=1e-5)):
        with pytest.raises(ValueError, match="duration .* than a run can count"):
            SimConfig(**bad)
    # one step at the speed cap may not lap the ring
    with pytest.raises(ValueError, match="covers the whole ring of 1000.0 m"):
        SimConfig(dt=40.0, duration=3600.0, warmup=1800.0)
    with pytest.raises(ValueError, match="whole ring"):
        SimConfig(ring_length=V_FREE * 0.5, dt=0.5, duration=1.0, warmup=0.0)
    SimConfig(ring_length=np.nextafter(V_FREE * 0.5, 20.0), dt=0.5, duration=1.0, warmup=0.0)


@pytest.mark.parametrize("field", ["density", "p", "intensity", "ring_length", "dt",
                                   "duration", "warmup"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        if field in ("density", "p", "intensity"):
            init_state(SimConfig(), **{**CELL, field: value})
        else:
            SimConfig(**{field: value})


@pytest.mark.parametrize("strategy", [Strategy.CTG, Strategy.VTG1,
                                      Strategy.VTG2, Strategy.BS,
                                      Strategy.HV])
def test_step_holds_equilibrium(strategy):
    state, ring = equilibrium_flow(strategy, 15.0, n=10)
    cfg = hand_config(ring)
    new, violations = step_once(state, cfg)
    assert violations == []
    assert np.allclose(new.v, 15.0, atol=1e-12)
    assert np.allclose(new.a, 0.0, atol=1e-12)
    expected_x = (state.x + 1.5) % ring
    assert np.allclose(new.x, expected_x, atol=1e-9)


def test_step_speed_cap():
    state = uniform_state([0.0, 100.0], [33.3, 33.3], Strategy.CTG)
    new, _ = step_once(state, hand_config(200.0))
    # the huge gap asks for acceleration; the cap holds the speed exactly
    assert new.v[0] == 33.3
    assert new.a[0] == 0.0


def test_step_brake_clamp_and_speed_floor():
    # overlapping pair: raw braking demand far exceeds the clamp
    state = uniform_state([0.0, 5.01], [0.3, 0.3], Strategy.HV)
    new, violations = step_once(state, hand_config(100.0))
    assert violations == []  # gap 0.01 is tiny but still positive
    assert new.v[0] == 0.0   # 0.3 - 0.5 clips at standstill
    assert new.a[0] == pytest.approx(-3.0, rel=1e-12)


def test_step_negative_gap_records_violation_and_continues():
    state = uniform_state([0.0, 4.5], [5.0, 5.0], Strategy.HV)
    new, violations = step_once(state, hand_config(100.0))
    assert len(violations) == 1
    assert violations[0].vehicle == 0
    assert violations[0].gap == pytest.approx(-0.5, abs=1e-9)
    assert np.all(np.isfinite(new.v))


def test_step_all_hv_standstill_launch():
    cfg = SimConfig()
    state = init_state(cfg, 20.0, 0.0, 1)
    new, violations = step_once(state, cfg)
    assert violations == []
    assert np.all(new.v > 0.0)
    assert np.allclose(new.v, new.v[0], atol=1e-12)  # symmetric launch


def test_run_sampling_grid():
    log = run(SimConfig(duration=10.0, warmup=0.0, record_every=1), 20.0, 0.0, 1)
    assert log.violations == []
    assert log.times.shape == (100,)
    assert log.x.shape == (100, 20)
    assert log.times[0] == 0.0
    assert log.times[-1] == pytest.approx(9.9, abs=1e-9)

    log = run(SimConfig(duration=10.0, warmup=5.0, record_every=10), 20.0, 0.0, 1)
    assert log.times.shape == (5,)
    assert log.times[0] == pytest.approx(5.0, abs=1e-9)
    assert log.times[-1] == pytest.approx(9.0, abs=1e-9)


@pytest.mark.parametrize("dt, duration, warmup, every, steps",
                         [(0.1, 10.0, 5.0, 10, range(50, 100, 10)),
                          (0.1, 3600.0, 1800.0, 10, range(18000, 36000, 10)),
                          (0.3, 2.1, 0.9, 1, range(3, 7)),
                          (0.1, 10.0, 0.0, 3, range(0, 100, 3))])
def test_sample_steps_are_the_recorded_steps(dt, duration, warmup, every, steps):
    cfg = SimConfig(dt=dt, duration=duration, warmup=warmup, record_every=every)
    assert cfg.sample_steps == steps
    if duration <= 10.0:
        log = run(cfg, 20.0, 0.0, 1)
        assert log.x.shape == (len(steps), 20)
        # each time is its step index times dt, as an int64 product
        want = np.arange(steps.start, steps.stop, steps.step, dtype=np.int64) * dt
        assert np.array_equal(log.times.view(np.int64), want.view(np.int64))


def test_run_deterministic():
    cfg = SimConfig(duration=30.0, warmup=0.0)
    a = run(cfg, 30.0, 0.5, 7, intensity=0.3, seed=4)
    b = run(cfg, 30.0, 0.5, 7, intensity=0.3, seed=4)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.a, b.a)
    assert a.violations == b.violations
    c = run(cfg, 30.0, 0.5, 7, intensity=0.3, seed=5)
    assert not np.array_equal(a.v, c.v)


def test_exponential_policy_reaches_predicted_equilibrium():
    # Sparse ring: the commanded spacing is loose enough that the flow
    # tops out at the speed cap.
    cfg = SimConfig(duration=600.0, warmup=300.0)
    log = run(cfg, 15.0, 1.0, 3)
    assert not log.violations
    mean_v = float(np.mean(log.v))
    assert abs(mean_v - 33.3) / 33.3 <= 0.05

    # Denser ring: gap 40 - 5 m forces the interior balance speed.
    log = run(cfg, 25.0, 1.0, 3)
    assert not log.violations
    v_target = 2.0 * 8.83 * math.log(40.0 / 7.0)
    mean_v = float(np.mean(log.v))
    assert abs(mean_v - v_target) / v_target <= 0.05


def test_gap_sum_and_ordering_preserved():
    cfg = SimConfig(duration=60.0, warmup=0.0, record_every=1)
    log = run(cfg, 95.0, 1.0, 9)
    ring = cfg.ring_length
    prev_dx = None
    for row in range(0, log.x.shape[0], 20):
        x = log.x[row]
        dx = (np.roll(x, 1) - x) % ring
        # total front-to-front distance equals one lap: nobody lapped anyone
        assert float(np.sum(dx)) == pytest.approx(ring, abs=1e-6)
        if prev_dx is not None:
            assert float(np.max(np.abs(dx - prev_dx))) < 10.0
        prev_dx = dx


def test_nan_state_raises():
    state, ring = equilibrium_flow(Strategy.CTG, 15.0, n=5)
    state.v[2] = math.nan
    with pytest.raises(SimulationError) as err:
        step_once(state, hand_config(ring))
    assert "2" in str(err.value)
    assert str(err.value) == ("non-finite desired acceleration for vehicle 2: "
                              "v=nan gap=11.0 v_pred=15.0 a_pred=0.0")


@pytest.mark.parametrize("column, value, message", [
    ("x", 200.0, "position 200.0 of vehicle 1 is outside [0, ring_length 200.0)"),
    ("x", -1e-300, "position -1e-300 of vehicle 1"),
    ("x", math.nan, "position nan of vehicle 1"),
    ("x", math.inf, "position inf of vehicle 1"),
    ("v", -0.5, "speed -0.5 of vehicle 1 is outside [0, v_max 33.3]"),
    ("v", 33.4, "speed 33.4 of vehicle 1"),
    ("v", math.inf, "speed inf of vehicle 1"),
])
def test_run_rejects_state_outside_the_ranges(column, value, message):
    state = uniform_state([150.0, 100.0, 50.0], [10.0, 10.0, 10.0], Strategy.HV)
    getattr(state, column)[1] = value
    with pytest.raises(ValueError) as err:
        run_state(state, hand_config(200.0))
    assert message in str(err.value)
    # in a stack too, before any ring steps
    lone = uniform_state([0.0], [0.0], Strategy.HV)
    with pytest.raises(ValueError, match=message.split(" of ")[0]):
        run_state(stack([lone, state]), hand_config(200.0))


def test_stressed_dense_cell_completes():
    log = run(SimConfig(duration=30.0, warmup=0.0), 95.0, 0.2, 10, intensity=1.0)
    assert np.all(np.isfinite(log.v))


LAWS = {Strategy.HV: hv_accel, Strategy.VTG1: vtg1_accel,
        Strategy.VTG2: vtg2_accel, Strategy.CS: cs_accel, Strategy.BS: bdbm_accel}


def reference_step(state, cfg, i, asg):
    """New speed and raw law output of vehicle i, from its own Assignment alone."""
    x, v, a, n, ring = state.x, state.v, state.a, state.n, cfg.ring_length

    def front_gap(k):
        return max((x[(k - 1) % n] - x[k]) % ring - VEHICLE_LENGTH, GAP_FLOOR)

    pred = (i - 1) % n
    ctx = ControlContext(v=np.array([v[i]]), gap=np.array([front_gap(i)]),
                         v_pred=np.array([v[pred]]), a_pred=np.array([a[pred]]))
    if asg.strategy is Strategy.CS:
        ctx.leader_dx = np.array([(x[asg.leader] - x[i]) % ring])
        ctx.v_leader = np.array([v[asg.leader]])
        ctx.a_leader = np.array([a[asg.leader]])
        ctx.leader_hops = np.array([asg.hops])
    if asg.strategy is Strategy.BS:
        ctx.follower_gap = np.array([front_gap((asg.rear_source + 1) % n)])
    if asg.strategy is Strategy.CTG:
        u = ctg_accel(ctx, h=asg.h)
    else:
        u = LAWS[asg.strategy](ctx)
    a_cmd = np.clip(u[0], A_MIN, A_MAX)
    return float(np.clip(v[i] + a_cmd * cfg.dt, 0.0, V_FREE)), u[0]


@pytest.mark.parametrize("combo_id", sorted(COMBOS))
def test_step_matches_per_vehicle_laws(combo_id):
    cfg = SimConfig(ring_length=500.0, duration=1.0, warmup=0.0)
    state = init_state(cfg, 60.0, 0.6, combo_id)
    lv, pv = COMBOS[combo_id]
    # the per-vehicle wiring of the reference object path
    labels = [CLASSES[c] for c in role_codes(draw_flags(FleetSpec(state.n, 0.6, 1.0), [None]),
                                             [state.n], 4)]
    platoons = form_platoons(labels, 4)
    asgs = assign_strategies(labels, platoons, (lv, pv))
    # a mixed fleet: human drivers, leaders and in-platoon followers
    assert {a.strategy for a in asgs} == {Strategy.HV, lv, pv}
    if pv is Strategy.CS:
        assert max(a.hops for a in asgs if a.strategy is Strategy.CS) >= 2
    if lv is Strategy.BS and pv is Strategy.CS:
        assert any(a.rear_source != i for i, a in enumerate(asgs)
                   if a.strategy is Strategy.BS)
    if combo_id == 1:
        assert {a.h for a in asgs if a.strategy is Strategy.CTG} == {1.1, 0.6}
    rng = np.random.default_rng(combo_id)
    # uneven gaps, and the ring origin inside the longest platoon so the
    # leader arc has to wrap
    lead = max(platoons, key=lambda plat: plat.size).leader
    state.x = (state.x - state.x[lead] + 1.0
               + rng.uniform(-1.0, 1.0, state.n)) % cfg.ring_length
    state.v = rng.uniform(6.5, 7.5, state.n)
    state.a = rng.uniform(-0.3, 0.3, state.n)

    new, _ = step_once(state, cfg)
    unclamped = 0
    for i in range(state.n):
        v_ref, u = reference_step(state, cfg, i, asgs[i])
        assert new.v[i] == pytest.approx(v_ref, rel=1e-12, abs=0.0), i
        unclamped += A_MIN < u < A_MAX
    assert unclamped >= state.n // 2  # the comparison is not all clamp


@settings(max_examples=40, deadline=None)
@given(density=st.floats(5.0, 190.0), p=st.floats(0.0, 1.0),
       combo_id=st.sampled_from(sorted(COMBOS)), intensity=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(density=5.0, p=1.0, combo_id=1, intensity=1.0, seed=0)
def test_ring_invariants(density, p, combo_id, intensity, seed):
    # dense rings brake at standstill, and from standstill at 1 m/s^2 a
    # sparse ring reaches the speed cap within the 40 s run (the example),
    # so both speed clamps take part
    cfg = SimConfig(duration=40.0, warmup=0.0, record_every=1)
    log = run_state(init_state(cfg, density, p, combo_id, intensity, seed=seed), cfg)
    dx = (np.roll(log.x, 1, axis=1) - log.x) % cfg.ring_length
    # front-to-front gaps close one lap at every sample: nobody lapped anyone
    np.testing.assert_allclose(dx.sum(axis=1), cfg.ring_length, rtol=0, atol=1e-6)
    assert np.all((log.v >= 0.0) & (log.v <= V_FREE))
    capped = bool((log.v == V_FREE).any())
    event(f"speed cap reached: {capped}")
    if (density, p, combo_id, intensity) == (5.0, 1.0, 1, 1.0):
        assert capped
    np.testing.assert_allclose(log.a[1:], np.diff(log.v, axis=0) / cfg.dt,
                               rtol=0, atol=1e-9)


STACK_CONFIG = SimConfig(duration=20.0, warmup=5.0, record_every=2)


def overlapped(state):
    """``state`` with vehicle 2 overlapping vehicle 1, so violations are logged."""
    state.x[2] = (state.x[1] - 4.5) % STACK_CONFIG.ring_length
    return state


def stack_cells():
    """A lone vehicle, then every combo at p 0, 0.6 and 1 over several densities."""
    cfg = STACK_CONFIG
    states = [init_state(cfg, 1.0, 1.0, 1)]
    for k, (combo_id, p) in enumerate((c, p) for c in sorted(COMBOS) for p in (0.0, 0.6, 1.0)):
        states.append(init_state(cfg, (15.0, 40.0, 95.0, 60.0)[k % 4], p, combo_id, seed=k))
    for state in states[1::3]:
        overlapped(state)
    return states


def assert_same_log(part, solo):
    for name in ("times", "x", "v", "a"):
        assert np.array_equal(getattr(part, name), getattr(solo, name)), name
    # a reduction over the part sums in the same order as over the solo run
    assert repr(reduce_log(part)) == repr(reduce_log(solo))
    assert part.violations == solo.violations
    assert part.errors == solo.errors


def test_stacked_rings_match_solo_runs():
    states = stack_cells()
    log = run_state(stack(states), STACK_CONFIG)
    assert log.x.shape == (log.times.size, sum(s.n for s in states))
    assert log.errors == {}
    parts = list(split_log(log, stack(states)))
    assert len(parts) == len(states)
    for state, part in zip(states, parts):
        assert_same_log(part, run_state(state, STACK_CONFIG))
    assert sum(len(part.violations) for part in parts) > 0
    # the raw stacked log names each violation by its ring and the
    # follower's number in it: the gap recomputed from that ring's columns
    # of the step's sample, taken here at every step, is the logged gap
    every = dataclasses.replace(STACK_CONFIG, warmup=0.0, record_every=1)
    full = run_state(stack(states), every)
    assert full.violations == log.violations
    bounds = [*stack(states).starts, log.x.shape[1]]
    row_of = {t: k for k, t in enumerate(full.times.tolist())}
    for viol in log.violations:
        assert 0 <= viol.ring < len(states)
        assert 0 <= viol.vehicle < states[viol.ring].n
        x = full.x[row_of[viol.t], bounds[viol.ring]:bounds[viol.ring + 1]]
        dx = (x[viol.vehicle - 1] - x[viol.vehicle]) % STACK_CONFIG.ring_length
        assert dx - VEHICLE_LENGTH == viol.gap
    assert len({viol.ring for viol in log.violations}) > 1
    assert log.violations == sorted(log.violations, key=lambda w: (w.t, w.ring, w.vehicle))
    # the parts are views of the stacked columns, not copies
    for part in parts:
        for name in ("x", "v", "a"):
            assert np.shares_memory(getattr(part, name), getattr(log, name)), name
    # the lone vehicle sees one lap of free road and accelerates at A_MAX
    lone = parts[0]
    assert lone.x.shape[1] == 1
    np.testing.assert_allclose(lone.a[1:], A_MAX, rtol=1e-9)
    # stack takes a non-empty list of single-ring states
    with pytest.raises(ValueError):
        stack([])
    with pytest.raises(ValueError):
        stack([stack(states[:2])])


def test_stack_drops_only_the_failing_ring():
    states = stack_cells()[2:5]  # the last ring logs violations
    states[1].v[3] = math.nan
    solo = [run_state(state, STACK_CONFIG) for state in states]
    assert list(solo[1].errors) == [0]
    assert "vehicle 3" in solo[1].errors[0]
    with pytest.raises(SimulationError, match="vehicle 3"):
        step_once(states[1], STACK_CONFIG)

    log = run_state(stack(states), STACK_CONFIG)
    assert log.errors == {1: solo[1].errors[0]}
    parts = list(split_log(log, stack(states)))
    assert_same_log(parts[0], solo[0])
    assert_same_log(parts[2], solo[2])
    assert parts[1].errors == {0: solo[1].errors[0]}
    assert np.all(np.isnan(parts[1].v[1:]))


V_FAIL = 10.0  # m/s


@pytest.fixture
def ctg_fails_fast(monkeypatch):
    """ctg_accel, but NaN for a vehicle faster than V_FAIL.

    A ring with a CTG vehicle then fails at the step that vehicle first
    passes V_FAIL, and every step after it would fail too.
    """
    law = engine.ctg_accel

    def failing(ctx, *args, **kwargs):
        return np.where(ctx.v > V_FAIL, np.nan, law(ctx, *args, **kwargs))
    monkeypatch.setattr(engine, "ctg_accel", failing)


def assert_masked(states, failing):
    """Step ``states`` stacked; the rings in ``failing`` fail, the others run on.

    Every ring's log equals its solo run bit for bit. A failed ring keeps
    its own message and its samples are finite up to the failure and NaN
    from then on. Returns the first NaN sample row of each failed ring.
    """
    solo = [run_state(state, STACK_CONFIG) for state in states]
    log = run_state(stack(states), STACK_CONFIG)
    assert sorted(log.errors) == sorted(failing)
    rows = {}
    for r, (part, alone) in enumerate(zip(split_log(log, stack(states)), solo)):
        if r not in failing:
            assert_same_log(part, alone)
            continue
        assert list(alone.errors) == [0]
        assert alone.errors[0].startswith("non-finite desired acceleration for vehicle ")
        assert log.errors[r] == alone.errors[0] and part.errors == alone.errors
        for name in ("times", "x", "v", "a"):
            assert np.array_equal(as_bits(getattr(part, name)),
                                  as_bits(getattr(alone, name))), name
        assert part.violations == alone.violations
        dead = np.isnan(part.v).all(axis=1)
        assert dead.any()
        rows[r] = row = int(np.argmax(dead))
        for values in (part.x, part.v, part.a):
            assert np.isfinite(values[:row]).all() and np.isnan(values[row:]).all()
    return rows


def test_stack_masks_a_ring_that_fails_mid_run(ctg_fails_fast):
    cfg = STACK_CONFIG
    states = [init_state(cfg, 40.0, 0.6, 2, seed=1), init_state(cfg, 40.0, 0.6, 1, seed=2),
              overlapped(init_state(cfg, 95.0, 0.6, 4, seed=3))]
    rows = assert_masked(states, [1])
    assert 0 < rows[1] < len(cfg.sample_steps)


def test_stack_masks_two_rings_that_fail_at_one_step(ctg_fails_fast):
    cfg = STACK_CONFIG
    states = [init_state(cfg, 15.0, 1.0, 1), init_state(cfg, 60.0, 0.6, 3, seed=4),
              init_state(cfg, 40.0, 0.6, 6, seed=5)]
    rows = assert_masked(states, [0, 2])
    assert 0 < rows[0] == rows[2] < len(cfg.sample_steps)


def test_stack_masks_every_ring(ctg_fails_fast):
    cfg = STACK_CONFIG
    states = [init_state(cfg, 15.0, 1.0, 1), overlapped(init_state(cfg, 95.0, 1.0, 5)),
              init_state(cfg, 60.0, 1.0, 8), overlapped(init_state(cfg, 40.0, 0.0, 1))]
    # the last ring fails at the first step, which drops that step's violations
    assert run_state(states[3], cfg).violations
    states[3].v[3] = math.nan
    rows = assert_masked(states, [0, 1, 2, 3])
    assert rows[3] == 0 < rows[0] < rows[1] < len(cfg.sample_steps)
    assert run_state(states[3], cfg).violations == []
    # violations before a mid-run failure stay
    assert run_state(states[1], cfg).violations


def test_each_law_steps_only_its_members(monkeypatch):
    cfg = SimConfig(duration=0.3, warmup=0.0, record_every=1)
    state = stack([init_state(cfg, 40.0, 0.6, combo_id) for combo_id in sorted(COMBOS)])
    contexts = defaultdict(list)
    for strategy, name in ((Strategy.HV, "hv_accel"), (Strategy.CTG, "ctg_accel"),
                           (Strategy.VTG1, "vtg1_accel"), (Strategy.VTG2, "vtg2_accel"),
                           (Strategy.CS, "cs_accel"), (Strategy.BS, "bdbm_accel")):
        def spy(ctx, *args, _law=getattr(engine, name), _strategy=strategy, **kwargs):
            contexts[_strategy].append(ctx)
            return _law(ctx, *args, **kwargs)
        monkeypatch.setattr(engine, name, spy)
    run_state(state, cfg)
    for strategy in STRATEGIES:
        members = np.count_nonzero(state.strategy == code(strategy))
        assert members, strategy
        assert len(contexts[strategy]) == 3, strategy  # one call per step
        for ctx in contexts[strategy]:
            assert ctx.v.size == ctx.gap.size == ctx.v_pred.size == ctx.a_pred.size == members
            leader = (ctx.leader_dx, ctx.v_leader, ctx.a_leader, ctx.leader_hops)
            if strategy is Strategy.CS:
                assert all(field.size == members for field in leader)
            else:
                assert leader == (None,) * 4, strategy
            if strategy is Strategy.BS:
                assert ctx.follower_gap.size == members
            else:
                assert ctx.follower_gap is None, strategy


def as_bits(values):
    """Float bits as integers, so that +0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


def perturbed_chunk(cfg, rng):
    """All six laws, a lone vehicle and a ring that overlaps, from a moving start."""
    states = [init_state(cfg, 1000.0 / cfg.ring_length, 1.0, 1)]
    for k, combo_id in enumerate(sorted(COMBOS)):
        states.append(init_state(cfg, (20.0, 60.0, 95.0)[k % 3], 0.6, combo_id))
    states[3].x[2] = (states[3].x[1] - 4.5) % cfg.ring_length  # overlaps vehicle 1
    for state in states:
        state.x = (state.x + rng.uniform(-2.0, 2.0, state.n)) % cfg.ring_length
        state.v = rng.uniform(0.0, V_FREE, state.n)
        state.a = rng.uniform(A_MIN, A_MAX, state.n)
    # the ends of the position range
    states[1].x[0], states[2].x[0] = 0.0, np.nextafter(cfg.ring_length, 0.0)
    return stack(states)


def test_advance_matches_remainder_reference():
    cfg = SimConfig(ring_length=400.0, duration=1.0, warmup=0.0)
    state = perturbed_chunk(cfg, np.random.default_rng(8))
    assert {int(c) for c in state.strategy} == set(range(len(STRATEGIES)))
    table = engine._build_table(state)
    assert table.alone.size == 1
    # the laws' slots are not the state order
    assert not np.array_equal(table.order, np.arange(state.n))
    new = [state.x[table.order], state.v[table.order], state.a[table.order]]
    ref = [state.x.copy(), state.v.copy(), state.a.copy()]
    laps = violations = 0
    for _ in range(300):
        x = new[0]
        *new, vi, vg, failed = engine._advance(*new, cfg, table)
        assert failed == {}
        *ref, ri, rg = reference_advance(*ref, cfg, state)
        for got, want in zip(new, ref):
            assert np.array_equal(as_bits(got[table.slot]), as_bits(want))
        assert np.array_equal(vi, ri) and np.array_equal(as_bits(vg), as_bits(rg))
        laps += np.count_nonzero(new[0] < x)
        violations += vi.size
    # the wraps and the violation log were exercised, not skipped
    assert laps > state.n and violations > 0


@st.composite
def ring_positions(draw, size=st.integers(1, 20)):
    """A ring length and positions in [0, ring), with both ends likely."""
    ring = draw(st.floats(1e-3, 1e7) | st.sampled_from([1000.0, 400.0, 3.0]))
    inside = st.floats(0.0, ring, exclude_max=True) | st.sampled_from(
        [0.0, float(np.nextafter(ring, 0.0)), ring / 2, float(np.nextafter(ring / 2, 0.0))])
    n = draw(size)
    return ring, np.array(draw(st.lists(inside, min_size=n, max_size=n)))


@given(ring_positions())
def test_arc_is_the_float_remainder(ring_x):
    ring, x = ring_x
    d = x[:, None] - x  # every pair
    want = d % ring
    assert np.array_equal(as_bits(engine._arc(d.copy(), ring)), as_bits(want))


@st.composite
def moves(draw):
    """A ring, positions in [0, ring) and moves of at most one step < ring."""
    ring, x = draw(ring_positions())
    step = draw(st.floats(0.0, ring, exclude_max=True)
                | st.just(float(np.nextafter(ring, 0.0))))
    disp = draw(st.lists(st.floats(0.0, step) | st.just(step), min_size=1, max_size=10))
    return ring, x, np.array(disp)


TOP = float(np.nextafter(1000.0, 0.0))


@given(moves())
# landing on the ring length itself, and the top of [ring, 2 ring)
@example((1000.0, np.array([500.0, 999.0, 0.0, TOP]), np.array([500.0, 1.0, 0.0, TOP])))
def test_lap_is_the_float_remainder(move):
    ring, x, disp = move
    moved = x[:, None] + disp  # every position by every move
    want = moved % ring
    assert np.array_equal(as_bits(engine._lap(moved.copy(), ring)), as_bits(want))


@settings(max_examples=40, deadline=None)
@given(density=st.floats(5.0, 190.0), p=st.floats(0.0, 1.0),
       combo_id=st.sampled_from(sorted(COMBOS)), speed=st.floats(0.0, 33.3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_no_overtaking_without_a_violation(density, p, combo_id, speed, seed):
    # a moving start with speeds 1 m/s apart: about half of such runs overlap
    cfg = SimConfig(duration=20.0, warmup=0.0, record_every=1)
    state = init_state(cfg, density, p, combo_id)
    jitter = np.random.default_rng(seed).uniform(-1.0, 1.0, state.n)
    state.v = np.clip(speed + jitter, 0.0, V_FREE)
    log = run_state(state, cfg)
    assert not log.errors
    event(f"violations logged: {bool(log.violations)}")
    if log.violations:
        return
    dx = (np.roll(log.x, 1, axis=1) - log.x) % cfg.ring_length
    # front-to-front distances close one lap at every sample: nobody overtook
    np.testing.assert_allclose(dx.sum(axis=1), cfg.ring_length, rtol=0, atol=1e-6)
