"""Strategy combos and the array wiring of a ring, against the object path."""

import random

import numpy as np
import pytest
from conftest import (CLASSES, HV, LV1, LV2, PV, Platoon, assign_strategies,
                      form_platoons, rear_gap_source, reference_columns)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonflow.controllers import H_FOLLOWER, H_LEADER, Strategy
from platoonflow import fleet
from platoonflow.fleet import FleetSpec, draw_flags, role_codes
from platoonflow.platoons import COMBO_LAWS, COMBOS, STRATEGIES, check_combos, wire
from platoonflow.ring import ring_key

NAN = np.nan
FIELDS = ("strategy", "h", "leader", "hops", "rear")


def code(strategy):
    return STRATEGIES.index(strategy)


def labels_of(flags, s_max=4):
    return [CLASSES[c] for c in role_codes(np.array(flags, dtype=bool), [len(flags)], s_max)]


def columns(labels, combo_id):
    """wire() of a labeled ring, by column name."""
    codes = np.array([CLASSES.index(c) for c in labels], dtype=np.int8)
    return dict(zip(FIELDS, wire(codes, [codes.size], [combo_id])))


def test_combo_table():
    expected = {
        1: (Strategy.CTG, Strategy.CTG),
        2: (Strategy.VTG1, Strategy.VTG1),
        3: (Strategy.VTG2, Strategy.VTG2),
        4: (Strategy.BS, Strategy.BS),
        5: (Strategy.CTG, Strategy.CS),
        6: (Strategy.VTG1, Strategy.CTG),
        7: (Strategy.VTG1, Strategy.CS),
        8: (Strategy.VTG2, Strategy.CTG),
        9: (Strategy.VTG2, Strategy.CS),
        10: (Strategy.BS, Strategy.CS),
    }
    assert COMBOS == expected


def test_combo_laws_table_is_combos_by_role_code():
    assert [fleet.HV, fleet.LV1, fleet.LV2, fleet.PV] == [CLASSES.index(c)
                                                         for c in (HV, LV1, LV2, PV)]
    # HVs drive HV, both leader roles the leader law, PVs the follower law
    for cid, (lv, pv) in COMBOS.items():
        for role, law in ((fleet.HV, Strategy.HV), (fleet.LV1, lv), (fleet.LV2, lv),
                          (fleet.PV, pv)):
            assert COMBO_LAWS[cid, role] == code(law), (cid, role)
    assert COMBO_LAWS.shape == (max(COMBOS) + 1, len(CLASSES))
    assert COMBO_LAWS.dtype == np.int8
    assert not COMBO_LAWS.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        COMBO_LAWS[1, 1] = code(Strategy.CS)


@pytest.mark.parametrize("combo_id", [0, -1, 11])
def test_wire_and_ring_key_reject_unknown_combos(combo_id):
    # row 0 of the table is filler and -1 would read its last row
    message = (f"^unknown strategy combo {combo_id}; valid combos are "
               "1, 2, 3, 4, 5, 6, 7, 8, 9, 10$")
    codes = role_codes(np.array([False, True, True]), [3], 4)
    with pytest.raises(ValueError, match=message):
        wire(codes, [3], [combo_id])
    with pytest.raises(ValueError, match=message):
        wire(np.concatenate([codes, codes]), [3, 3], [1, combo_id])
    with pytest.raises(ValueError, match=message):
        ring_key(bytes(3), 2, combo_id)


@pytest.mark.parametrize("combo_id", [1.0, np.float64(5.0), np.int64(10)])
def test_wire_and_ring_key_read_an_integral_combo_id_as_its_int(combo_id):
    # check_combos takes any id equal to a key of COMBOS, so the table must too
    codes = role_codes(np.array([False, True, True, True]), [4], 4)
    for got, want in zip(wire(codes, [4], [combo_id]), wire(codes, [4], [int(combo_id)])):
        np.testing.assert_array_equal(got, want)
    assert ring_key(bytes(4), 3, combo_id) == ring_key(bytes(4), 3, int(combo_id))


def test_check_combos_names_the_first_unknown_combo():
    check_combos(sorted(COMBOS))
    with pytest.raises(ValueError, match="^unknown strategy combo 0; valid combos are "
                                         "1, 2, 3, 4, 5, 6, 7, 8, 9, 10$"):
        check_combos([1, 0, 11])


# The reference object path (conftest) on hand-made rings.

def test_platoon_properties():
    plat = Platoon(leader=5, members=(5, 6, 7))
    assert plat.tail == 7
    assert plat.size == 3
    single = Platoon(leader=2, members=(2,))
    assert single.tail == single.leader


def test_form_platoons_basic():
    labels = [HV, LV1, PV, PV, PV, LV2, PV]
    platoons = form_platoons(labels)
    assert [(p.leader, p.members) for p in platoons] == [
        (1, (1, 2, 3, 4)), (5, (5, 6))]


def test_form_platoons_all_hv():
    assert form_platoons([HV, HV, HV]) == []


def test_form_platoons_wraparound():
    # The follower at index 0 belongs to the platoon led from index 2.
    labels = [PV, HV, LV1, PV]
    platoons = form_platoons(labels)
    assert [(p.leader, p.members) for p in platoons] == [(2, (2, 3, 0))]


def test_form_platoons_block_fleet():
    spec = FleetSpec(n_vehicles=100, p=0.8, intensity=1.0)
    labels = [CLASSES[c] for c in role_codes(draw_flags(spec, [0]), [100], 4)]
    platoons = form_platoons(labels)
    assert len(platoons) == 20
    assert all(p.size == 4 for p in platoons)
    assert [p.leader for p in platoons] == list(range(20, 100, 4))


def test_form_platoons_orphan_follower_raises():
    with pytest.raises(ValueError):
        form_platoons([HV, PV, HV])
    with pytest.raises(ValueError):
        form_platoons([PV, PV])


def test_form_platoons_oversize_raises():
    with pytest.raises(ValueError):
        form_platoons([LV1, PV, PV, PV, PV], s_max=4)


def test_form_platoons_deterministic():
    labels = labels_of([True, True, False, True, True, True, True, False])
    assert form_platoons(labels) == form_platoons(labels)


def test_rear_gap_source():
    plat = Platoon(leader=2, members=(2, 3, 4))
    # rigid platoon: leader senses the gap behind the tail
    assert rear_gap_source(plat, 2, Strategy.CS) == 4
    # loose platoon: everyone senses their own follower
    assert rear_gap_source(plat, 2, Strategy.CTG) == 2
    single = Platoon(leader=7, members=(7,))
    assert rear_gap_source(single, 7, Strategy.CS) == 7


def test_assign_rejects_unplatooned_cav():
    with pytest.raises(ValueError):
        assign_strategies([HV, LV1], [], COMBOS[1])


# The array wiring.

LABELS7 = [HV, LV1, PV, PV, PV, LV2, PV]
OWN7 = list(range(7))


def assert_columns(got, **expected):
    for name, values in expected.items():
        np.testing.assert_array_equal(got[name], values, err_msg=name)


def test_assign_leader_ctg_follower_cs():
    ctg, cs = code(Strategy.CTG), code(Strategy.CS)
    assert_columns(columns(LABELS7, 5),
                   strategy=[code(Strategy.HV), ctg, cs, cs, cs, ctg, cs],
                   h=[NAN, H_LEADER, NAN, NAN, NAN, H_LEADER, NAN],
                   leader=[0, 1, 1, 1, 1, 5, 5], hops=[0, 0, 1, 2, 3, 0, 1],
                   rear=OWN7)


def test_assign_uniform_ctg_uses_two_time_gaps():
    assert_columns(columns(LABELS7, 1),
                   h=[NAN, 1.1, 0.6, 0.6, 0.6, 1.1, 0.6],
                   leader=OWN7, hops=[0] * 7)


def test_assign_bidirectional_leader_with_rigid_followers():
    bs, cs = code(Strategy.BS), code(Strategy.CS)
    # each leader reads the gap behind its platoon's tail (4, then 6 with wrap)
    assert_columns(columns(LABELS7, 10),
                   strategy=[code(Strategy.HV), bs, cs, cs, cs, bs, cs],
                   leader=[0, 1, 1, 1, 1, 5, 5], hops=[0, 0, 1, 2, 3, 0, 1],
                   rear=[0, 5, 2, 3, 4, 0, 6])


def test_assign_all_bidirectional_reads_own_follower():
    assert_columns(columns(LABELS7, 4),
                   strategy=[code(Strategy.HV)] + [code(Strategy.BS)] * 6,
                   rear=[0, 2, 3, 4, 5, 6, 0])


def test_assign_single_strategy_combos_differ_only_in_time_gap():
    for cid in (1, 2, 3, 4):
        got = columns(LABELS7, cid)
        assert set(got["strategy"][1:].tolist()) == {code(COMBOS[cid][0])}
        h = [NAN, H_LEADER, H_FOLLOWER, H_FOLLOWER, H_FOLLOWER, H_LEADER, H_FOLLOWER]
        rear = [0, 2, 3, 4, 5, 6, 0] if cid == 4 else OWN7
        assert_columns(got, h=h if cid == 1 else [NAN] * 7, leader=OWN7,
                       hops=[0] * 7, rear=rear)


def test_assign_covers_every_vehicle():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 50)
        labels = labels_of([rng.random() < 0.7 for _ in range(n)])
        combo_id = rng.randint(1, 10)
        lv, pv = COMBOS[combo_id]
        got = columns(labels, combo_id)
        position = {idx: (plat, pos) for plat in form_platoons(labels)
                    for pos, idx in enumerate(plat.members)}
        for i, cls in enumerate(labels):
            if cls is HV:
                assert got["strategy"][i] == code(Strategy.HV)
                continue
            plat, pos = position[i]
            assert got["strategy"][i] == code(lv if pos == 0 else pv)
            if got["strategy"][i] == code(Strategy.CS):
                assert (got["leader"][i], got["hops"][i]) == (plat.leader, pos)


@st.composite
def coded_rings(draw):
    """CAV flags of one ring, a cap in 1..n+1, and a combo."""
    n = draw(st.integers(1, 40))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return flags, draw(st.integers(1, n + 1)), draw(st.sampled_from(sorted(COMBOS)))


@settings(max_examples=400, deadline=None)
@given(coded_rings())
@example(([False] * 5, 2, 10))                               # all HV
@example(([True] * 9, 4, 10))                                # all CAV
@example(([True] * 3, 4, 10))                                # one platoon is the ring
@example(([True, True, False, True, True, True], 4, 10))     # platoon wraps the ring end
@example(([True, True, False, True, True, True], 4, 1))
@example(([True, True, False, True, True, True], 2, 5))
@example(([True], 1, 10))                                    # n = 1
@example(([False], 2, 5))
def test_wire_matches_object_path(case):
    flags, s_max, combo_id = case
    codes = role_codes(np.array(flags), [len(flags)], s_max)
    got = wire(codes, [codes.size], [combo_id])
    want = reference_columns(codes, COMBOS[combo_id], s_max)
    for name, g, w in zip(FIELDS, got, want):
        np.testing.assert_array_equal(g, w, err_msg=name)
        assert g.dtype.kind == w.dtype.kind, name



@st.composite
def coded_chunks(draw):
    """A few rings of CAV flags of any sizes, one cap, and a combo per ring."""
    rings = draw(st.lists(st.lists(st.booleans(), min_size=1, max_size=40),
                          min_size=1, max_size=6))
    combo_ids = draw(st.lists(st.sampled_from(sorted(COMBOS)),
                              min_size=len(rings), max_size=len(rings)))
    return rings, draw(st.integers(1, max(map(len, rings)) + 1)), combo_ids


@settings(max_examples=300, deadline=None)
@given(coded_chunks())
@example(([[True] * 3, [False, True, True], [True]], 4, [10, 10, 10]))
@example(([[True, True, False, True, True, True], [False] * 4, [True] * 9], 2, [10, 4, 5]))
@example(([[True], [True, False], [True, True, True, False, True]], 2, [9, 1, 10]))
def test_wire_of_a_chunk_is_each_ring_wired_alone(case):
    rings, s_max, combo_ids = case
    sizes = [len(flags) for flags in rings]
    codes = role_codes(np.concatenate(rings).astype(bool), sizes, s_max)
    got = wire(codes, sizes, combo_ids)
    start = 0
    for n, combo_id in zip(sizes, combo_ids):
        ring_slice = slice(start, start + n)
        want = reference_columns(codes[ring_slice], COMBOS[combo_id], s_max)
        for name, g, w in zip(FIELDS, got, want):
            g = g[ring_slice] - start if name in ("leader", "rear") else g[ring_slice]
            np.testing.assert_array_equal(g, w, err_msg=name)
            assert g.dtype.kind == w.dtype.kind, name
        start += n
