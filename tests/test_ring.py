"""Ring engine: setup, stepping, clamps, invariants, logging."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import (CLASSES, assign_strategies, equilibrium_flow, form_platoons,
                      uniform_state)
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonflow.controllers import (H_FOLLOWER, H_LEADER, VEHICLE_LENGTH,
                                     ControlContext, Strategy, bdbm_accel, cs_accel,
                                     ctg_accel, hv_accel, vtg1_accel, vtg2_accel)
from platoonflow.fleet import FleetSpec, draw_flags, role_codes
from platoonflow.platoons import COMBOS, STRATEGIES
from platoonflow.ring import (ENGINE_FIELDS, GAP_FLOOR, SafetySummary, SimConfig,
                              SimulationError, TrajectoryLog, Violation, init_state,
                              run, run_state, safety_scan, split_log, stack)


def hand_config(ring, **kw):
    base = dict(density=None, ring_length=ring, dt=0.1, duration=1.0,
                warmup=0.0, record_every=1)
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
    cfg = SimConfig(density=100.0, p=1.0, combo_id=1)
    state = init_state(cfg)
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
    cfg = SimConfig(density=5.0, p=0.0)
    state = init_state(cfg)
    assert state.n == 5
    assert np.all(state.strategy == code(Strategy.HV))
    assert np.all(np.isnan(state.h))
    assert_unwired(state)


def test_init_state_mixed_fleet():
    cfg = SimConfig(density=55.0, p=0.8, combo_id=7)
    state = init_state(cfg)
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
    assert init_state(SimConfig(density=2.5)).n == 3
    assert init_state(SimConfig(density=2.4)).n == 2


def test_init_state_infeasible_density():
    with pytest.raises(ValueError):
        init_state(SimConfig(density=250.0))
    with pytest.raises(ValueError):
        init_state(SimConfig(density=0.1))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(density=-5.0)
    with pytest.raises(ValueError):
        SimConfig(density=20.0, p=1.5)
    with pytest.raises(ValueError):
        SimConfig(density=20.0, combo_id=11)
    with pytest.raises(ValueError):
        SimConfig(density=20.0, warmup=200.0, duration=100.0)
    with pytest.raises(ValueError):
        SimConfig(density=20.0, record_every=0)
    with pytest.raises(ValueError):
        SimConfig(density=20.0, a_min=0.5)
    # horizons that are not a whole number of steps
    with pytest.raises(ValueError, match="duration"):
        SimConfig(density=20.0, dt=0.7, duration=1.0, warmup=0.0)
    with pytest.raises(ValueError, match="warmup"):
        SimConfig(density=20.0, dt=0.3, duration=3.0, warmup=0.5)
    SimConfig(density=20.0, dt=0.1, duration=3600.0, warmup=1800.0)
    SimConfig(density=20.0, dt=0.3, duration=0.9, warmup=0.3)


@pytest.mark.parametrize("field", ["density", "p", "intensity", "ring_length", "dt",
                                   "duration", "warmup", "v_max", "a_max", "a_min"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{"density": 20.0, field: value})


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
    cfg = SimConfig(density=20.0, p=0.0)
    state = init_state(cfg)
    new, violations = step_once(state, cfg)
    assert violations == []
    assert np.all(new.v > 0.0)
    assert np.allclose(new.v, new.v[0], atol=1e-12)  # symmetric launch


def test_run_sampling_grid():
    cfg = SimConfig(density=20.0, p=0.0, duration=10.0, warmup=0.0,
                    record_every=1)
    log = run(cfg)
    assert log.times.shape == (100,)
    assert log.x.shape == (100, 20)
    assert log.times[0] == 0.0
    assert log.times[-1] == pytest.approx(9.9, abs=1e-9)

    cfg = SimConfig(density=20.0, p=0.0, duration=10.0, warmup=5.0,
                    record_every=10)
    log = run(cfg)
    assert log.times.shape == (5,)
    assert log.times[0] == pytest.approx(5.0, abs=1e-9)
    assert log.times[-1] == pytest.approx(9.0, abs=1e-9)


def test_run_deterministic():
    cfg = SimConfig(density=30.0, p=0.5, intensity=0.3, combo_id=7,
                    duration=30.0, warmup=0.0, seed=4)
    a = run(cfg)
    b = run(cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.a, b.a)
    assert a.violations == b.violations
    c = run(SimConfig(density=30.0, p=0.5, intensity=0.3, combo_id=7,
                      duration=30.0, warmup=0.0, seed=5))
    assert not np.array_equal(a.v, c.v)


def test_exponential_policy_reaches_predicted_equilibrium():
    # Sparse ring: the commanded spacing is loose enough that the flow
    # tops out at the speed cap.
    log = run(SimConfig(density=15.0, p=1.0, combo_id=3, duration=600.0,
                        warmup=300.0))
    assert not log.violations
    mean_v = float(np.mean(log.v))
    assert abs(mean_v - 33.3) / 33.3 <= 0.05

    # Denser ring: gap 40 - 5 m forces the interior balance speed.
    log = run(SimConfig(density=25.0, p=1.0, combo_id=3, duration=600.0,
                        warmup=300.0))
    assert not log.violations
    v_target = 2.0 * 8.83 * math.log(40.0 / 7.0)
    mean_v = float(np.mean(log.v))
    assert abs(mean_v - v_target) / v_target <= 0.05


def test_gap_sum_and_ordering_preserved():
    cfg = SimConfig(density=95.0, p=1.0, combo_id=9, duration=60.0,
                    warmup=0.0, record_every=1)
    log = run(cfg)
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


def test_stressed_dense_cell_completes():
    cfg = SimConfig(density=95.0, p=0.2, intensity=1.0, combo_id=10,
                    duration=30.0, warmup=0.0)
    log = run(cfg)
    assert np.all(np.isfinite(log.v))
    summary = safety_scan(log)
    assert summary.count == len(log.violations)


def test_safety_scan():
    cfg = SimConfig(density=20.0, p=0.0, duration=1.0, warmup=0.0)
    log = run(cfg)
    assert safety_scan(log) == SafetySummary(0, None, None)
    synthetic = TrajectoryLog(config=cfg, times=log.times, x=log.x, v=log.v,
                              a=log.a,
                              violations=[Violation(3.0, 2, -0.4),
                                          Violation(1.0, 5, -0.1)])
    scan = safety_scan(synthetic)
    assert scan.count == 2
    assert scan.first_t == 1.0
    assert scan.min_gap == -0.4


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
    a_cmd = np.clip(u[0], cfg.a_min, cfg.a_max)
    return float(np.clip(v[i] + a_cmd * cfg.dt, 0.0, cfg.v_max)), u[0]


@pytest.mark.parametrize("combo_id", sorted(COMBOS))
def test_step_matches_per_vehicle_laws(combo_id):
    cfg = SimConfig(density=60.0, p=0.6, combo_id=combo_id, ring_length=500.0,
                    duration=1.0, warmup=0.0)
    state = init_state(cfg)
    combo = COMBOS[combo_id]
    # the per-vehicle wiring of the reference object path
    spec = FleetSpec(state.n, cfg.p, cfg.intensity, cfg.s_max)
    labels = [CLASSES[c] for c in role_codes(draw_flags(spec, [cfg.seed]), cfg.s_max)[0]]
    platoons = form_platoons(labels, cfg.s_max)
    asgs = assign_strategies(labels, platoons, combo)
    # a mixed fleet: human drivers, leaders and in-platoon followers
    assert {a.strategy for a in asgs} == {Strategy.HV, combo.lv, combo.pv}
    if combo.pv is Strategy.CS:
        assert max(a.hops for a in asgs if a.strategy is Strategy.CS) >= 2
    if combo.lv is Strategy.BS and combo.pv is Strategy.CS:
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
        unclamped += cfg.a_min < u < cfg.a_max
    assert unclamped >= state.n // 2  # the comparison is not all clamp


@settings(max_examples=40, deadline=None)
@given(density=st.floats(5.0, 190.0), p=st.floats(0.0, 1.0),
       combo_id=st.sampled_from(sorted(COMBOS)), intensity=st.floats(0.0, 1.0),
       v_max=st.floats(5.0, 33.3), seed=st.integers(0, 2 ** 32 - 1))
def test_ring_invariants(density, p, combo_id, intensity, v_max, seed):
    # dense rings brake at standstill and low caps are reached within the
    # run, so both speed clamps take part
    cfg = SimConfig(density=density, p=p, combo_id=combo_id, intensity=intensity,
                    v_max=v_max, seed=seed, duration=20.0, warmup=0.0,
                    record_every=1)
    log = run_state(init_state(cfg), cfg)
    dx = (np.roll(log.x, 1, axis=1) - log.x) % cfg.ring_length
    # front-to-front gaps close one lap at every sample: nobody lapped anyone
    np.testing.assert_allclose(dx.sum(axis=1), cfg.ring_length, rtol=0, atol=1e-6)
    assert np.all((log.v >= 0.0) & (log.v <= cfg.v_max))
    np.testing.assert_allclose(log.a[1:], np.diff(log.v, axis=0) / cfg.dt,
                               rtol=0, atol=1e-9)


def stack_cells():
    """A lone vehicle, then every combo at p 0, 0.6 and 1 over several densities."""
    cells = [SimConfig(density=1.0, duration=20.0, warmup=5.0, record_every=2)]
    for k, (combo_id, p) in enumerate((c, p) for c in sorted(COMBOS) for p in (0.0, 0.6, 1.0)):
        cells.append(SimConfig(density=(15.0, 40.0, 95.0, 60.0)[k % 4], p=p,
                               combo_id=combo_id, seed=k, duration=20.0, warmup=5.0,
                               record_every=2))
    states = [init_state(cfg) for cfg in cells]
    for state, cfg in list(zip(states, cells))[1::3]:
        # vehicle 2 overlaps vehicle 1, so violations are logged
        state.x[2] = (state.x[1] - 4.5) % cfg.ring_length
    return states, cells


def assert_same_log(part, solo):
    for name in ("times", "x", "v", "a"):
        assert np.array_equal(getattr(part, name), getattr(solo, name)), name
    assert part.x.flags.c_contiguous and part.v.flags.c_contiguous
    assert part.violations == solo.violations
    assert part.errors == solo.errors


def test_stacked_rings_match_solo_runs():
    states, cells = stack_cells()
    log = run_state(stack(states, cells), cells[0])
    assert log.x.shape == (log.times.size, sum(s.n for s in states))
    assert log.errors == {}
    parts = list(split_log(log, states, cells))
    assert len(parts) == len(states)
    for state, cfg, part in zip(states, cells, parts):
        solo = run_state(state, cfg)
        assert_same_log(part, solo)
        assert part.config is cfg
    assert sum(len(part.violations) for part in parts) > 0
    # the lone vehicle sees one lap of free road and accelerates at a_max
    lone = parts[0]
    assert lone.x.shape[1] == 1
    np.testing.assert_allclose(lone.a[1:], cells[0].a_max, rtol=1e-9)


def test_stack_drops_only_the_failing_ring():
    states, cells = stack_cells()
    states, cells = states[2:5], cells[2:5]  # the last ring logs violations
    states[1].v[3] = math.nan
    solo = [run_state(state, cfg) for state, cfg in zip(states, cells)]
    assert list(solo[1].errors) == [0]
    assert "vehicle 3" in solo[1].errors[0]
    with pytest.raises(SimulationError, match="vehicle 3"):
        step_once(states[1], cells[1])

    log = run_state(stack(states, cells), cells[0])
    assert log.errors == {1: solo[1].errors[0]}
    parts = list(split_log(log, states, cells))
    assert_same_log(parts[0], solo[0])
    assert_same_log(parts[2], solo[2])
    assert parts[1].errors == {0: solo[1].errors[0]}
    assert np.all(np.isnan(parts[1].v[1:]))


def test_stack_rejects_rings_that_disagree_on_engine_fields():
    cfg = SimConfig(density=20.0, duration=20.0, warmup=10.0)
    other = {"ring_length": 900.0, "dt": 0.05, "duration": 30.0, "warmup": 5.0,
             "record_every": 5, "v_max": 30.0, "a_max": 2.0, "a_min": -4.0}
    assert set(other) == set(ENGINE_FIELDS)
    state = init_state(cfg)
    for name, value in other.items():
        with pytest.raises(ValueError, match=name):
            stack([state, state], [cfg, dataclasses.replace(cfg, **{name: value})])
    # per-cell fields may differ
    stack([state, state], [cfg, dataclasses.replace(cfg, density=30.0, p=0.5, seed=3)])
    with pytest.raises(ValueError):
        stack([state], [cfg, cfg])
    with pytest.raises(ValueError):
        stack([stack([state, state], [cfg, cfg])], [cfg])
