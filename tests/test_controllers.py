"""Spacing-control laws: pinned outputs, independent oracles, invariants."""

import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq

from platoonflow.controllers import (BS_A_MAX, BS_B_COMF, BS_LAMBDA, BS_T_GAP, CS_Q1,
                                     CS_Q2, CS_Q3, CS_Q4, H_FOLLOWER, H_LEADER, K_E,
                                     K_FF, K_V, MIN_SPACING, SPEED_FLOOR, V_FREE,
                                     VEHICLE_LENGTH, VTG1_C1, VTG1_MU, VTG2_D, VTG2_M,
                                     ControlContext, Strategy, bdbm_accel, cs_accel,
                                     ctg_accel, desired_spacing, equilibrium_gap,
                                     hv_accel, vtg1_accel, vtg2_accel)


def cs_reference(v, gap, v_pred, a_pred, dx_lead, v_lead, a_lead, hops,
                 q1=0.4, q2=0.1, q3=0.9, q4=0.6, d_pair=0.0,
                 d0=2.0, length=5.0):
    # Independent transcription of the expanded constant-spacing law.
    e_pair = gap - d_pair - d0
    e_lead = dx_lead - hops * (length + d_pair + d0)
    total = (a_pred + q3 * a_lead
             + (q1 + q2) * (v_pred - v)
             + q2 * q1 * e_pair
             + (q4 + q2 * q3) * (v_lead - v)
             + q2 * q4 * e_lead)
    return total / (1.0 + q3)


def idm_reference(v, gap, v_pred, vf=33.3, t_gap=2.5, a_max=1.0, b=2.0,
                  d0=2.0):
    # Classic intelligent-driver form with closing speed v - v_pred.
    s_star = d0 + v * t_gap + v * (v - v_pred) / (2.0 * math.sqrt(a_max * b))
    return a_max * (1.0 - (v / vf) ** 4 - (s_star / max(gap, 0.1)) ** 2)


def raw_accel(strategy, ctx, h=H_FOLLOWER):
    if strategy is Strategy.CS:
        return float(cs_accel(ctx))
    if strategy is Strategy.CTG:
        return float(ctg_accel(ctx, h=h))
    if strategy is Strategy.VTG1:
        return float(vtg1_accel(ctx))
    if strategy is Strategy.VTG2:
        return float(vtg2_accel(ctx))
    if strategy is Strategy.BS:
        return float(bdbm_accel(ctx))
    return float(hv_accel(ctx))


def equilibrium_context(strategy, v, h=H_FOLLOWER):
    if strategy is Strategy.CS:
        return ControlContext(v=v, gap=2.0, v_pred=v, a_pred=0.0,
                              leader_dx=7.0, v_leader=v, a_leader=0.0,
                              leader_hops=1)
    gap = float(desired_spacing(strategy, v, h=h))
    return ControlContext(v=v, gap=gap, v_pred=v, a_pred=0.0)


def test_parameter_defaults():
    assert (CS_Q1, CS_Q2, CS_Q3, CS_Q4) == (0.4, 0.1, 0.9, 0.6)
    assert (K_E, K_V, K_FF) == (0.1, 0.98, 0.7)
    assert (VTG1_C1, VTG1_MU) == (0.6, 0.1)
    assert (VTG2_D, VTG2_M) == (7.0, 8.83)
    assert (BS_T_GAP, BS_A_MAX, BS_B_COMF, BS_LAMBDA) == (2.5, 1.0, 2.0, 0.5)
    assert (V_FREE, VEHICLE_LENGTH, MIN_SPACING) == (33.3, 5.0, 2.0)
    assert (H_LEADER, H_FOLLOWER) == (1.1, 0.6)


def test_strategy_enum_round_trip():
    for name in ("HV", "CS", "CTG", "VTG1", "VTG2", "BS"):
        assert str(Strategy(name)) == name


def test_vtg1_params_feasibility():
    # the base gap must absorb an actuation lag eta even at the closest approach
    eta = 0.3  # s
    bound = 2.0 * eta - min(VTG1_MU, (VEHICLE_LENGTH + MIN_SPACING) / V_FREE)
    assert VTG1_C1 > bound
    assert not 0.2 > bound  # a base gap of 0.2 s would violate it


def test_desired_spacing_examples():
    assert float(desired_spacing(Strategy.CTG, 20.0, h=1.1)) == pytest.approx(
        24.0, abs=1e-12)
    assert float(desired_spacing(Strategy.CTG, 20.0, h=0.6)) == pytest.approx(
        14.0, abs=1e-12)
    assert float(desired_spacing(Strategy.VTG1, 20.0)) == pytest.approx(
        14.0, abs=1e-12)
    assert float(desired_spacing(Strategy.VTG2, 0.0)) == pytest.approx(
        2.0, abs=1e-12)
    assert float(desired_spacing(Strategy.CS, 25.0)) == pytest.approx(
        2.0, abs=1e-12)
    # 2 * 8.83 = 17.66, so at v = 17.66 the exponent is exactly 1
    assert float(desired_spacing(Strategy.VTG2, 17.66)) == pytest.approx(
        7.0 * math.e - 5.0, abs=1e-12)


def test_desired_spacing_vector_input():
    v = np.array([0.0, 10.0, 20.0])
    out = desired_spacing(Strategy.CTG, v, h=0.6)
    assert np.allclose(out, [2.0, 8.0, 14.0], atol=1e-12)
    out = desired_spacing(Strategy.VTG1, v, v_pred=v + 1.0)
    assert out.shape == (3,)
    with pytest.raises(ValueError):
        desired_spacing(Strategy.HV, 10.0)


def test_vtg1_spacing_decreases_with_faster_predecessor():
    v = 15.0
    gaps = [float(desired_spacing(Strategy.VTG1, v, v_pred=vp))
            for vp in (13.0, 14.0, 15.0, 16.0, 17.0)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_cs_equilibrium_is_zero():
    for v in (0.0, 15.0, 33.3):
        ctx = equilibrium_context(Strategy.CS, v)
        assert float(cs_accel(ctx)) == 0.0


def test_cs_faster_predecessor():
    # Directly behind the platoon leader (one hop), leader 1 m/s faster,
    # every spacing error zero: both speed gains fire.
    ctx = ControlContext(v=15.0, gap=2.0, v_pred=16.0, a_pred=0.0,
                         leader_dx=7.0, v_leader=16.0, a_leader=0.0,
                         leader_hops=1)
    assert float(cs_accel(ctx)) == pytest.approx(1.19 / 1.9, abs=1e-15)
    assert float(cs_accel(ctx)) == pytest.approx(0.6263157894736842,
                                                 abs=1e-15)
    # A faster predecessor deeper in the platoon only moves the pair term.
    ctx = ControlContext(v=15.0, gap=2.0, v_pred=16.0, a_pred=0.0,
                         leader_dx=14.0, v_leader=15.0, a_leader=0.0,
                         leader_hops=2)
    assert float(cs_accel(ctx)) == pytest.approx(0.5 / 1.9, abs=1e-15)


def test_cs_braking_leader_passes_through():
    # Leader and predecessor both at -1 with zero spacing errors: the
    # law reproduces the braking exactly.
    ctx = ControlContext(v=15.0, gap=2.0, v_pred=15.0, a_pred=-1.0,
                         leader_dx=14.0, v_leader=15.0, a_leader=-1.0,
                         leader_hops=2)
    assert float(cs_accel(ctx)) == -1.0


def test_cs_requires_leader_reference():
    ctx = ControlContext(v=15.0, gap=2.0, v_pred=15.0, a_pred=0.0)
    with pytest.raises(ValueError):
        cs_accel(ctx)
    ctx = ControlContext(v=15.0, gap=2.0, v_pred=15.0, a_pred=0.0,
                         leader_dx=7.0, v_leader=15.0, a_leader=0.0)
    with pytest.raises(ValueError):
        cs_accel(ctx)  # hops still missing


def test_cs_matches_reference_on_random_inputs():
    rng = random.Random(3)
    for _ in range(200):
        v = rng.uniform(0.0, 33.3)
        ctx = ControlContext(
            v=v, gap=rng.uniform(0.0, 60.0),
            v_pred=rng.uniform(0.0, 33.3), a_pred=rng.uniform(-5.0, 1.0),
            leader_dx=rng.uniform(5.0, 300.0),
            v_leader=rng.uniform(0.0, 33.3),
            a_leader=rng.uniform(-5.0, 1.0),
            leader_hops=rng.randint(1, 4))
        expected = cs_reference(ctx.v, ctx.gap, ctx.v_pred, ctx.a_pred,
                                ctx.leader_dx, ctx.v_leader, ctx.a_leader,
                                ctx.leader_hops)
        got = float(cs_accel(ctx))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_ctg_pinned_outputs():
    ctx = ControlContext(v=10.0, gap=10.0, v_pred=10.0, a_pred=0.0)
    # gap error is +2 m against the 0.6 s policy
    assert float(ctg_accel(ctx, h=0.6)) == pytest.approx(0.2, abs=1e-12)
    ctx = ControlContext(v=10.0, gap=9.0, v_pred=10.5, a_pred=0.5)
    assert float(ctg_accel(ctx, h=0.6)) == pytest.approx(0.94, abs=1e-12)
    ctx = ControlContext(v=10.0, gap=14.0, v_pred=10.0, a_pred=0.0)
    assert float(ctg_accel(ctx, h=1.1)) == pytest.approx(0.1, abs=1e-12)


def test_vtg1_pinned_outputs():
    ctx = ControlContext(v=10.0, gap=8.0, v_pred=11.0, a_pred=0.0)
    # spacing error 0.1 from the speed-ratio term, plus the speed gain
    assert float(vtg1_accel(ctx)) == pytest.approx(0.99, abs=1e-12)
    ctx = ControlContext(v=10.0, gap=8.0, v_pred=11.0, a_pred=1.0)
    assert float(vtg1_accel(ctx)) == pytest.approx(1.69, abs=1e-12)


def test_vtg1_speed_floor_guard():
    # Below the floor the speed-ratio term is dropped entirely.
    ctx = ControlContext(v=0.05, gap=5.0, v_pred=3.0, a_pred=0.0)
    expected = 0.1 * (5.0 - 0.6 * 0.05 - 2.0) + 0.98 * 2.95
    assert float(vtg1_accel(ctx)) == pytest.approx(expected, abs=1e-12)
    assert math.isfinite(float(vtg1_accel(ctx)))
    # At the floor itself the term is back on.
    ctx = ControlContext(v=SPEED_FLOOR, gap=5.0, v_pred=3.0, a_pred=0.0)
    expected = 0.1 * (5.0 - 0.6 * 0.1 + 0.1 * 2.9 - 2.0) + 0.98 * 2.9
    assert float(vtg1_accel(ctx)) == pytest.approx(expected, abs=1e-12)


def test_vtg2_pinned_outputs():
    ctx = ControlContext(v=0.0, gap=2.0, v_pred=0.0, a_pred=0.0)
    assert float(vtg2_accel(ctx)) == 0.0
    ctx = ControlContext(v=17.66, gap=7.0 * math.e - 5.0, v_pred=17.66,
                         a_pred=0.0)
    assert float(vtg2_accel(ctx)) == pytest.approx(0.0, abs=1e-12)
    ctx = ControlContext(v=0.0, gap=3.0, v_pred=0.0, a_pred=0.0)
    assert float(vtg2_accel(ctx)) == pytest.approx(0.1, abs=1e-12)


def test_vtg2_time_headway_has_single_interior_minimum():
    v = np.arange(0.05, 33.301, 0.05)
    headway = desired_spacing(Strategy.VTG2, v) / v
    d = np.diff(headway)
    signs = np.sign(d)
    flips = np.nonzero(signs[1:] != signs[:-1])[0]
    assert len(flips) == 1
    assert signs[0] < 0 and signs[-1] > 0
    k = int(np.argmin(headway))
    assert 0 < k < len(v) - 1


def test_equilibrium_null_at_verified_speeds():
    # At the policy spacing with everyone at the same speed the linear
    # laws return exactly zero at these hand-checked speeds; arbitrary
    # speeds can leave a one-ulp residue from the spacing-sum rounding.
    strategies = (Strategy.CS, Strategy.CTG, Strategy.VTG1, Strategy.VTG2)
    for v in (15.0, 7.3, 20.0, 1.0, 29.97, 12.34567):
        for strategy in strategies:
            ctx = equilibrium_context(strategy, v)
            assert raw_accel(strategy, ctx) == 0.0, (strategy, v)


def test_equilibrium_null_bounded_everywhere():
    rng = random.Random(41)
    strategies = (Strategy.CS, Strategy.CTG, Strategy.VTG1, Strategy.VTG2)
    for _ in range(500):
        v = rng.uniform(0.15, 33.3)
        for strategy in strategies:
            ctx = equilibrium_context(strategy, v)
            assert abs(raw_accel(strategy, ctx)) <= 1e-15, (strategy, v)


def test_linear_laws_superpose():
    # Output increments from input increments do not depend on the base
    # point for the laws that are affine in every input.
    rng = random.Random(57)

    def slope(strategy, base, field, delta, h=0.6):
        bumped = {**base, field: base[field] + delta}
        return (raw_accel(strategy, ControlContext(**bumped), h=h)
                - raw_accel(strategy, ControlContext(**base), h=h)) / delta

    for strategy in (Strategy.CTG, Strategy.VTG1):
        for field in ("v", "gap", "v_pred", "a_pred"):
            slopes = []
            for _ in range(2):
                base = dict(v=rng.uniform(1.0, 30.0),
                            gap=rng.uniform(2.0, 60.0),
                            v_pred=rng.uniform(1.0, 30.0),
                            a_pred=rng.uniform(-2.0, 1.0))
                slopes.append(slope(strategy, base, field, 0.37))
            assert slopes[0] == pytest.approx(slopes[1], abs=1e-9), (
                strategy, field)

    for field in ("v", "gap", "v_pred", "a_pred", "leader_dx", "v_leader",
                  "a_leader"):
        slopes = []
        for _ in range(2):
            base = dict(v=rng.uniform(1.0, 30.0), gap=rng.uniform(2.0, 60.0),
                        v_pred=rng.uniform(1.0, 30.0),
                        a_pred=rng.uniform(-2.0, 1.0),
                        leader_dx=rng.uniform(10.0, 200.0),
                        v_leader=rng.uniform(1.0, 30.0),
                        a_leader=rng.uniform(-2.0, 1.0), leader_hops=2)
            slopes.append(slope(Strategy.CS, base, field, 0.37))
        assert slopes[0] == pytest.approx(slopes[1], abs=1e-9), field


def test_vtg2_affine_except_in_speed():
    rng = random.Random(59)

    def slope(base, field):
        bumped = {**base, field: base[field] + 0.5}
        return (float(vtg2_accel(ControlContext(**bumped)))
                - float(vtg2_accel(ControlContext(**base)))) / 0.5

    bases = []
    for _ in range(2):
        bases.append(dict(v=rng.uniform(1.0, 30.0),
                          gap=rng.uniform(2.0, 60.0),
                          v_pred=rng.uniform(1.0, 30.0),
                          a_pred=rng.uniform(-2.0, 1.0)))
    for field in ("gap", "v_pred", "a_pred"):
        assert slope(bases[0], field) == pytest.approx(
            slope(bases[1], field), abs=1e-9)
    # the exponential desired gap makes the speed response state-dependent
    assert abs(slope(bases[0], "v") - slope(bases[1], "v")) > 1e-3


def test_bdbm_free_road():
    ctx = ControlContext(v=0.0, gap=1e6, v_pred=0.0, a_pred=0.0)
    assert float(bdbm_accel(ctx)) == pytest.approx(1.0, abs=1e-9)
    ctx = ControlContext(v=33.3, gap=1e6, v_pred=33.3, a_pred=0.0)
    a = float(bdbm_accel(ctx))
    assert a <= 0.0
    assert abs(a) < 1e-6


def test_bdbm_brakes_for_stopped_predecessor():
    ctx = ControlContext(v=10.0, gap=12.0, v_pred=0.0, a_pred=0.0)
    assert float(hv_accel(ctx)) < -5.0  # raw output, engine clamps later


def test_bdbm_crash_guard_keeps_output_finite():
    ctx = ControlContext(v=5.0, gap=0.0, v_pred=5.0, a_pred=0.0)
    assert math.isfinite(float(bdbm_accel(ctx)))
    assert float(bdbm_accel(ctx)) < -100.0


def test_hv_is_bdbm_without_rear_coupling():
    rng = random.Random(61)
    for _ in range(1000):
        ctx = ControlContext(v=rng.uniform(0.0, 33.3),
                             gap=rng.uniform(0.1, 120.0),
                             v_pred=rng.uniform(0.0, 33.3), a_pred=0.0,
                             follower_gap=rng.uniform(0.1, 120.0))
        assert float(hv_accel(ctx)) == float(bdbm_accel(ctx, lam=0.0))


def test_hv_matches_idm_reference():
    rng = random.Random(67)
    for _ in range(500):
        v = rng.uniform(0.0, 33.2)
        gap = rng.uniform(0.1, 120.0)
        v_pred = rng.uniform(0.0, 33.2)
        ctx = ControlContext(v=v, gap=gap, v_pred=v_pred, a_pred=0.0)
        assert float(hv_accel(ctx)) == pytest.approx(
            idm_reference(v, gap, v_pred), rel=1e-12, abs=1e-12)


def test_hv_equilibrium_balance():
    for v in (5.0, 15.0, 25.0):
        gap = equilibrium_gap(Strategy.HV, v)
        ctx = ControlContext(v=v, gap=gap, v_pred=v, a_pred=0.0)
        assert abs(float(hv_accel(ctx))) <= 1e-12


def test_bdbm_rear_coupling_monotone():
    # A follower hanging back (rear gap larger than front) grows the
    # desired spacing, so acceleration falls as the weight increases.
    ctx_args = dict(v=15.0, gap=40.0, v_pred=15.0, a_pred=0.0,
                    follower_gap=45.0)
    outs = [float(bdbm_accel(ControlContext(**ctx_args), lam=lam))
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(a > b for a, b in zip(outs, outs[1:]))
    # balanced rear gap makes the weight irrelevant
    ctx = ControlContext(v=15.0, gap=40.0, v_pred=15.0, a_pred=0.0,
                         follower_gap=40.0)
    assert float(bdbm_accel(ctx, lam=0.9)) == pytest.approx(
        float(bdbm_accel(ctx, lam=0.0)), abs=1e-12)


def test_all_laws_finite_on_random_inputs():
    rng = random.Random(71)
    for _ in range(2000):
        ctx = ControlContext(
            v=rng.uniform(0.0, 33.3), gap=rng.uniform(0.0, 1000.0),
            v_pred=rng.uniform(0.0, 33.3), a_pred=rng.uniform(-5.0, 1.0),
            leader_dx=rng.uniform(0.0, 1000.0),
            v_leader=rng.uniform(0.0, 33.3),
            a_leader=rng.uniform(-5.0, 1.0),
            leader_hops=rng.randint(1, 4),
            follower_gap=rng.uniform(0.0, 1000.0))
        for strategy in Strategy:
            assert math.isfinite(raw_accel(strategy, ctx)), strategy


def test_equilibrium_gap_values():
    assert equilibrium_gap(Strategy.CTG, 15.0, h=0.6) == pytest.approx(
        11.0, abs=1e-12)
    assert equilibrium_gap(Strategy.CTG, 15.0, h=1.1) == pytest.approx(
        18.5, abs=1e-12)
    assert equilibrium_gap(Strategy.VTG1, 20.0) == pytest.approx(
        14.0, abs=1e-12)
    assert equilibrium_gap(Strategy.VTG2, 15.0) == pytest.approx(
        11.367329961626595, abs=1e-12)
    assert equilibrium_gap(Strategy.CS, 20.0) == pytest.approx(2.0, abs=1e-12)
    assert equilibrium_gap(Strategy.HV, 15.0) == pytest.approx(
        40.33912224940535, abs=1e-9)


def test_equilibrium_gap_solves_bdbm_balance():
    # Root-find the balance gap directly and compare to the closed form.
    for v in (2.0, 10.0, 20.0, 30.0):
        def residual(gap):
            ctx = ControlContext(v=v, gap=gap, v_pred=v, a_pred=0.0,
                                 follower_gap=gap)
            return float(bdbm_accel(ctx))

        root = brentq(residual, 0.5, 1e5, xtol=1e-12)
        assert equilibrium_gap(Strategy.BS, v) == pytest.approx(
            root, rel=1e-9)


def test_equilibrium_gap_rejects_free_speed():
    with pytest.raises(ValueError):
        equilibrium_gap(Strategy.HV, 33.3)
    with pytest.raises(ValueError):
        equilibrium_gap(Strategy.BS, 40.0)
    with pytest.raises(ValueError):
        equilibrium_gap(Strategy.HV, -1.0)
