"""Linearization, transfer magnitude, and the scalar stability margin."""

import random

import numpy as np
import pytest

from platoonflow.controllers import (H_FOLLOWER, H_LEADER, ControlContext,
                                     Strategy, ctg_accel, equilibrium_gap,
                                     vtg1_accel, vtg2_accel)
from platoonflow.stability import (CS_CAVEAT, EquilibriumPartials,
                                   equilibrium_partials, stability_margin,
                                   stability_region, string_stable,
                                   transfer_magnitude)


def law_output(strategy, v, gap, v_pred, a_pred, h):
    ctx = ControlContext(v=v, gap=gap, v_pred=v_pred, a_pred=a_pred)
    if strategy is Strategy.CTG:
        return float(ctg_accel(ctx, h=h))
    if strategy is Strategy.VTG1:
        return float(vtg1_accel(ctx))
    return float(vtg2_accel(ctx))


def finite_difference_partials(strategy, v_e, h=H_FOLLOWER, eps=1e-5):
    # Central differences in the linearization coordinates: bumping the
    # own speed moves the predecessor along with it so the speed
    # difference stays fixed, and vice versa.
    gap_e = float(equilibrium_gap(strategy, v_e, h=h))

    def f(dv_own, dgap, ddv, dap):
        v = v_e + dv_own
        return law_output(strategy, v, gap_e + dgap, v + ddv, dap, h)

    g_v = (f(eps, 0, 0, 0) - f(-eps, 0, 0, 0)) / (2 * eps)
    g_dx = (f(0, eps, 0, 0) - f(0, -eps, 0, 0)) / (2 * eps)
    g_dv = (f(0, 0, eps, 0) - f(0, 0, -eps, 0)) / (2 * eps)
    k = (f(0, 0, 0, eps) - f(0, 0, 0, -eps)) / (2 * eps)
    return g_v, g_dx, g_dv, k


CASES = (
    (Strategy.CTG, {"h": H_FOLLOWER}),
    (Strategy.CTG, {"h": H_LEADER}),
    (Strategy.VTG1, {}),
    (Strategy.VTG2, {}),
)


def test_partials_match_finite_differences():
    rng = random.Random(5)
    speeds = [rng.uniform(1.0, 33.0) for _ in range(10)]
    for strategy, kwargs in CASES:
        h = kwargs.get("h", H_FOLLOWER)
        for v_e in speeds:
            got = equilibrium_partials(strategy, v_e, **kwargs)
            ref = finite_difference_partials(strategy, v_e, h=h)
            for name, a, b in zip("g_v g_dx g_dv k".split(),
                                  (got.g_v, got.g_dx, got.g_dv, got.k), ref):
                assert a == pytest.approx(b, rel=1e-6, abs=1e-9), (
                    strategy, name, v_e)


def test_partials_pinned_values():
    p = equilibrium_partials(Strategy.CTG, 15.0, h=0.6)
    assert (p.g_v, p.g_dx, p.g_dv, p.k) == pytest.approx(
        (-0.06, 0.1, 0.98, 0.7), abs=1e-12)
    assert p.caveat is None

    p = equilibrium_partials(Strategy.VTG1, 15.0)
    assert (p.g_v, p.g_dx, p.g_dv, p.k) == pytest.approx(
        (-0.06, 0.1, 0.99, 0.7), abs=1e-12)

    p = equilibrium_partials(Strategy.VTG2, 15.0)
    expected_gv = -0.1 * (7.0 / 17.66) * np.exp(15.0 / 17.66)
    assert p.g_v == pytest.approx(expected_gv, rel=1e-12)
    assert (p.g_dx, p.g_dv, p.k) == pytest.approx((0.1, 0.98, 0.7),
                                                  abs=1e-12)


def test_partials_sign_conventions():
    rng = random.Random(9)
    for strategy, kwargs in CASES:
        for _ in range(5):
            p = equilibrium_partials(strategy, rng.uniform(0.0, 33.0),
                                     **kwargs)
            assert p.g_dx > 0.0
            assert p.g_v < 0.0
            assert p.g_dv > 0.0
            assert 0.0 <= p.k <= 1.0


def test_partials_rejects_nonlinear_laws():
    with pytest.raises(ValueError):
        equilibrium_partials(Strategy.BS, 15.0)
    with pytest.raises(ValueError):
        equilibrium_partials(Strategy.HV, 15.0)


def test_cs_partials_predecessor_terms_only():
    p = equilibrium_partials(Strategy.CS, 15.0)
    assert p.g_v == 0.0
    assert p.g_dx == pytest.approx(0.04 / 1.9, abs=1e-15)
    assert p.g_dv == pytest.approx(0.5 / 1.9, abs=1e-15)
    assert p.k == pytest.approx(1.0 / 1.9, abs=1e-15)
    assert p.caveat == CS_CAVEAT
    res = string_stable(p)
    assert res["margin"] == pytest.approx(-0.01994459833795014, abs=1e-15)
    assert not res["stable"]
    assert res["k_in_range"]
    assert res["caveat"] == CS_CAVEAT


def test_transfer_magnitude_limits():
    for strategy, kwargs in CASES:
        p = equilibrium_partials(strategy, 15.0, **kwargs)
        assert float(transfer_magnitude(p, 0.0)) == 1.0
        assert float(transfer_magnitude(p, 1e6)) == pytest.approx(
            p.k, rel=1e-4)


def test_transfer_magnitude_vectorized():
    p = equilibrium_partials(Strategy.CTG, 15.0, h=0.6)
    omega = np.logspace(-4, 2, 1000)
    mags = transfer_magnitude(p, omega)
    assert mags.shape == omega.shape
    assert np.all(np.isfinite(mags))


def test_margin_pinned_values():
    assert stability_margin(equilibrium_partials(
        Strategy.VTG1, 15.0)) == pytest.approx(0.0624, abs=1e-12)
    assert stability_margin(equilibrium_partials(
        Strategy.CTG, 15.0, h=0.6)) == pytest.approx(0.0612, abs=1e-12)
    assert stability_margin(equilibrium_partials(
        Strategy.CTG, 15.0, h=1.1)) == pytest.approx(0.16770000000000002,
                                                     abs=1e-12)


def test_stable_laws_never_amplify_on_dense_grid():
    omega = np.arange(1e-3, 100.0, 1e-3)
    for strategy, kwargs in CASES:
        p = equilibrium_partials(strategy, 15.0, **kwargs)
        res = string_stable(p)
        assert res["stable"]
        assert float(np.max(transfer_magnitude(p, omega))) <= 1.0 + 1e-9


def test_unstable_law_amplifies_somewhere():
    p = equilibrium_partials(Strategy.CS, 15.0)
    omega = np.logspace(-4, 2, 100000)
    assert float(np.max(transfer_magnitude(p, omega))) > 1.0


def test_margin_sign_agrees_with_grid_maximum():
    # The scalar margin and a brute-force frequency sweep must agree on
    # which side of 1 the peak magnitude falls.
    omega = np.logspace(-4, 2, 100000)
    rng = random.Random(21)
    for strategy, kwargs in CASES:
        for _ in range(5):
            v_e = rng.uniform(0.0, 33.0)
            p = equilibrium_partials(strategy, v_e, **kwargs)
            res = string_stable(p)
            peak = float(np.max(transfer_magnitude(p, omega)))
            if res["stable"]:
                assert peak <= 1.0 + 1e-9, (strategy, v_e)
            else:
                assert peak > 1.0, (strategy, v_e)


def test_feedforward_out_of_range_is_unstable():
    p = EquilibriumPartials(g_v=-0.06, g_dx=0.1, g_dv=0.98, k=1.5, v_e=15.0)
    res = string_stable(p)
    assert not res["k_in_range"]
    assert not res["stable"]
    p = EquilibriumPartials(g_v=-0.06, g_dx=0.1, g_dv=0.98, k=-0.1, v_e=15.0)
    assert not string_stable(p)["stable"]


def test_stability_region_shapes():
    grid = np.arange(0.0, 33.31, 0.1)
    rows = stability_region(Strategy.VTG1, grid)
    assert len(rows) == len(grid)
    assert [r["v_e"] for r in rows] == grid.tolist()
    assert {r["strategy"] for r in rows} == {"VTG1"}
    margins = [r["margin"] for r in rows]
    assert all(m == pytest.approx(0.0624, abs=1e-12) for m in margins)
    assert all(r["stable"] for r in rows)

    rows = stability_region(Strategy.VTG2, grid)
    assert list(rows[0]) == ["strategy", "v_e", "margin", "stable"]
    margins = [r["margin"] for r in rows]
    # the exponential term steepens g_v with speed, which only helps
    assert all(b > a for a, b in zip(margins, margins[1:]))
    assert margins[0] == pytest.approx(0.019260833486176618, abs=1e-12)
    assert all(r["stable"] for r in rows)

    assert stability_region(Strategy.VTG2, []) == []
