"""Fuel and emission post-processing."""

import itertools
import math
import warnings

import numpy as np
import pytest
from conftest import reduce_log

from platoonflow.energy import (BRAKE_SPLIT, METRICS, POLLUTANTS, emission_rate,
                                equilibrium_curves, nfr, sample_rates, vsp)
from platoonflow.ring import TrajectoryLog

# transcription of the cruise/mild-braking emission row used below
CO2_ROW = (5.53e-01, 1.61e-01, -2.89e-03, 2.66e-01, 5.11e-01, 1.83e-01)
NOX_ROW = (6.19e-04, 8.00e-05, -4.03e-06, -4.13e-04, 3.80e-04, 1.77e-04)


def poly_reference(v, a, f):
    raw = (f[0] + f[1] * v + f[2] * v ** 2 + f[3] * a + f[4] * a ** 2
           + f[5] * v * a)
    return max(0.0, raw)


def make_log(v, a):
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    m, n = v.shape
    return TrajectoryLog(times=np.arange(m, dtype=float),
                         x=np.zeros((m, n)), v=v, a=a, violations=[])


def test_vsp_examples():
    assert float(vsp(0.0, 0.0)) == 0.0
    assert float(vsp(0.0, -3.0)) == 0.0
    assert float(vsp(10.0, 0.0)) == pytest.approx(1.622, abs=1e-12)
    assert float(vsp(10.0, -1.0)) == pytest.approx(-9.378, abs=1e-12)
    assert float(vsp(20.0, 0.0)) == pytest.approx(5.056, abs=1e-12)
    out = vsp(np.array([0.0, 10.0]), np.array([0.0, 0.0]))
    assert out.shape == (2,)


def test_nfr_regimes():
    assert float(nfr(-5.0)) == 1.0
    assert float(nfr(-0.001)) == 1.0
    assert float(nfr(0.0)) == 0.0
    assert float(nfr(1.0)) == pytest.approx(1.71, abs=1e-12)
    assert float(nfr(1.622)) == pytest.approx(2.0951613181342945, abs=1e-12)
    assert 0.0 < float(nfr(1e-9)) < 0.1


def test_nfr_bits_on_finite_powers_and_nan_through():
    power = np.array([-1e3, -5.0, -1e-300, -0.0, 0.0, 5e-324, 1e-300, 1e-9,
                      0.3, 1.0, 1.622, 40.0, 1e300])
    # the formula before NaN went through: burning above 0, 1 below, else 0
    burning = 1.71 * np.power(np.maximum(power, 0.0), 0.42)
    before = np.where(power > 0.0, burning, np.where(power < 0.0, 1.0, 0.0))
    assert np.array_equal(nfr(power).view(np.int64), before.view(np.int64))
    assert np.isnan(nfr(math.nan))
    assert np.array_equal(np.isnan(nfr([1.0, math.nan, -1.0])), [False, True, False])


def test_nfr_monotone_when_burning():
    grid = np.linspace(0.01, 40.0, 500)
    vals = nfr(grid)
    assert np.all(np.diff(vals) > 0.0)


# VSP at which the burning branch meets the idle rate: 1.71 * VSP^0.42 == 1
NFR_IDLE_CROSSOVER = (1.0 / 1.71) ** (1.0 / 0.42)  # W/kg


def test_nfr_crosses_idle_at_0_279_w_per_kg():
    assert NFR_IDLE_CROSSOVER == pytest.approx(0.27877, abs=5e-6)
    assert float(nfr(NFR_IDLE_CROSSOVER)) == pytest.approx(1.0, abs=1e-15)
    # positive power below the crossover burns less than idle, above it more
    below = np.linspace(1e-6, NFR_IDLE_CROSSOVER * (1.0 - 1e-9), 200)
    assert np.all(nfr(below) < 1.0)
    assert float(nfr(NFR_IDLE_CROSSOVER * (1.0 + 1e-9))) > 1.0
    # braking idles at 1, zero power of either sign burns 0, not idle
    assert float(nfr(-1e-12)) == 1.0
    assert float(nfr(-0.0)) == 0.0 and float(nfr(0.0)) == 0.0
    assert 0.0 < float(nfr(1e-12)) < 1e-4


def test_steady_cruise_below_2_091_mps_burns_less_than_idle():
    slow = np.linspace(1e-3, 2.0909, 300)
    assert np.all(nfr(vsp(slow, 0.0)) < 1.0)
    assert float(nfr(vsp(2.091, 0.0))) > 1.0
    assert float(nfr(vsp(0.0, 0.0))) == 0.0  # standing still burns nothing


def test_nfr_concave_on_positive_power():
    # Jensen: at one mean power, a spread of powers burns less than holding it
    low, high = 0.1, 4.0
    assert float(nfr((low + high) / 2)) == pytest.approx(2.3117067017, abs=1e-9)
    assert (float(nfr(low)) + float(nfr(high))) / 2 == pytest.approx(1.8555548051, abs=1e-9)
    grid = np.linspace(0.01, 40.0, 500)
    assert np.all(np.diff(nfr(grid), 2) < 0.0)


def test_emission_rate_pinned_values():
    assert float(emission_rate(20.0, 0.0, "co2")) == pytest.approx(
        2.617, abs=1e-12)
    # strong braking collapses the fits to constants
    for v in (0.0, 10.0, 30.0):
        assert float(emission_rate(v, -1.0, "nox")) == pytest.approx(
            2.17e-4, abs=1e-15)
        assert float(emission_rate(v, -1.0, "voc")) == pytest.approx(
            2.63e-3, abs=1e-15)
    assert float(emission_rate(0.0, 0.0, "pm")) == 0.0
    with pytest.raises(ValueError):
        emission_rate(10.0, 0.0, "ch4")


def test_emission_rate_matches_reference_rows():
    for v in (0.0, 5.0, 15.0, 25.0, 33.3):
        for a in (-0.5, -0.2, 0.0, 0.7):
            assert float(emission_rate(v, a, "co2")) == pytest.approx(
                poly_reference(v, a, CO2_ROW), rel=1e-12, abs=1e-15)
            assert float(emission_rate(v, a, "nox")) == pytest.approx(
                poly_reference(v, a, NOX_ROW), rel=1e-12, abs=1e-15)


def test_braking_regime_boundary_is_closed_above():
    # exactly -0.5 still uses the cruise fit; just below switches
    v = 10.0
    assert float(emission_rate(v, BRAKE_SPLIT, "nox")) == pytest.approx(
        poly_reference(v, BRAKE_SPLIT, NOX_ROW), rel=1e-12)
    assert float(emission_rate(v, BRAKE_SPLIT - 1e-9, "nox")) == (
        pytest.approx(2.17e-4, abs=1e-15))


def reference_rates(v, a):
    """``sample_rates`` as first written: every row on every sample, then
    picked by np.where, with the coefficient table transcribed."""
    rows = {
        "co2": ((5.53e-01, 1.61e-01, -2.89e-03, 2.66e-01, 5.11e-01, 1.83e-01),) * 2,
        "nox": ((6.19e-04, 8.00e-05, -4.03e-06, -4.13e-04, 3.80e-04, 1.77e-04),
                (2.17e-04, 0.0, 0.0, 0.0, 0.0, 0.0)),
        "voc": ((4.47e-03, 7.32e-07, -2.87e-08, -3.41e-06, 4.94e-06, 1.66e-06),
                (2.63e-03, 0.0, 0.0, 0.0, 0.0, 0.0)),
        "pm": ((0.0, 1.57e-05, -9.21e-07, 0.0, 3.75e-05, 1.89e-05),) * 2,
    }

    def poly(f):
        return f[0] + f[1] * v + f[2] * v ** 2 + f[3] * a + f[4] * a ** 2 + f[5] * v * a

    v, a = np.broadcast_arrays(np.ravel(v).astype(float), np.ravel(a).astype(float))
    power = v * (1.1 * a + 0.132) + 0.000302 * v ** 3
    burning = 1.71 * np.power(np.maximum(power, 0.0), 0.42)
    rates = [np.where(power < 0.0, 1.0, np.where(power == 0.0, 0.0, burning)), v]
    for pol in POLLUTANTS:
        upper, lower = rows[pol]
        rates.append(np.maximum(np.where(a >= -0.5, poly(upper), poly(lower)), 0.0))
    return rates


def test_sample_rates_bits_match_the_reference_formulas():
    # NaN, inf and overflow in v or in a, with the other finite: where a
    # NaN from one met the opposite-signed NaN that inf * 0 makes from the
    # other, numpy's loops would keep one or the other by the element's
    # position, so the bits of such a pair belong to no formula
    rng = np.random.default_rng(30)
    usual_v = [0.0, -0.0, 5e-324, -1.0, 40.0]
    usual_a = [0.0, -0.0, BRAKE_SPLIT, np.nextafter(BRAKE_SPLIT, 0.0),
               np.nextafter(BRAKE_SPLIT, -1.0), -6.0, 2.0]
    edges = [math.nan, math.inf, -math.inf, 1e300]
    pairs = [*itertools.product(usual_v, usual_a + edges), *itertools.product(edges, usual_a)]
    v = np.concatenate([rng.uniform(-1.0, 40.0, 20_000), [v for v, _ in pairs]])
    a = np.concatenate([rng.uniform(-6.0, 2.0, 20_000), [a for _, a in pairs]])
    cases = [(v, a), (v[:20_000].reshape(4, -1), a[:20_000].reshape(4, -1)),
             (v[:20_000], np.float64(0.0)), (v[:20_000], -1.0), (-0.0, a[:20_000]),
             (math.nan, 1.0), (20.0, BRAKE_SPLIT)]
    for v_case, a_case in cases:
        with np.errstate(all="ignore"):  # the edges overflow on both sides
            got = list(sample_rates(v_case, a_case))
            want = reference_rates(v_case, a_case)
        assert len(got) == len(want) == 6
        for g, w in zip(got, want):
            g = np.broadcast_to(g, w.shape)
            assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_emission_rates_never_negative():
    rng = np.random.default_rng(12)
    v = rng.uniform(0.0, 33.3, size=500)
    a = rng.uniform(-5.0, 1.0, size=500)
    for pol in POLLUTANTS:
        assert np.all(emission_rate(v, a, pol) >= 0.0)


def test_fleet_fuel_constant_cruise():
    log = make_log(np.full((50, 4), 20.0), np.zeros((50, 4)))
    out = reduce_log(log)
    assert out["mean_speed_mps"] == pytest.approx(20.0, abs=1e-12)
    assert out["mean_nfr"] == pytest.approx(3.3774978233271393, abs=1e-12)
    assert out["nff_g_per_km"] == pytest.approx(168.87489116635697, abs=1e-12)


def test_fleet_fuel_constant_braking():
    # negative power pins the rate at 1, so per-km fuel is 3600 / (km/h)
    log = make_log(np.full((10, 3), 10.0), np.full((10, 3), -1.0))
    out = reduce_log(log)
    assert out["mean_nfr"] == pytest.approx(1.0, abs=1e-15)
    assert out["nff_g_per_km"] == pytest.approx(100.0, abs=1e-12)


def test_fleet_fuel_stalled_and_empty():
    log = make_log(np.zeros((5, 2)), np.zeros((5, 2)))
    out = reduce_log(log)
    assert out["mean_speed_mps"] == 0.0
    assert math.isnan(out["nff_g_per_km"])
    assert out["mean_nfr"] == 0.0
    with pytest.raises(ValueError):
        reduce_log(make_log(np.zeros((0, 2)), np.zeros((0, 2))))


def test_fleet_fuel_invariant_to_duplicated_samples():
    rng = np.random.default_rng(3)
    v = rng.uniform(1.0, 33.0, size=(40, 6))
    a = rng.uniform(-3.0, 1.0, size=(40, 6))
    one = reduce_log(make_log(v, a))
    two = reduce_log(make_log(np.vstack([v, v]), np.vstack([a, a])))
    assert two["nff_g_per_km"] == pytest.approx(one["nff_g_per_km"], rel=1e-12)
    assert two["mean_nfr"] == pytest.approx(one["mean_nfr"], rel=1e-12)


def test_fleet_emissions_cruise_30():
    log = make_log(np.full((20, 5), 30.0), np.zeros((20, 5)))
    out = reduce_log(log)
    assert tuple(out) == METRICS
    assert out["nox_g_per_km"] == 0.0   # cruise fit goes negative above 25 m/s
    assert out["pm_g_per_km"] == 0.0    # same above ~17 m/s
    assert out["co2_g_per_km"] == pytest.approx(
        1000.0 * poly_reference(30.0, 0.0, CO2_ROW) / 30.0, rel=1e-12)
    assert out["voc_g_per_km"] > 0.0


def test_fleet_emissions_stalled_is_nan():
    out = reduce_log(make_log(np.zeros((5, 2)), np.zeros((5, 2))))
    assert all(math.isnan(out[f"{pol}_g_per_km"]) for pol in POLLUTANTS)
    with pytest.raises(ValueError):
        reduce_log(make_log(np.zeros((0, 2)), np.zeros((0, 2))))


def test_equilibrium_curves_grid():
    grid = np.arange(1.0, 33.31, 1.0)
    rows = equilibrium_curves(grid)
    assert len(rows) == len(grid)
    by_v = {row["v_mps"]: row for row in rows}

    # per-km fuel falls with cruise speed through the urban range
    nff = [by_v[v]["nff_g_per_km"] for v in np.arange(2.0, 20.1, 1.0)]
    assert all(a > b for a, b in zip(nff, nff[1:]))
    co2 = [row["co2_g_per_km"] for row in rows]
    assert all(a > b for a, b in zip(co2, co2[1:]))
    for v, row in by_v.items():
        if v >= 26.0:
            assert row["nox_g_per_km"] == 0.0
        if v >= 18.0:
            assert row["pm_g_per_km"] == 0.0
        assert row["nff_g_per_km"] == pytest.approx(
            1000.0 * row["nfr"] / v, rel=1e-12)

    assert by_v[25.0]["nox_g_per_km"] > 0.0
    assert by_v[17.0]["pm_g_per_km"] > 0.0


def test_equilibrium_curves_rejects_bad_grids():
    with pytest.raises(ValueError):
        equilibrium_curves([])
    with pytest.raises(ValueError):
        equilibrium_curves([0.0, 10.0])
    with pytest.raises(ValueError):
        equilibrium_curves([-5.0])
    # V_FREE caps every speed, up to a rounding
    with pytest.raises(ValueError, match="must not exceed V_FREE = 33.3 m/s, got 1000.0"):
        equilibrium_curves([10.0, 1000.0])
    assert [r["v_mps"] for r in equilibrium_curves([0.1 * 333])] == [33.300000000000004]
    for bad in (math.nan, math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"finite speeds, got {bad!r}"):
                equilibrium_curves([10.0, bad])
