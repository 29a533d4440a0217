"""Fuel and emission post-processing."""

import math

import numpy as np
import pytest

from platoonflow.energy import (BRAKE_SPLIT, POLLUTANTS, emission_rate,
                                equilibrium_curves, fleet_emissions,
                                fleet_fuel, nfr, vsp)
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


def test_nfr_monotone_when_burning():
    grid = np.linspace(0.01, 40.0, 500)
    vals = nfr(grid)
    assert np.all(np.diff(vals) > 0.0)


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


def test_emission_rates_never_negative():
    rng = np.random.default_rng(12)
    v = rng.uniform(0.0, 33.3, size=500)
    a = rng.uniform(-5.0, 1.0, size=500)
    for pol in POLLUTANTS:
        assert np.all(emission_rate(v, a, pol) >= 0.0)


def test_fleet_fuel_constant_cruise():
    log = make_log(np.full((50, 4), 20.0), np.zeros((50, 4)))
    out = fleet_fuel(log)
    assert not out.stalled
    assert out.mean_speed == pytest.approx(20.0, abs=1e-12)
    assert out.mean_nfr == pytest.approx(3.3774978233271393, abs=1e-12)
    assert out.nff == pytest.approx(168.87489116635697, abs=1e-12)


def test_fleet_fuel_constant_braking():
    # negative power pins the rate at 1, so per-km fuel is 3600 / (km/h)
    log = make_log(np.full((10, 3), 10.0), np.full((10, 3), -1.0))
    out = fleet_fuel(log)
    assert out.mean_nfr == pytest.approx(1.0, abs=1e-15)
    assert out.nff == pytest.approx(100.0, abs=1e-12)


def test_fleet_fuel_stalled_and_empty():
    log = make_log(np.zeros((5, 2)), np.zeros((5, 2)))
    out = fleet_fuel(log)
    assert out.stalled
    assert math.isnan(out.nff)
    assert out.mean_nfr == 0.0
    with pytest.raises(ValueError):
        fleet_fuel(make_log(np.zeros((0, 2)), np.zeros((0, 2))))


def test_fleet_fuel_invariant_to_duplicated_samples():
    rng = np.random.default_rng(3)
    v = rng.uniform(1.0, 33.0, size=(40, 6))
    a = rng.uniform(-3.0, 1.0, size=(40, 6))
    one = fleet_fuel(make_log(v, a))
    two = fleet_fuel(make_log(np.vstack([v, v]), np.vstack([a, a])))
    assert two.nff == pytest.approx(one.nff, rel=1e-12)
    assert two.mean_nfr == pytest.approx(one.mean_nfr, rel=1e-12)


def test_fleet_emissions_cruise_30():
    log = make_log(np.full((20, 5), 30.0), np.zeros((20, 5)))
    out = fleet_emissions(log)
    assert set(out) == set(POLLUTANTS)
    assert out["nox"] == 0.0   # cruise fit goes negative above 25 m/s
    assert out["pm"] == 0.0    # same above ~17 m/s
    assert out["co2"] == pytest.approx(
        1000.0 * poly_reference(30.0, 0.0, CO2_ROW) / 30.0, rel=1e-12)
    assert out["voc"] > 0.0


def test_fleet_emissions_stalled_is_nan():
    out = fleet_emissions(make_log(np.zeros((5, 2)), np.zeros((5, 2))))
    assert all(math.isnan(val) for val in out.values())
    with pytest.raises(ValueError):
        fleet_emissions(make_log(np.zeros((0, 2)), np.zeros((0, 2))))


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
