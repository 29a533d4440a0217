"""Fuel and emission post-processing of trajectory samples.

Fuel uses vehicle specific power mapped to a normalized fuel rate:
positive power burns 1.71 * VSP^0.42 times the idle rate, negative
power coasts at the idle rate (1), and exactly zero power maps to 0,
the limit of the positive branch. So positive VSP below 0.279 W/kg, as
in a steady cruise below 2.091 m/s, burns less than idle, and the map
is concave: at one mean power a ring that oscillates burns less than
one that holds steady. Both favour crawling and unsteady traffic,
unlike field data, where damping stop-and-go waves lowers fuel.
Per-distance fuel is 3600 * mean rate / mean speed with the speed in
km/h, so the figure reads as grams-equivalent per km. Emission rates
are quadratic fits in speed and acceleration, clipped at zero, with a
separate coefficient row for decelerations below -0.5 m/s^2 where the
fit has one; that row is evaluated only for the pollutants (nox, voc)
whose braking row differs from the cruise row, and only on the samples
that take it.

``sample_rates`` computes every per-sample rate the metrics average
(RATES), and ``summarize`` turns their means into the metric columns
(METRICS), by the names every CSV schema takes from here; the sweep
applies them to many rings' samples, and their means, at once, and
``equilibrium_curves`` to speeds held still, under the curves' own
column names (CURVES).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .controllers import check_speed_cap

POLLUTANTS = ("co2", "nox", "voc", "pm")
# the rates sample_rates yields and the metric columns summarize returns, in order
RATES = ("nfr", "speed_mps", *(f"{pol}_g_per_s" for pol in POLLUTANTS))
PER_KM = ("nff_g_per_km", *(f"{pol}_g_per_km" for pol in POLLUTANTS))
METRICS = ("mean_speed_mps", "mean_nfr", *PER_KM)
# the columns of equilibrium_curves' rows: the METRICS, with the speed and fuel rate renamed
CURVES = ("v_mps", "nfr", *PER_KM)

# f1, f2 (per v), f3 (per v^2), f4 (per a), f5 (per a^2), f6 (per v*a)
# one row for a >= -0.5 m/s^2, one for stronger braking where the fit splits
_COEFFS = {
    "co2": (
        (5.53e-01, 1.61e-01, -2.89e-03, 2.66e-01, 5.11e-01, 1.83e-01),
        (5.53e-01, 1.61e-01, -2.89e-03, 2.66e-01, 5.11e-01, 1.83e-01),
    ),
    "nox": (
        (6.19e-04, 8.00e-05, -4.03e-06, -4.13e-04, 3.80e-04, 1.77e-04),
        (2.17e-04, 0.0, 0.0, 0.0, 0.0, 0.0),
    ),
    "voc": (
        (4.47e-03, 7.32e-07, -2.87e-08, -3.41e-06, 4.94e-06, 1.66e-06),
        (2.63e-03, 0.0, 0.0, 0.0, 0.0, 0.0),
    ),
    "pm": (
        (0.0, 1.57e-05, -9.21e-07, 0.0, 3.75e-05, 1.89e-05),
        (0.0, 1.57e-05, -9.21e-07, 0.0, 3.75e-05, 1.89e-05),
    ),
}

BRAKE_SPLIT = -0.5  # m/s^2; the boundary itself belongs to the upper row


def vsp(v, a):
    """Vehicle specific power per unit mass, W/kg; v in m/s, a in m/s^2."""
    v = np.asarray(v, dtype=float)
    return v * (1.1 * np.asarray(a, dtype=float) + 0.132) + 0.000302 * v ** 3


def nfr(power):
    """Normalized fuel rate as a function of VSP."""
    power = np.asarray(power, dtype=float)
    # NaN fails the test and keeps burning's NaN; -0.0 is not below zero,
    # and (+-0.0) ** 0.42 is +0.0, so zero power of either sign burns
    # +0.0, not the idle 1
    burning = 1.71 * np.power(np.maximum(power, 0.0), 0.42)
    return np.where(power < 0.0, 1.0, burning)


def emission_rate(v, a, pollutant: str):
    """Instantaneous emission rate, g/s."""
    if pollutant not in _COEFFS:
        raise ValueError(f"unknown pollutant {pollutant!r}, have {POLLUTANTS}")
    v, a = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(a, dtype=float))
    upper, lower = _COEFFS[pollutant]
    rate = np.asarray(_poly(v, a, upper))
    if lower != upper:
        # the braking row only where it is kept; NaN fails a >= BRAKE_SPLIT
        # and takes it, as it would under np.where
        braking = ~(a >= BRAKE_SPLIT)
        if braking.any():
            rate[braking] = _poly(v[braking], a[braking], lower)
    return np.maximum(rate, 0.0)


def _poly(v, a, f):
    return f[0] + f[1] * v + f[2] * v ** 2 + f[3] * a + f[4] * a ** 2 + f[5] * v * a


def sample_rates(v, a) -> Iterator[np.ndarray]:
    """Per-sample rates of the flattened samples, one array at a time.

    In RATES order: the normalized fuel rate, the speed (m/s), then the
    emission rate (g/s) of each pollutant in POLLUTANTS order. Each is
    computed only when the previous one has been taken, so a caller that
    reduces them one by one never holds more than two.
    """
    v = np.ravel(np.asarray(v, dtype=float))
    a = np.ravel(np.asarray(a, dtype=float))
    yield nfr(vsp(v, a))
    yield v
    for pol in POLLUTANTS:
        yield emission_rate(v, a, pol)


def summarize(means) -> dict:
    """The METRICS of sampled windows, in order, keyed by name.

    ``means`` holds the window means of the ``sample_rates`` arrays, in
    RATES order: one mean each, for one window, which gives a float per
    metric, or a row of k means each, for k windows, which gives a list
    of k floats per metric. A window whose mean speed is 0 is stalled:
    no distance was covered, so its speed reads 0.0 and its per-km
    figures NaN.
    """
    mean_nfr, mean_speed, *mean_rates = np.asarray(means, dtype=float)
    stalled = mean_speed == 0.0
    # a stalled window divides by zero; its per-km figures are replaced
    with np.errstate(divide="ignore", invalid="ignore"):
        per_km = (3600.0 * mean_nfr / (3.6 * mean_speed),  # denominator in km/h
                  # g/s over m/s: scale to g/km
                  *(1000.0 * rate / mean_speed for rate in mean_rates))
    table = np.array([np.where(stalled, 0.0, mean_speed), mean_nfr,
                      *np.where(stalled, np.nan, per_km)])
    return dict(zip(METRICS, table.tolist()))


def equilibrium_curves(v_grid) -> list[dict[str, float]]:
    """Steady-speed footprint table: one row per speed at zero acceleration."""
    v_arr = np.asarray(v_grid, dtype=float)
    if v_arr.size == 0:
        raise ValueError("empty speed grid")
    bad = v_arr[~np.isfinite(v_arr)]
    if bad.size:
        raise ValueError(f"equilibrium curves need finite speeds, got {float(bad[0])!r}")
    if np.any(v_arr <= 0.0):
        raise ValueError("equilibrium curves need strictly positive speeds")
    check_speed_cap(v_arr)
    # one sample per speed, so each rate is its own window mean
    columns = summarize(list(sample_rates(v_arr, 0.0)))
    return [dict(zip(CURVES, values)) for values in zip(*columns.values())]
