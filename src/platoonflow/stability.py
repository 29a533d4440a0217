"""String stability of the linear spacing laws.

Each law is linearized at an equilibrium speed in the coordinates
(own speed, front-to-front distance, speed difference), giving the
disturbance transfer function between consecutive vehicles

    G(s) = (k s^2 + g_dv s + g_dx) / (s^2 + (g_dv - g_v) s + g_dx)

whose magnitude must not exceed 1 at any frequency. With the
feedforward weight k in [0, 1] that reduces to a single scalar margin
evaluated at zero frequency. The partials read the gains the
controllers module holds as constants; only the CTG time gap h is an
argument.

The bidirectional model is nonlinear with rear coupling and is not
covered. The constant-spacing law is evaluated on its
predecessor-coupled terms only, with the leader feedback treated as an
exogenous input; its result carries a caveat saying so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .controllers import (CS_Q1, CS_Q2, CS_Q3, H_FOLLOWER, K_E, K_FF, K_V, VTG1_C1,
                          VTG1_MU, VTG2_D, VTG2_M, Strategy)

CS_CAVEAT = "predecessor-coupled terms only; leader feedback treated as exogenous"


@dataclass(frozen=True)
class EquilibriumPartials:
    """Partial derivatives of the acceleration law at equilibrium."""

    g_v: float   # w.r.t. own speed
    g_dx: float  # w.r.t. front-to-front distance
    g_dv: float  # w.r.t. speed difference (predecessor minus self)
    k: float     # predecessor-acceleration feedforward
    v_e: float
    caveat: str | None = None


@dataclass(frozen=True)
class StabilityResult:
    stable: bool
    margin: float
    k_in_range: bool
    caveat: str | None = None


def equilibrium_partials(strategy: Strategy, v_e: float, *,
                         h: float = H_FOLLOWER) -> EquilibriumPartials:
    """Linearize one law at speed v_e.

    The speed-difference channel absorbs every appearance of the
    predecessor speed (v_pred = v + dv), which is why VTG1 picks up
    k_e * mu on g_dv and loses it from g_v.
    """
    if strategy is Strategy.CTG:
        return EquilibriumPartials(-K_E * h, K_E, K_V, K_FF, v_e)
    if strategy is Strategy.VTG1:
        return EquilibriumPartials(-K_E * VTG1_C1, K_E, K_E * VTG1_MU + K_V, K_FF, v_e)
    if strategy is Strategy.VTG2:
        g_v = -K_E * (VTG2_D / (2.0 * VTG2_M)) * np.exp(v_e / (2.0 * VTG2_M))
        return EquilibriumPartials(float(g_v), K_E, K_V, K_FF, v_e)
    if strategy is Strategy.CS:
        scale = 1.0 / (1.0 + CS_Q3)
        return EquilibriumPartials(0.0, CS_Q1 * CS_Q2 * scale, (CS_Q1 + CS_Q2) * scale,
                                   scale, v_e, caveat=CS_CAVEAT)
    raise ValueError(f"string stability analysis does not cover {strategy}")


def transfer_magnitude(partials: EquilibriumPartials,
                       omega: float | Sequence[float] | np.ndarray):
    """|G(j omega)| of the vehicle-to-vehicle disturbance transfer."""
    w = np.asarray(omega, dtype=float)
    num = (partials.g_dx - partials.k * w ** 2) + 1j * w * partials.g_dv
    den = (partials.g_dx - w ** 2) + 1j * w * (partials.g_dv - partials.g_v)
    return np.abs(num) / np.abs(den)


def stability_margin(partials: EquilibriumPartials) -> float:
    """Worst-case margin; nonnegative means |G| <= 1 at every frequency."""
    g = partials
    return g.g_v ** 2 - 2.0 * g.g_v * g.g_dv - 2.0 * (1.0 - g.k) * g.g_dx


def string_stable(partials: EquilibriumPartials) -> StabilityResult:
    k_ok = 0.0 <= partials.k <= 1.0
    margin = stability_margin(partials)
    return StabilityResult(stable=k_ok and margin >= 0.0, margin=margin,
                           k_in_range=k_ok, caveat=partials.caveat)


def stability_region(strategy: Strategy, v_grid: Sequence[float] | np.ndarray) -> list[dict]:
    """``{"strategy", "v_e", "margin", "stable"}`` rows over a speed grid."""
    rows = []
    for v_e in np.asarray(v_grid, dtype=float).tolist():
        res = string_stable(equilibrium_partials(strategy, v_e))
        rows.append({"strategy": str(strategy), "v_e": v_e, "margin": res.margin,
                     "stable": res.stable})
    return rows
