"""Longitudinal controllers for platoon members, leaders, and human drivers.

Every function returns the raw desired acceleration; actuator limits
live in the engine. ControlContext fields accept floats or equal-shape
numpy arrays, so the same formulas serve scalar unit tests and the
vectorized ring update.

Sign conventions: gap is the clear bumper-to-bumper distance to the
predecessor, dx = gap + vehicle length is the front-to-front distance,
and speed differences are predecessor minus self (positive when opening).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

V_FREE = 33.3         # speed cap, m/s
VEHICLE_LENGTH = 5.0  # m
MIN_SPACING = 2.0     # standstill clearance d0, m
SPEED_FLOOR = 0.1     # below this the VTG1 speed-ratio term is dropped, m/s


class Strategy(Enum):
    HV = "HV"
    CS = "CS"      # constant spacing, leader-predecessor feedback
    CTG = "CTG"    # constant time gap
    VTG1 = "VTG1"  # variable time gap, speed-ratio form
    VTG2 = "VTG2"  # variable time gap, exponential form
    BS = "BS"      # bidirectional spacing

    def __str__(self) -> str:
        return self.value


@dataclass
class ControlContext:
    """Local measurements a controller is allowed to use.

    Leader fields are arc quantities to the platoon leader and are only
    set for in-platoon CS followers; follower_gap is only set for BS
    vehicles and is the clear distance behind whichever vehicle feeds the
    bidirectional term (unset, bdbm_accel reads gap, so the term is 0).
    """

    v: float | np.ndarray
    gap: float | np.ndarray
    v_pred: float | np.ndarray
    a_pred: float | np.ndarray
    leader_dx: float | np.ndarray | None = None   # front-to-front arc to leader, m
    v_leader: float | np.ndarray | None = None
    a_leader: float | np.ndarray | None = None
    leader_hops: int | np.ndarray | None = None   # gaps between leader and self
    follower_gap: float | np.ndarray | None = None
    length: float = VEHICLE_LENGTH


@dataclass(frozen=True)
class CsGains:
    q1: float = 0.4
    q2: float = 0.1
    q3: float = 0.9
    q4: float = 0.6
    d_pair: float = 0.0  # extra in-platoon clearance on top of d0, m


@dataclass(frozen=True)
class LinearGains:
    """Shared by the CTG / VTG1 / VTG2 laws."""

    k_e: float = 0.1   # spacing-error gain, 1/s^2
    k_v: float = 0.98  # speed-difference gain, 1/s
    k: float = 0.7     # predecessor-acceleration feedforward


H_LEADER = 1.1    # platoon-leader time gap, s
H_FOLLOWER = 0.6  # in-platoon time gap, s


@dataclass(frozen=True)
class Vtg1Params:
    c1: float = 0.6   # base time gap, s
    mu: float = 0.1   # speed-ratio relaxation, s
    eta: float = 0.3  # actuation lag assumed by the feasibility bound, s

    def __post_init__(self) -> None:
        # the base gap must absorb the lag even at the closest approach
        bound = 2.0 * self.eta - min(self.mu, (VEHICLE_LENGTH + MIN_SPACING) / V_FREE)
        if self.c1 <= bound:
            raise ValueError(f"c1={self.c1} violates the feasibility bound {bound:.4f}")


@dataclass(frozen=True)
class Vtg2Params:
    d: float = 7.0   # spacing scale d0 + vehicle length, m
    m: float = 8.83  # speed constant, m/s


@dataclass(frozen=True)
class BdbmParams:
    v_free: float = 33.3
    t_gap: float = 2.5   # desired time gap, s
    a_max: float = 1.0   # m/s^2
    b_comf: float = 2.0  # comfortable deceleration, m/s^2
    d0: float = 2.0      # jam clearance, m
    lam: float = 0.5     # bidirectional weight; 0 recovers the human model


HV_PARAMS = BdbmParams(lam=0.0)


def desired_spacing(strategy: Strategy, v: float | np.ndarray, *,
                    h: float = H_FOLLOWER,
                    cs: CsGains = CsGains(),
                    vtg1: Vtg1Params = Vtg1Params(),
                    vtg2: Vtg2Params = Vtg2Params(),
                    v_pred: float | np.ndarray | None = None,
                    d0: float = MIN_SPACING,
                    length: float = VEHICLE_LENGTH):
    """Desired clear gap of a spacing policy at speed v.

    VTG1 depends on the predecessor speed; v_pred defaults to v, which
    gives the equal-speed (equilibrium) spacing.
    """
    if strategy is Strategy.CS:
        return cs.d_pair + d0 + 0.0 * v
    if strategy is Strategy.CTG:
        return h * v + d0
    if strategy is Strategy.VTG1:
        vp = v if v_pred is None else v_pred
        time_gap = np.where(np.asarray(v) < SPEED_FLOOR,
                            vtg1.c1,
                            vtg1.c1 - vtg1.mu * (vp - v) / np.maximum(v, SPEED_FLOOR))
        return time_gap * v + d0
    if strategy is Strategy.VTG2:
        return vtg2.d * np.exp(v / (2.0 * vtg2.m)) - length
    raise ValueError(f"no closed-form desired spacing for {strategy}")


def equilibrium_gap(strategy: Strategy, v: float, *,
                    h: float = H_FOLLOWER,
                    cs: CsGains = CsGains(),
                    vtg1: Vtg1Params = Vtg1Params(),
                    vtg2: Vtg2Params = Vtg2Params(),
                    bdbm: BdbmParams = BdbmParams(),
                    d0: float = MIN_SPACING,
                    length: float = VEHICLE_LENGTH) -> float:
    """Gap at which a homogeneous flow holds speed v with zero acceleration."""
    if strategy in (Strategy.BS, Strategy.HV):
        if not 0.0 <= v < bdbm.v_free:
            raise ValueError(f"no bidirectional-model equilibrium at v={v}")
        return (bdbm.d0 + v * bdbm.t_gap) / math.sqrt(1.0 - (v / bdbm.v_free) ** 4)
    if strategy is Strategy.VTG1:
        return vtg1.c1 * v + d0
    return float(desired_spacing(strategy, v, h=h, cs=cs, vtg2=vtg2,
                                 d0=d0, length=length))


def cs_accel(ctx: ControlContext, gains: CsGains = CsGains(),
             d0: float = MIN_SPACING):
    """Constant-spacing law coupling predecessor and platoon leader."""
    if ctx.leader_dx is None or ctx.v_leader is None or ctx.a_leader is None \
            or ctx.leader_hops is None:
        raise ValueError("constant-spacing control needs a platoon leader reference")
    unit = ctx.length + gains.d_pair + d0  # front-to-front span of one slot
    pair_err = ctx.gap - gains.d_pair - d0
    lead_err = ctx.leader_dx - ctx.leader_hops * unit
    num = (ctx.a_pred + gains.q3 * ctx.a_leader
           + (gains.q1 + gains.q2) * (ctx.v_pred - ctx.v)
           + gains.q2 * gains.q1 * pair_err
           + (gains.q4 + gains.q2 * gains.q3) * (ctx.v_leader - ctx.v)
           + gains.q2 * gains.q4 * lead_err)
    return num / (1.0 + gains.q3)


def ctg_accel(ctx: ControlContext, h: float, gains: LinearGains = LinearGains(),
              d0: float = MIN_SPACING):
    err = ctx.gap - h * ctx.v - d0
    return gains.k_e * err + gains.k_v * (ctx.v_pred - ctx.v) + gains.k * ctx.a_pred


def vtg1_accel(ctx: ControlContext, params: Vtg1Params = Vtg1Params(),
               gains: LinearGains = LinearGains(), d0: float = MIN_SPACING):
    # near standstill the speed ratio is meaningless; fall back to the base gap
    mu_term = np.where(np.asarray(ctx.v) < SPEED_FLOOR,
                       0.0, params.mu * (ctx.v_pred - ctx.v))
    err = ctx.gap - params.c1 * ctx.v + mu_term - d0
    return gains.k_e * err + gains.k_v * (ctx.v_pred - ctx.v) + gains.k * ctx.a_pred


def vtg2_accel(ctx: ControlContext, params: Vtg2Params = Vtg2Params(),
               gains: LinearGains = LinearGains()):
    err = ctx.gap + ctx.length - params.d * np.exp(ctx.v / (2.0 * params.m))
    return gains.k_e * err + gains.k_v * (ctx.v_pred - ctx.v) + gains.k * ctx.a_pred


def bdbm_accel(ctx: ControlContext, params: BdbmParams = BdbmParams()):
    """Bidirectional desired-spacing model; lam=0 is the human car-follower."""
    dv = ctx.v_pred - ctx.v
    rear = ctx.gap if ctx.follower_gap is None else ctx.follower_gap
    s_des = (params.d0 + ctx.v * params.t_gap
             - ctx.v * dv / (2.0 * math.sqrt(params.a_max * params.b_comf))
             + params.lam * (rear - ctx.gap))
    front = np.maximum(ctx.gap, 0.1)  # keep the ratio finite in a crash
    return params.a_max * (1.0 - (ctx.v / params.v_free) ** 4 - (s_des / front) ** 2)


def hv_accel(ctx: ControlContext, params: BdbmParams = HV_PARAMS):
    """Human-driven vehicle: the bidirectional model with the rear term off."""
    return bdbm_accel(ctx, params)
