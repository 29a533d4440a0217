"""Longitudinal controllers for platoon members, leaders, and human drivers.

Every function returns the raw desired acceleration; actuator limits
live in the engine. Each law's parameters are the paper's values, held
as module constants; only the CTG time gap h and the bidirectional
weight lam are arguments. ControlContext fields accept floats or
equal-shape numpy arrays, so the same formulas serve scalar unit tests
and the vectorized ring update.

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


# constant-spacing gains
CS_Q1 = 0.4
CS_Q2 = 0.1
CS_Q3 = 0.9
CS_Q4 = 0.6

# shared by the CTG / VTG1 / VTG2 laws
K_E = 0.1    # spacing-error gain, 1/s^2
K_V = 0.98   # speed-difference gain, 1/s
K_FF = 0.7   # predecessor-acceleration feedforward

H_LEADER = 1.1    # platoon-leader time gap, s
H_FOLLOWER = 0.6  # in-platoon time gap, s

VTG1_C1 = 0.6  # base time gap, s
VTG1_MU = 0.1  # speed-ratio relaxation, s

VTG2_D = MIN_SPACING + VEHICLE_LENGTH  # spacing scale, m
VTG2_M = 8.83                          # speed constant, m/s

# bidirectional model (BS); its jam clearance is MIN_SPACING, its free speed V_FREE
BS_T_GAP = 2.5   # desired time gap, s
BS_A_MAX = 1.0   # model acceleration, m/s^2 (not the actuator limit ring.A_MAX)
BS_B_COMF = 2.0  # comfortable deceleration, m/s^2
BS_LAMBDA = 0.5  # bidirectional weight; 0 recovers the human model


def desired_spacing(strategy: Strategy, v: float | np.ndarray, *,
                    h: float = H_FOLLOWER,
                    v_pred: float | np.ndarray | None = None):
    """Desired clear gap of a spacing policy at speed v.

    VTG1 depends on the predecessor speed; v_pred defaults to v, which
    gives the equal-speed (equilibrium) spacing.
    """
    if strategy is Strategy.CS:
        return MIN_SPACING + 0.0 * v
    if strategy is Strategy.CTG:
        return h * v + MIN_SPACING
    if strategy is Strategy.VTG1:
        vp = v if v_pred is None else v_pred
        time_gap = np.where(np.asarray(v) < SPEED_FLOOR,
                            VTG1_C1,
                            VTG1_C1 - VTG1_MU * (vp - v) / np.maximum(v, SPEED_FLOOR))
        return time_gap * v + MIN_SPACING
    if strategy is Strategy.VTG2:
        return VTG2_D * np.exp(v / (2.0 * VTG2_M)) - VEHICLE_LENGTH
    raise ValueError(f"no closed-form desired spacing for {strategy}")


def equilibrium_gap(strategy: Strategy, v: float, *, h: float = H_FOLLOWER) -> float:
    """Gap at which a homogeneous flow holds speed v with zero acceleration.

    BS is treated as HV. That holds where the rear gap BS reads equals
    its own gap, so that its bidirectional term vanishes: in a uniform
    flow, and at the equilibrium of every ring that ``platoons.wire``
    builds, where a BS vehicle's rear gap is the gap of an HV or a BS
    vehicle (its follower, or the vehicle behind its CS platoon's tail),
    which takes this same gap.
    """
    if strategy in (Strategy.BS, Strategy.HV):
        if not 0.0 <= v < V_FREE:
            raise ValueError(f"no bidirectional-model equilibrium at v={v}")
        return (MIN_SPACING + v * BS_T_GAP) / math.sqrt(1.0 - (v / V_FREE) ** 4)
    return float(desired_spacing(strategy, v, h=h))


def cs_accel(ctx: ControlContext):
    """Constant-spacing law coupling predecessor and platoon leader."""
    if ctx.leader_dx is None or ctx.v_leader is None or ctx.a_leader is None \
            or ctx.leader_hops is None:
        raise ValueError("constant-spacing control needs a platoon leader reference")
    unit = VEHICLE_LENGTH + MIN_SPACING  # front-to-front span of one slot
    pair_err = ctx.gap - MIN_SPACING
    lead_err = ctx.leader_dx - ctx.leader_hops * unit
    num = (ctx.a_pred + CS_Q3 * ctx.a_leader
           + (CS_Q1 + CS_Q2) * (ctx.v_pred - ctx.v)
           + CS_Q2 * CS_Q1 * pair_err
           + (CS_Q4 + CS_Q2 * CS_Q3) * (ctx.v_leader - ctx.v)
           + CS_Q2 * CS_Q4 * lead_err)
    return num / (1.0 + CS_Q3)


def ctg_accel(ctx: ControlContext, h: float):
    err = ctx.gap - h * ctx.v - MIN_SPACING
    return K_E * err + K_V * (ctx.v_pred - ctx.v) + K_FF * ctx.a_pred


def vtg1_accel(ctx: ControlContext):
    # near standstill the speed ratio is meaningless; fall back to the base gap
    mu_term = np.where(np.asarray(ctx.v) < SPEED_FLOOR,
                       0.0, VTG1_MU * (ctx.v_pred - ctx.v))
    err = ctx.gap - VTG1_C1 * ctx.v + mu_term - MIN_SPACING
    return K_E * err + K_V * (ctx.v_pred - ctx.v) + K_FF * ctx.a_pred


def vtg2_accel(ctx: ControlContext):
    err = ctx.gap + VEHICLE_LENGTH - VTG2_D * np.exp(ctx.v / (2.0 * VTG2_M))
    return K_E * err + K_V * (ctx.v_pred - ctx.v) + K_FF * ctx.a_pred


def bdbm_accel(ctx: ControlContext, lam: float = BS_LAMBDA):
    """Bidirectional desired-spacing model; lam=0 is the human car-follower."""
    dv = ctx.v_pred - ctx.v
    rear = ctx.gap if ctx.follower_gap is None else ctx.follower_gap
    s_des = (MIN_SPACING + ctx.v * BS_T_GAP
             - ctx.v * dv / (2.0 * math.sqrt(BS_A_MAX * BS_B_COMF))
             + lam * (rear - ctx.gap))
    front = np.maximum(ctx.gap, 0.1)  # keep the ratio finite in a crash
    return BS_A_MAX * (1.0 - (ctx.v / V_FREE) ** 4 - (s_des / front) ** 2)


def hv_accel(ctx: ControlContext):
    """Human-driven vehicle: the bidirectional model with the rear term off."""
    return bdbm_accel(ctx, lam=0.0)
