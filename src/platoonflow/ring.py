"""Single-lane ring-road engine.

The update is synchronous: every controller reads the state left by the
previous step, then positions and speeds advance together under a
clamped Euler rule. A state carries each vehicle's control wiring as
columns (strategy code, CTG time gap, platoon leader and hops, rear-gap
source), built from the fleet's role codes by ``platoons.wire``. Once
per run they become a vehicle table with the predecessors and one law
per strategy present. Every step gathers one full-fleet ControlContext
from that table and evaluates each strategy present with the exact
functions from the controllers module, keeping only its own members'
outputs, so the engine cannot drift from the unit-tested formulas.

A ``SimConfig`` holds only the engine settings (ring length, time
step, horizon, sampling, actuator limits); a cell's own values (density,
penetration, combo, fleet layout) are arguments of ``init_state``. One
state can hold several independent rings (``stack``): their arrays are
concatenated and their index columns offset into each ring's own
slice, so one kernel call under one config steps them all. Every
operation is elementwise or gathers inside one ring, so each ring's
numbers are bit for bit those of a run alone; ``split_log`` cuts the
stacked log back into per-ring logs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from numbers import Integral
from typing import Callable, Iterator, Sequence

import numpy as np

from .controllers import (VEHICLE_LENGTH, ControlContext, Strategy, bdbm_accel,
                          cs_accel, ctg_accel, hv_accel, vtg1_accel, vtg2_accel)
from .fleet import FleetSpec, draw_flags, role_codes, round_half_up
from .platoons import COMBOS, STRATEGIES, wire

GAP_FLOOR = 0.01  # m, controller-input floor once vehicles overlap


class SimulationError(RuntimeError):
    """Raised when the state stops being numerically meaningful.

    ``ring`` is the index, in its stacked state, of the ring that failed.
    """

    def __init__(self, message: str, ring: int = 0) -> None:
        super().__init__(message)
        self.ring = ring


@dataclass(frozen=True)
class SimConfig:
    """Engine settings shared by every ring of a run."""

    ring_length: float = 1000.0    # m
    dt: float = 0.1                # s
    duration: float = 3600.0       # s
    warmup: float = 1800.0         # s discarded before sampling
    record_every: int = 10         # steps between samples
    v_max: float = 33.3            # m/s
    a_max: float = 1.0             # m/s^2
    a_min: float = -5.0            # m/s^2

    def __post_init__(self) -> None:
        for name in ("ring_length", "dt", "duration", "warmup", "v_max", "a_max", "a_min"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.ring_length <= 0 or self.dt <= 0:
            raise ValueError("ring length and time step must be positive")
        if not 0.0 <= self.warmup < self.duration:
            raise ValueError(f"warmup {self.warmup} outside [0, duration {self.duration}), "
                             "so no sample would be recorded")
        if self.v_max <= 0 or self.a_max <= 0 or self.a_min >= 0:
            raise ValueError("need v_max > 0, a_max > 0, a_min < 0")
        if not isinstance(self.record_every, Integral) or self.record_every < 1:
            raise ValueError(f"record_every must be a whole number >= 1, "
                             f"got {self.record_every}")
        for name in ("duration", "warmup"):
            steps = getattr(self, name) / self.dt
            if not math.isclose(steps, round(steps), rel_tol=1e-9):
                raise ValueError(f"{name} {getattr(self, name)} is not a whole number "
                                 f"of time steps dt={self.dt}")


@dataclass
class RingState:
    x: np.ndarray  # position along the ring, m
    v: np.ndarray  # speed, m/s
    a: np.ndarray  # realized acceleration of the last step, m/s^2
    # control wiring, one entry per vehicle (see platoons.wire); leader
    # and rear are indices in this state
    strategy: np.ndarray  # code in platoons.STRATEGIES order
    h: np.ndarray         # CTG time gap, s, else NaN
    leader: np.ndarray    # CS platoon leader, else the vehicle itself
    hops: np.ndarray      # CS gaps between leader and self, else 0
    rear: np.ndarray      # whose front gap BS reads as its rear gap, else itself
    starts: tuple[int, ...] = (0,)  # first vehicle of each ring

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class Violation:
    t: float
    vehicle: int  # follower index
    gap: float    # negative clear distance observed, m


@dataclass
class TrajectoryLog:
    times: np.ndarray  # (m,)
    x: np.ndarray      # (m, n)
    v: np.ndarray      # (m, n)
    a: np.ndarray      # (m, n)
    violations: list[Violation]
    # ring index -> SimulationError message of each ring dropped mid-run;
    # its columns hold NaN from the failing step on
    errors: dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class _VehicleTable:
    """Per-vehicle control wiring of the rings stepped in one run.

    Every column has one entry per stepped vehicle, so the kernel fills one
    full-fleet ControlContext; a column a vehicle's law does not read
    holds a neutral value (the vehicle itself, 0, or NaN for the CTG
    time gap, which is bound into the CTG law). Rings are packed in the
    order they were listed, each in one contiguous slice.
    """

    pred: np.ndarray    # predecessor index
    leader: np.ndarray  # CS platoon leader, else the vehicle itself
    hops: np.ndarray    # CS gaps between leader and self, else 0
    rear: np.ndarray    # whose front gap BS reads as its rear gap, else itself
    laws: tuple[tuple[Callable, np.ndarray], ...]  # (law, members) per strategy present
    alone: np.ndarray   # vehicles that are the only one on their ring
    ring: np.ndarray    # ring index in the state
    first: np.ndarray   # packed index of the ring's first vehicle
    cols: np.ndarray    # index in the state, which is the column in the log


def _build_table(state: RingState, rings: Sequence[int]) -> _VehicleTable:
    """Wiring of the listed rings of ``state``, packed in that order."""
    bounds = np.array((*state.starts, state.n))
    rings = np.asarray(rings, dtype=np.intp)
    sizes = bounds[rings + 1] - bounds[rings]
    starts = np.cumsum(sizes) - sizes  # packed index of each ring's first vehicle
    ring, first = np.repeat(rings, sizes), np.repeat(starts, sizes)
    own = np.arange(ring.size)
    cols = bounds[ring] + own - first
    packed = np.empty(state.n, dtype=np.intp)
    packed[cols] = own
    pred = own - 1
    pred[starts] = starts + sizes - 1
    strategy = state.strategy[cols]
    # looked up per run, not at import, so module-level wrappers take effect
    law_of = {Strategy.HV: hv_accel, Strategy.CTG: partial(ctg_accel, h=state.h[cols]),
              Strategy.VTG1: vtg1_accel, Strategy.VTG2: vtg2_accel,
              Strategy.CS: cs_accel, Strategy.BS: bdbm_accel}
    members = ((law_of[s], np.flatnonzero(strategy == code))
               for code, s in enumerate(STRATEGIES))
    return _VehicleTable(pred=pred, leader=packed[state.leader[cols]],
                         hops=state.hops[cols], rear=packed[state.rear[cols]],
                         laws=tuple((law, idx) for law, idx in members if idx.size),
                         alone=starts[sizes == 1], ring=ring, first=first, cols=cols)


def init_state(config: SimConfig, density: float, p: float, combo_id: int,
               intensity: float = 1.0, s_max: int = 4, seed: int | None = None) -> RingState:
    """Evenly spaced standstill start of one cell's ring.

    ``density`` is in veh/km and ``p`` is the CAV penetration; ``seed``
    draws the fleet layout below full ``intensity`` and is not read at 1.
    """
    if not (math.isfinite(density) and density > 0):
        raise ValueError(f"density must be positive and finite, got {density}")
    if combo_id not in COMBOS:
        raise ValueError(f"unknown strategy combo {combo_id}")
    count = density * config.ring_length / 1000.0
    if math.isinf(count):
        raise ValueError(f"density {density} puts no finite fleet on the ring")
    n = round_half_up(count)
    if n < 1:
        raise ValueError(f"density {density} puts no vehicle on the ring")
    spacing = config.ring_length / n
    if spacing < VEHICLE_LENGTH:
        raise ValueError(f"density {density} needs spacing {spacing:.2f} m "
                         f"< vehicle length {VEHICLE_LENGTH} m")
    x = (-spacing * np.arange(n, dtype=float)) % config.ring_length
    flags = draw_flags(FleetSpec(n, p, intensity, s_max), [seed])
    strategy, h, leader, hops, rear = wire(role_codes(flags, s_max)[0], COMBOS[combo_id])
    return RingState(x=x, v=np.zeros(n), a=np.zeros(n), strategy=strategy, h=h,
                     leader=leader, hops=hops, rear=rear)


def _advance(x: np.ndarray, v: np.ndarray, a: np.ndarray, config: SimConfig,
             table: _VehicleTable):
    """One synchronous step; returns new arrays plus observed violations."""
    ring = config.ring_length
    dx = (x[table.pred] - x) % ring
    dx[table.alone] = ring  # a lone vehicle follows itself one lap ahead
    gap = dx - VEHICLE_LENGTH
    viol = np.flatnonzero(gap < 0.0)
    gap_c = np.maximum(gap, GAP_FLOOR)

    ctx = ControlContext(v=v, gap=gap_c, v_pred=v[table.pred], a_pred=a[table.pred],
                         leader_dx=(x[table.leader] - x) % ring,
                         v_leader=v[table.leader], a_leader=a[table.leader],
                         leader_hops=table.hops, follower_gap=gap_c[table.rear])
    u = np.zeros(x.size)
    for law, idx in table.laws:
        u[idx] = law(ctx)[idx]

    bad = np.flatnonzero(~np.isfinite(u))
    if bad.size:
        i = int(bad[0])
        raise SimulationError(
            f"non-finite desired acceleration for vehicle {i - table.first[i]}: "
            f"v={v[i]!r} gap={gap_c[i]!r} v_pred={ctx.v_pred[i]!r} "
            f"a_pred={ctx.a_pred[i]!r}", ring=int(table.ring[i]))

    a_cmd = np.clip(u, config.a_min, config.a_max)
    v_new = np.clip(v + a_cmd * config.dt, 0.0, config.v_max)
    x_new = (x + 0.5 * (v + v_new) * config.dt) % ring
    a_eff = (v_new - v) / config.dt
    return x_new, v_new, a_eff, viol, gap[viol]


def stack(states: Sequence[RingState]) -> RingState:
    """One state holding every single-ring state, in order, to step together."""
    if not states or any(len(s.starts) != 1 or s.n == 0 for s in states):
        raise ValueError("stack takes a non-empty list of non-empty single-ring states")
    starts = tuple(accumulate((s.n for s in states[:-1]), initial=0))
    columns = {name: np.concatenate([getattr(s, name) for s in states])
               for name in ("x", "v", "a", "strategy", "h", "hops")}
    for name in ("leader", "rear"):  # ring indices become state indices
        columns[name] = np.concatenate([getattr(s, name) + at
                                        for s, at in zip(states, starts)])
    return RingState(**columns, starts=starts)


def run_state(state: RingState, config: SimConfig) -> TrajectoryLog:
    """Integrate every ring of a prepared state and record post-warmup samples.

    A ring whose desired acceleration goes non-finite is dropped at that
    step: its message goes to ``errors`` and the other rings step on
    unchanged.
    """
    steps = round(config.duration / config.dt)
    warmup_steps = round(config.warmup / config.dt)
    times = np.arange(warmup_steps, steps, config.record_every) * config.dt
    xs, vs, accs = (np.empty((times.size, state.n)) for _ in range(3))
    violations: list[Violation] = []
    errors: dict[int, str] = {}

    table = _build_table(state, range(len(state.starts)))
    x, v, a = state.x.copy(), state.v.copy(), state.a.copy()
    row = 0
    for k in range(steps):
        if k >= warmup_steps and (k - warmup_steps) % config.record_every == 0:
            cols = table.cols if errors else slice(None)
            xs[row, cols] = x
            vs[row, cols] = v
            accs[row, cols] = a
            row += 1
        while True:
            try:
                x, v, a, vi, vg = _advance(x, v, a, config, table)
                break
            except SimulationError as err:
                # drop the ring and retry the step without it
                errors[err.ring] = str(err)
                gone = table.ring == err.ring
                for log_array in (xs, vs, accs):
                    log_array[row:, table.cols[gone]] = np.nan
                x, v, a = x[~gone], v[~gone], a[~gone]
                table = _build_table(state, [r for r in range(len(state.starts))
                                             if r not in errors])
        if vi.size:
            t = k * config.dt
            violations.extend(Violation(t, int(i), float(gp))
                              for i, gp in zip(table.cols[vi], vg))
        if not x.size:
            break
    return TrajectoryLog(times=times, x=xs, v=vs, a=accs,
                         violations=violations, errors=errors)


def split_log(log: TrajectoryLog, states: Sequence[RingState]) -> Iterator[TrajectoryLog]:
    """Per-ring logs of a run on ``stack(states)``, in stacking order.

    Each ring's samples are copied into C-contiguous (m, n) arrays, so a
    reduction over them sums in the same order as over a ring run alone.
    A dropped ring's log carries its message as ``errors[0]``.
    """
    starts = list(accumulate((s.n for s in states), initial=0))
    by_ring: list[list[Violation]] = [[] for _ in states]
    for viol in log.violations:
        r = bisect_right(starts, viol.vehicle) - 1
        by_ring[r].append(Violation(viol.t, viol.vehicle - starts[r], viol.gap))
    for r in range(len(states)):
        cols = slice(starts[r], starts[r + 1])
        yield TrajectoryLog(times=log.times,
                            x=np.ascontiguousarray(log.x[:, cols]),
                            v=np.ascontiguousarray(log.v[:, cols]),
                            a=np.ascontiguousarray(log.a[:, cols]),
                            violations=by_ring[r],
                            errors={0: log.errors[r]} if r in log.errors else {})


def run(config: SimConfig, density: float, p: float, combo_id: int,
        intensity: float = 1.0, s_max: int = 4, seed: int | None = None) -> TrajectoryLog:
    """One cell (see ``init_state``); raises SimulationError if the ring fails."""
    log = run_state(init_state(config, density, p, combo_id, intensity, s_max, seed),
                    config)
    if log.errors:
        raise SimulationError(log.errors[0])
    return log
