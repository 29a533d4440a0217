"""Single-lane ring-road engine.

The update is synchronous: every controller reads the state left by the
previous step, then positions and speeds advance together under a
clamped Euler rule. A state carries each vehicle's control wiring as
columns (strategy code, CTG time gap, platoon leader and hops, rear-gap
source), built from the fleet's role codes by ``platoons.wire``. Once
per run they become a vehicle table in kernel order: the vehicles
sorted by strategy code, stably, so each law drives one contiguous
slice, in state order within it. Every step gathers the predecessors'
position, speed and acceleration once for all vehicles; each law then
reads and writes its own slice, gathers only the wiring it alone reads
(CS leader, BS rear gap), and is evaluated by the exact function from
the controllers module, so the engine cannot drift from the unit-tested
formulas and no law computes a vehicle it does not drive. The kernel
order stays inside the engine: violations and failures name a vehicle
by its ring and its number within that ring, and ``run_blocks`` puts
each sample back in state order.

A ``SimConfig`` holds the engine settings a run may vary (ring length,
time step, horizon, sampling); the actuator limits, the speed cap and
the platoon size cap are constants. A ring's density and penetration
are checked by ``cell_fleet``, and its combo by ``platoons.wire``; the
sweep draws each (density, p)'s CAV flag row once (``fleet.draw_flags``)
and hands the rows on. One state can hold several independent rings:
``build_rings`` labels, wires and places the rings of flag rows laid
back to back in one pass, with index columns pointing into each ring's
own slice, so one kernel call under one config steps them all.
Every operation is elementwise or gathers inside one ring, so a
vehicle's numbers depend neither on where the kernel order puts it nor
on the rings stepped with it: each ring's numbers are bit for bit those
of a run alone, and two rings with the same ``ring_key`` run to the
same bits.

``run_blocks``, the one step loop, yields the post-warmup samples in
reused blocks, so a consumer that reduces or writes them as they come
holds no whole-horizon log.

A ring whose desired acceleration goes non-finite fails alone: the loop
sets its x, v and a to NaN and steps on. Every gather
(predecessor, CS leader, BS rear gap) reads inside one ring, so the
NaN cannot leave it and the other rings keep their bits.

Positions stay in [0, ring_length) and speeds in [0, V_FREE], and
``SimConfig`` keeps ``V_FREE * dt`` below the ring length. ``run_blocks``
checks the start state, and each step keeps both ranges. So a
difference of two positions lies in (-ring_length, ring_length) and a
step moves a vehicle forward by less than one lap. Both wrap by one
conditional add or subtract of the ring length, with the same bits as
a float remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral
from typing import Callable, Iterator, Sequence

import numpy as np

from .controllers import (V_FREE, VEHICLE_LENGTH, ControlContext, Strategy, bdbm_accel,
                          cs_accel, ctg_accel, hv_accel, vtg1_accel, vtg2_accel)
from .fleet import LV1, PV, S_MAX, FleetSpec, role_codes, round_half_up
from .platoons import COMBO_LAWS, STRATEGIES, check_combos, wire

GAP_FLOOR = 0.01  # m, controller-input floor once vehicles overlap
A_MAX = 1.0   # actuator limit, m/s^2 (not the model's BS_A_MAX)
A_MIN = -5.0  # actuator limit, m/s^2
BLOCK_SAMPLES = 16  # per block of run_blocks; 1.5 MB of buffers at 4096 vehicles


@dataclass(frozen=True)
class SimConfig:
    """Engine settings shared by every ring of a run."""

    ring_length: float = 1000.0    # m
    dt: float = 0.1                # s
    duration: float = 3600.0       # s
    warmup: float = 1800.0         # s discarded before sampling
    record_every: int = 10         # steps between samples

    def __post_init__(self) -> None:
        for name in ("ring_length", "dt", "duration", "warmup"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.ring_length <= 0 or self.dt <= 0:
            raise ValueError("ring length and time step must be positive")
        if not 0.0 <= self.warmup < self.duration:
            raise ValueError(f"warmup {self.warmup} outside [0, duration {self.duration}), "
                             "so no sample would be recorded")
        if V_FREE * self.dt >= self.ring_length:
            raise ValueError(f"one step at v_max {V_FREE} m/s over dt {self.dt} s "
                             f"covers the whole ring of {self.ring_length} m")
        if not isinstance(self.record_every, Integral) or self.record_every < 1:
            raise ValueError(f"record_every must be a whole number >= 1, "
                             f"got {self.record_every}")
        for name in ("duration", "warmup"):
            steps = getattr(self, name) / self.dt
            if not math.isclose(steps, round(steps), rel_tol=1e-9):
                raise ValueError(f"{name} {getattr(self, name)} is not a whole number "
                                 f"of time steps dt={self.dt}")
        try:  # a run counts its samples, and a count must fit an index
            len(self.sample_steps)
        except OverflowError:
            raise ValueError(f"duration {self.duration} holds more samples than a run "
                             "can count") from None

    @property
    def sample_steps(self) -> range:
        """Indices of the steps a run records: every ``record_every``-th
        step from the end of the warmup to the end of the horizon."""
        return range(round(self.warmup / self.dt), round(self.duration / self.dt),
                     self.record_every)


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
    vehicle: int  # the follower's number within its ring
    gap: float    # negative clear distance observed, m
    ring: int = 0  # the ring's index in the state


@dataclass
class TrajectoryLog:
    times: np.ndarray  # (m,)
    x: np.ndarray      # (m, n)
    v: np.ndarray      # (m, n)
    a: np.ndarray      # (m, n)
    violations: list[Violation]
    # ring index -> why each failed ring stopped: the first vehicle whose
    # desired acceleration went non-finite; its columns hold NaN from the
    # sample after the failing step on
    errors: dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class _Members:
    """The slice of kernel slots one law drives and the wiring it reads.

    Only CS members read a platoon leader and only BS members a rear gap,
    so the other laws carry None there, as their ControlContext does.
    """

    law: Callable
    at: slice                          # the members' slots
    leader: np.ndarray | None = None   # CS platoon leader's slot
    hops: np.ndarray | None = None     # CS gaps between leader and self
    rear: np.ndarray | None = None     # BS: slot whose front gap is the rear gap


@dataclass(frozen=True)
class _VehicleTable:
    """Per-vehicle control wiring of every ring of a state, in kernel order.

    Slot k of the kernel holds state vehicle ``order[k]``, and state
    vehicle i sits in slot ``slot[i]``. ``pred`` has one entry per slot;
    each law present gets its slice and the wiring it reads
    (``_Members``), all as slots.
    """

    pred: np.ndarray    # predecessor's slot
    laws: tuple[_Members, ...]  # one per strategy present
    alone: np.ndarray   # slots of vehicles that are the only one on their ring
    bounds: np.ndarray  # first vehicle of each ring, then the vehicle count (state order)
    order: np.ndarray   # state index of each slot
    slot: np.ndarray    # slot of each state index


def _build_table(state: RingState) -> _VehicleTable:
    """Wiring of ``state``'s rings with the vehicles sorted by law."""
    bounds = np.array((*state.starts, state.n))
    starts, sizes = bounds[:-1], np.diff(bounds)
    pred = np.arange(state.n) - 1
    pred[starts] = starts + sizes - 1
    order = np.argsort(state.strategy, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(state.n)
    edges = np.searchsorted(state.strategy[order], np.arange(len(STRATEGIES) + 1)).tolist()
    # looked up per run, not at import, so module-level wrappers take effect
    law_of = {Strategy.HV: hv_accel, Strategy.CTG: ctg_accel, Strategy.VTG1: vtg1_accel,
              Strategy.VTG2: vtg2_accel, Strategy.CS: cs_accel, Strategy.BS: bdbm_accel}
    laws = []
    for code, s in enumerate(STRATEGIES):
        lo, hi = edges[code], edges[code + 1]
        if lo == hi:
            continue
        members = order[lo:hi]
        law, wiring = law_of[s], {}
        if s is Strategy.CTG:
            law = partial(law, h=state.h[members])
        elif s is Strategy.CS:
            wiring = dict(leader=slot[state.leader[members]], hops=state.hops[members])
        elif s is Strategy.BS:
            wiring = dict(rear=slot[state.rear[members]])
        laws.append(_Members(law, slice(lo, hi), **wiring))
    return _VehicleTable(pred=slot[pred[order]], laws=tuple(laws),
                         alone=slot[starts[sizes == 1]], bounds=bounds, order=order, slot=slot)


def cell_fleet(config: SimConfig, density: float, p: float,
               intensity: float = 1.0) -> FleetSpec:
    """The fleet of the ring of a (density, p), which all its combos share.

    ``density`` is in veh/km and ``p`` is the CAV penetration. Raises
    ValueError for values no ring can hold.
    """
    if not (math.isfinite(density) and density > 0):
        raise ValueError(f"density must be positive and finite, got {density}")
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
    return FleetSpec(n, p, intensity)


def build_rings(config: SimConfig, flags: np.ndarray, sizes: Sequence[int],
                combo_ids: Sequence[int]) -> RingState:
    """Evenly spaced standstill starts of rings, stacked in one state.

    ``flags`` holds the rings' CAV flag rows (``fleet.draw_flags``) back
    to back, ``sizes`` the vehicles of each ring and ``combo_ids`` its
    combo, in order (ValueError for one not in ``platoons.COMBOS``). The
    rings are labeled and wired in one pass.
    """
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    strategy, h, leader, hops, rear = wire(role_codes(flags, sizes, S_MAX), sizes, combo_ids)
    k = np.arange(flags.size) - np.repeat(starts, sizes)  # index in the ring
    x = (-np.repeat(config.ring_length / sizes, sizes) * k) % config.ring_length
    return RingState(x=x, v=np.zeros(x.size), a=np.zeros(x.size), strategy=strategy, h=h,
                     leader=leader, hops=hops, rear=rear, starts=tuple(starts.tolist()))


def ring_key(row: bytes, cavs: int, combo_id: int) -> tuple:
    """Everything ``build_rings`` reads of one ring, as a hashable key.

    ``row`` is the ring's CAV flag row as bytes (``flags.tobytes()``),
    which also gives its vehicle count, and ``cavs`` its CAV count
    (ValueError for a combo not in ``platoons.COMBOS``). The key holds
    the row, the leader law's strategy code (``platoons.COMBO_LAWS``) if
    the ring holds a CAV and the follower law's if it holds two or more:
    with one CAV its platoon has no follower, and a BS leader's rear-gap
    source is its own follower whatever the follower law. Rings with
    equal keys get the same columns, bit for bit, and so, stepped under
    one config, the same numbers.
    """
    check_combos((combo_id,))  # not a filler or wrapped-around row of the table
    laws = COMBO_LAWS[int(combo_id)].tolist()  # Python ints, which hash in C
    lv, pv = laws[LV1], laws[PV]
    return (row, lv if cavs else None, pv if cavs > 1 else None)


def _arc(d: np.ndarray, ring: float) -> np.ndarray:
    """``d % ring`` in place, bit for bit, for ``d`` in (-ring, ring).

    There ``fmod`` returns ``d`` itself, and numpy's remainder adds
    ``ring`` to a negative result: the same float add as here.
    """
    d += ring * (d < 0.0)
    return d


def _lap(x: np.ndarray, ring: float) -> np.ndarray:
    """``x % ring`` in place, bit for bit, for ``x`` in [0, 2 ring).

    On [ring, 2 ring) ``x - ring`` is exact (Sterbenz's lemma), as
    ``fmod`` is. A -0.0 stays -0.0 where ``%`` gives +0.0; a step forms
    one only from a state handed in with a -0.0 position and speed.
    """
    x -= ring * (x >= ring)
    return x


def _advance(x: np.ndarray, v: np.ndarray, a: np.ndarray, config: SimConfig,
             table: _VehicleTable):
    """One synchronous step of kernel-order arrays; returns new arrays in
    kernel order, the observed violations (state indices, ascending) with
    their gaps, and ring -> message naming the first vehicle with a
    non-finite desired acceleration, for each ring not already NaN. It
    wraps without a float remainder, so it needs the ranges of the
    module docstring.
    """
    ring = config.ring_length
    pred = table.pred
    dx = _arc(x[pred] - x, ring)
    if table.alone.size:
        dx[table.alone] = ring  # a lone vehicle follows itself one lap ahead
    gap = dx - VEHICLE_LENGTH
    viol = np.sort(table.order[gap < 0.0])
    gap_c = np.maximum(gap, GAP_FLOOR)
    v_pred, a_pred = v[pred], a[pred]

    u = np.zeros(x.size)
    for m in table.laws:
        s = m.at
        ctx = ControlContext(v=v[s], gap=gap_c[s], v_pred=v_pred[s], a_pred=a_pred[s])
        if m.leader is not None:
            ctx.leader_dx = _arc(x[m.leader] - x[s], ring)
            ctx.v_leader, ctx.a_leader, ctx.leader_hops = v[m.leader], a[m.leader], m.hops
        if m.rear is not None:
            ctx.follower_gap = gap_c[m.rear]
        u[s] = m.law(ctx)

    failed: dict[int, str] = {}
    if not np.isfinite(u).all():
        # state indices; NaN x: failed before
        at = np.sort(table.order[~np.isfinite(u) & ~np.isnan(x)])
        rings, first = np.unique(np.searchsorted(table.bounds, at, "right") - 1,
                                 return_index=True)
        for r, i in zip(rings.tolist(), at[first].tolist()):
            k = table.slot[i]
            j = pred[k]
            failed[r] = (f"non-finite desired acceleration for vehicle {i - table.bounds[r]}: "
                         f"v={float(v[k])!r} gap={float(gap_c[k])!r} v_pred={float(v[j])!r} "
                         f"a_pred={float(a[j])!r}")

    a_cmd = u.clip(A_MIN, A_MAX, out=u)
    v_new = v + a_cmd * config.dt
    v_new.clip(0.0, V_FREE, out=v_new)
    x_new = _lap(x + 0.5 * (v + v_new) * config.dt, ring)
    a_eff = (v_new - v) / config.dt
    return x_new, v_new, a_eff, viol, gap[table.slot[viol]], failed


def _check_start(state: RingState, config: SimConfig) -> None:
    """Raise ValueError unless ``state`` meets ``_advance``'s precondition."""
    ring = config.ring_length
    off = np.flatnonzero(~((state.x >= 0.0) & (state.x < ring)))
    if off.size:
        i = int(off[0])
        raise ValueError(f"position {float(state.x[i])!r} of vehicle {i} is outside "
                         f"[0, ring_length {ring})")
    off = np.flatnonzero((state.v < 0.0) | (state.v > V_FREE))
    if off.size:
        i = int(off[0])
        raise ValueError(f"speed {float(state.v[i])!r} of vehicle {i} is outside "
                         f"[0, v_max {V_FREE}]")


def run_blocks(state: RingState, config: SimConfig) -> Iterator[TrajectoryLog]:
    """Integrate every ring of a prepared state, yielding its samples in blocks.

    A block holds up to BLOCK_SAMPLES post-warmup samples as (b, n) views
    of buffers that the next block overwrites, and the violations and
    ring failures (``errors``) since the previous block, or up to the end
    for the last; a violation names its ring and the follower's number
    in it. A ring whose desired acceleration goes non-finite fails at
    that step: its message goes to ``errors``, its violations of that
    step are dropped and its state turns NaN, while the other rings step
    on unchanged. Every position must lie in [0, ring_length) and every
    speed in [0, V_FREE] (a NaN speed fails at the step instead).
    """
    _check_start(state, config)
    sampled = config.sample_steps
    size = min(BLOCK_SAMPLES, len(sampled))
    ks, xs, vs, accs = np.empty(size), *(np.empty((size, state.n)) for _ in range(3))
    violations: list[Violation] = []
    errors: dict[int, str] = {}
    table = _build_table(state)
    x, v, a = state.x[table.order], state.v[table.order], state.a[table.order]
    row = 0  # samples in this block
    for k in range(sampled.stop):
        if k in sampled:
            if row == size:
                yield TrajectoryLog(ks * config.dt, xs, vs, accs, violations, errors)
                row, violations, errors = 0, [], {}
            # back to state order, into the block's reused rows
            slot = table.slot
            ks[row], xs[row], vs[row], accs[row] = k, x[slot], v[slot], a[slot]
            row += 1
        x, v, a, vi, vg, failed = _advance(x, v, a, config, table)
        errors.update(failed)
        for r in failed:
            gone = table.slot[table.bounds[r]:table.bounds[r + 1]]
            x[gone] = v[gone] = a[gone] = np.nan
        if vi.size:
            rings = np.searchsorted(table.bounds, vi, "right") - 1
            violations.extend(Violation(k * config.dt, i, gp, r) for i, gp, r in zip(
                (vi - table.bounds[rings]).tolist(), vg.tolist(), rings.tolist())
                if r not in failed)
    yield TrajectoryLog(ks[:row] * config.dt, xs[:row], vs[:row], accs[:row], violations, errors)

