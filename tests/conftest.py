"""Shared helpers: one-cell runs, hand-made ring states and the acceptance verdict log."""

import contextlib
import os
import signal
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import settings

# CI runs ``pytest --hypothesis-profile=ci``: derandomized examples, so a
# red build fails the same way locally under the same command
settings.register_profile("ci", derandomize=True, print_blob=True)

# verdict lines collected by tests/test_acceptance.py; emitted after the
# run so they survive pytest's fd-level output capture
VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


@contextlib.contextmanager
def reaps_every_child(seconds: int = 60):
    """Fail a block that runs over ``seconds``, or that leaves a child process,
    even a finished one that no one waited for."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


from dataclasses import dataclass, replace
from functools import partial

from platoonflow import ring as engine
from platoonflow.controllers import (H_FOLLOWER, H_LEADER, V_FREE, VEHICLE_LENGTH,
                                     ControlContext, Strategy, equilibrium_gap)
from platoonflow.energy import sample_rates, summarize
from platoonflow.fleet import VehicleClass, draw_flags
from platoonflow.platoons import STRATEGIES
from platoonflow.ring import GAP_FLOOR, RingState, TrajectoryLog

HV, LV1, LV2, PV = VehicleClass
CLASSES = list(VehicleClass)  # role code -> class


class SimulationError(RuntimeError):
    """A ring's run stopped being numerically meaningful.

    The engine records such a ring's message in ``TrajectoryLog.errors``
    and steps on; the one-ring helpers raise it instead.
    """


# One cell on its own ring, the way the sweep builds and runs each of a
# chunk's rings, and the whole log of a run, the reference the streamed
# blocks are checked against. The engine is looked up through its module
# at call time, so a test that wraps ``ring.build_rings`` or
# ``ring.run_blocks`` runs its states here too.

def init_state(config, density, p, combo_id, intensity=1.0, seed=None):
    """Evenly spaced standstill start of one cell's ring."""
    fleet = engine.cell_fleet(config, density, p, intensity)
    return engine.build_rings(config, draw_flags(fleet, [seed])[0], [fleet.n_vehicles],
                              [combo_id])


def run(config, density, p, combo_id, intensity=1.0, seed=None):
    """Log of one cell's run; raises SimulationError if the ring fails."""
    log = run_state(init_state(config, density, p, combo_id, intensity, seed), config)
    if log.errors:
        raise SimulationError(log.errors[0])
    return log


def run_state(state, config):
    """The whole log of ``ring.run_blocks``: every sample, violation and failure kept."""
    blocks = [(b.times, b.x.copy(), b.v.copy(), b.a.copy(), b.violations, b.errors)
              for b in engine.run_blocks(state, config)]
    times, x, v, a, violations, errors = zip(*blocks)
    return TrajectoryLog(times=np.concatenate(times), x=np.concatenate(x),
                         v=np.concatenate(v), a=np.concatenate(a),
                         violations=[w for part in violations for w in part],
                         errors={r: e for part in errors for r, e in part.items()})


def split_log(log, state):
    """Per-ring logs of a run on ``state``, in ring order.

    Each ring's x, v and a are (m, n) views of the stacked columns, not
    copies; flattened in C order, a view yields its samples in the order
    of the log of the ring run alone. A failed ring's log carries its
    message as ``errors[0]``, and its violations name ring 0, as a ring
    run alone does.
    """
    bounds = [*state.starts, state.n]
    by_ring = [[] for _ in state.starts]
    for viol in log.violations:
        by_ring[viol.ring].append(replace(viol, ring=0))
    for r in range(len(state.starts)):
        cols = slice(bounds[r], bounds[r + 1])
        yield TrajectoryLog(times=log.times, x=log.x[:, cols], v=log.v[:, cols],
                            a=log.a[:, cols], violations=by_ring[r],
                            errors={0: log.errors[r]} if r in log.errors else {})


def reduce_log(log):
    """The metrics (``summarize``) of one log's samples, from each rate's plain mean."""
    if log.v.size == 0:
        raise ValueError("log holds no samples")
    return summarize([np.mean(rate) for rate in sample_rates(log.v, log.a)])


def uniform_state(x, v, strategy, h=H_FOLLOWER):
    """One ring whose vehicles all drive ``strategy``, built from columns.

    ``h`` is the CTG time gap; a BS vehicle reads its own follower.
    """
    n = len(x)
    own = np.arange(n)
    return RingState(x=np.array(x, dtype=float), v=np.array(v, dtype=float),
                     a=np.zeros(n),
                     strategy=np.full(n, STRATEGIES.index(strategy), dtype=np.int8),
                     h=np.full(n, h if strategy is Strategy.CTG else np.nan),
                     leader=own, hops=np.zeros(n),
                     rear=(own + 1) % n if strategy is Strategy.BS else own)


def stack(states):
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


def equilibrium_flow(strategy, v_e, n=10, h=H_FOLLOWER):
    """Homogeneous ring at a controller's equilibrium gap and speed.

    Returns (state, ring_length); the caller picks dt and duration. The
    bidirectional model reads its own rear gap, so at uniform spacing
    the balance term is zero and the flow should hold still.
    """
    gap = float(equilibrium_gap(strategy, v_e, h=h))
    spacing = gap + VEHICLE_LENGTH
    ring = spacing * n
    x = (-spacing * np.arange(n, dtype=float)) % ring
    return uniform_state(x, np.full(n, float(v_e)), strategy, h), ring


# The object wiring that platoons.wire replaced: labels grouped into
# Platoon objects, one Assignment per vehicle, and the per-vehicle loop
# that turned assignments into table columns. Kept as the reference the
# array wiring is checked against.

@dataclass(frozen=True)
class Platoon:
    leader: int               # ring index of the LV
    members: tuple[int, ...]  # ring indices in following order, leader first

    @property
    def tail(self) -> int:
        return self.members[-1]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Assignment:
    strategy: Strategy
    h: float | None = None          # CTG time gap, s
    leader: int | None = None       # platoon leader ring index (CS followers)
    hops: int | None = None         # gaps between leader and self (CS followers)
    rear_source: int | None = None  # whose rear gap feeds the bidirectional term


def form_platoons(labels, s_max=4):
    """Every LV1/LV2 starts a platoon; the PVs behind it (circularly) join it."""
    n = len(labels)
    if n == 0:
        raise ValueError("empty sequence")
    leader_idx = [i for i in range(n) if labels[i] in (LV1, LV2)]
    pv_total = sum(1 for c in labels if c is PV)
    if not leader_idx:
        if pv_total:
            raise ValueError("PV present but no platoon leader in the sequence")
        return []
    platoons = []
    claimed = 0
    for lead in leader_idx:
        members = [lead]
        i = (lead + 1) % n
        while labels[i] is PV and len(members) < n:
            members.append(i)
            i = (i + 1) % n
        claimed += len(members) - 1
        if len(members) > s_max:
            raise ValueError(f"platoon at {lead} has {len(members)} members, "
                             f"cap is {s_max}")
        platoons.append(Platoon(lead, tuple(members)))
    if claimed != pv_total:
        raise ValueError(f"{pv_total - claimed} PV(s) not preceded by any platoon leader")
    return platoons


def rear_gap_source(platoon, index, pv_strategy):
    """With CS followers a BS leader senses the gap behind the tail, else its own."""
    if pv_strategy is Strategy.CS:
        return platoon.tail
    return index


def assign_strategies(labels, platoons, combo):
    lv, pv = combo
    assignments = [Assignment(Strategy.HV) if cls is HV else None for cls in labels]
    for plat in platoons:
        for pos, idx in enumerate(plat.members):
            role_strategy = lv if pos == 0 else pv
            h = None
            if role_strategy is Strategy.CTG:
                h = H_LEADER if pos == 0 else H_FOLLOWER
            leader = hops = rear = None
            if role_strategy is Strategy.CS:
                leader = plat.leader
                hops = pos
            if role_strategy is Strategy.BS:
                rear = rear_gap_source(plat, idx, pv)
            assignments[idx] = Assignment(role_strategy, h=h, leader=leader,
                                          hops=hops, rear_source=rear)
    missing = [i for i, a in enumerate(assignments) if a is None]
    if missing:
        raise ValueError(f"vehicles {missing} are in no platoon and not HV")
    return assignments


def reference_columns(codes, combo, s_max):
    """(strategy, h, leader, hops, rear) of one ring through the object path."""
    labels = [CLASSES[c] for c in codes]
    assignments = assign_strategies(labels, form_platoons(labels, s_max), combo)
    n = len(labels)
    strategy = np.empty(n, dtype=np.int8)
    h = np.full(n, np.nan)
    leader, rear = np.arange(n), np.arange(n)
    hops = np.zeros(n)
    for i, asg in enumerate(assignments):
        strategy[i] = STRATEGIES.index(asg.strategy)
        if asg.strategy is Strategy.CTG:
            h[i] = asg.h
        elif asg.strategy is Strategy.CS:
            leader[i], hops[i] = asg.leader, asg.hops
        elif asg.strategy is Strategy.BS:
            rear[i] = (asg.rear_source + 1) % n
    return strategy, h, leader, hops, rear


# The step kernel as it was before the ring wraps lost their float
# remainder and the laws their contiguous slices: every wrap is a ``%``,
# and each law gathers its members, found from the state's own columns in
# state order. Kept as the reference ``ring._advance`` is checked against,
# bit for bit, through the kernel's permutation.

def reference_advance(x, v, a, config, state):
    """One synchronous step of ``state``'s rings from state-order arrays;
    returns new arrays plus observed violations."""
    ring = config.ring_length
    bounds = np.array((*state.starts, state.n))
    starts, sizes = bounds[:-1], np.diff(bounds)
    pred = np.arange(state.n) - 1
    pred[starts] = starts + sizes - 1
    dx = (x[pred] - x) % ring
    dx[starts[sizes == 1]] = ring  # a lone vehicle follows itself one lap ahead
    gap = dx - VEHICLE_LENGTH
    viol = np.flatnonzero(gap < 0.0)
    gap_c = np.maximum(gap, GAP_FLOOR)

    law_of = {Strategy.HV: engine.hv_accel, Strategy.CTG: engine.ctg_accel,
              Strategy.VTG1: engine.vtg1_accel, Strategy.VTG2: engine.vtg2_accel,
              Strategy.CS: engine.cs_accel, Strategy.BS: engine.bdbm_accel}
    u = np.zeros(x.size)
    for code, strategy in enumerate(STRATEGIES):
        i = np.flatnonzero(state.strategy == code)
        if not i.size:
            continue
        law = law_of[strategy]
        ctx = ControlContext(v=v[i], gap=gap_c[i], v_pred=v[pred[i]], a_pred=a[pred[i]])
        if strategy is Strategy.CTG:
            law = partial(law, h=state.h[i])
        elif strategy is Strategy.CS:
            leader = state.leader[i]
            ctx.leader_dx = (x[leader] - x[i]) % ring
            ctx.v_leader, ctx.a_leader, ctx.leader_hops = v[leader], a[leader], state.hops[i]
        elif strategy is Strategy.BS:
            ctx.follower_gap = gap_c[state.rear[i]]
        u[i] = law(ctx)

    bad = np.flatnonzero(~np.isfinite(u))
    if bad.size:
        i = int(bad[0])
        j = pred[i]
        first = bounds[np.searchsorted(bounds, i, "right") - 1]
        raise SimulationError(
            f"non-finite desired acceleration for vehicle {i - first}: "
            f"v={v[i]!r} gap={gap_c[i]!r} v_pred={v[j]!r} a_pred={a[j]!r}")

    a_cmd = np.clip(u, engine.A_MIN, engine.A_MAX)
    v_new = np.clip(v + a_cmd * config.dt, 0.0, V_FREE)
    x_new = (x + 0.5 * (v + v_new) * config.dt) % ring
    a_eff = (v_new - v) / config.dt
    return x_new, v_new, a_eff, viol, gap[viol]
