"""Fleet composition for a mixed CAV / human-driven ring.

A two-state Markov walk (human-driven vs automated) generates the order
of vehicle types around the ring; automated vehicles are then labeled by
the role they play in a platoon. The closed-form class probabilities
below describe the stationary behaviour of that walk, with a separate
branch for full platoon intensity where all CAVs sit in one block.

Rings are drawn and labeled as arrays: ``draw_flags`` gives a bool
``(runs, n)`` array of CAV flags, one ring per row. The uniforms of all
rows come from one buffer of generator bits, and the walk is solved for
all rows and columns at once by two scans. ``role_codes`` labels any
number of rings of any sizes laid back to back, as small-int role codes
in VehicleClass order (``HV``, ``LV1``, ``LV2``, ``PV``). Both are
arithmetic on the flags, not selects (a branch per random flag), with no
Python or numpy call per vehicle or column.

The role codes are the one index of the classes: ``CLASSES[c]`` names
code c, and ``class_probabilities`` (the closed form) and
``empirical_distribution`` (the counted codes) return the four class
shares as one tuple indexed by code, as ``platoons.COMBO_LAWS`` holds a
combo's laws.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class VehicleClass(Enum):
    HV = "HV"    # human-driven
    LV1 = "LV1"  # platoon leader directly behind an HV
    LV2 = "LV2"  # platoon leader created by the size cap
    PV = "PV"    # in-platoon follower

    def __str__(self) -> str:
        return self.value


# role codes are positions in VehicleClass order
CLASSES = tuple(VehicleClass)
HV, LV1, LV2, PV = (np.int8(i) for i in range(len(CLASSES)))
S_MAX = 4  # platoon size cap of every ring; role_codes takes any cap as an input


@dataclass(frozen=True)
class FleetSpec:
    n_vehicles: int
    p: float           # CAV penetration rate, 0..1
    intensity: float   # platoon intensity O, 0..1

    def __post_init__(self) -> None:
        if self.n_vehicles < 1:
            raise ValueError(f"need at least one vehicle, got {self.n_vehicles}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"penetration p must be in [0, 1], got {self.p}")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {self.intensity}")


@dataclass(frozen=True)
class TransitionProbs:
    """One-step transitions of the vehicle-type walk (H = human, A = automated)."""

    t_hh: float
    t_ha: float
    t_ah: float
    t_aa: float


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def transition_probs(p: float, intensity: float) -> TransitionProbs:
    """Transition probabilities as functions of penetration and intensity."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"penetration p must be in [0, 1], got {p}")
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    t_ah = (1.0 - intensity) * (1.0 - p)
    t_ha = (1.0 - intensity) * p
    return TransitionProbs(t_hh=1.0 - t_ha, t_ha=t_ha, t_ah=t_ah, t_aa=1.0 - t_ah)


def class_probabilities(p: float, intensity: float, s_max: int) -> tuple[float, ...]:
    """Closed-form class shares, indexed by role code (``HV``, ``LV1``,
    ``LV2``, ``PV``); the shares of the CAV roles sum to p.

    At full intensity (or p = 1) the walk never leaves the automated
    state, so the geometric-run formulas degenerate; that branch uses
    the block-chunking result instead: no LV1, one leader per s_max.
    """
    if s_max < 1:
        raise ValueError(f"platoon size cap must be >= 1, got {s_max}")
    t = transition_probs(p, intensity)
    if t.t_aa == 0.0:
        # intensity 0 and p ~ 0: every CAV follows an HV and leads alone
        return 1.0 - p, (1.0 - p) * t.t_ha, 0.0, 0.0
    if t.t_ah == 0.0:
        # intensity 1 or p 1: a single contiguous CAV block
        return 1.0 - p, 0.0, p / s_max, (s_max - 1) * p / s_max
    # log1p/expm1 keep 1 - t_aa^S accurate when t_ah is tiny (intensity -> 1)
    log_taa = math.log1p(-t.t_ah)
    taa_s = math.exp(s_max * log_taa)
    one_minus_taa_s = -math.expm1(s_max * log_taa)
    one_minus_taa_sm1 = -math.expm1((s_max - 1) * log_taa)
    p_lv1 = (1.0 - p) * t.t_ha
    p_lv2 = taa_s * p_lv1 / one_minus_taa_s
    p_pv = t.t_aa * one_minus_taa_sm1 * p_lv1 / (t.t_ah * one_minus_taa_s)
    return 1.0 - p, p_lv1, p_lv2, p_pv


def role_codes(flags: np.ndarray, sizes: Sequence[int], s_max: int) -> np.ndarray:
    """Platoon role codes of circular CAV/HV rings, in VehicleClass order.

    ``flags`` holds the rings' CAV flags back to back (True for a CAV)
    and ``sizes`` the vehicles of each ring, in order. Each maximal
    circular run of CAVs is chunked: the run head is LV1 (it sits behind
    an HV), every offset that is a multiple of s_max starts a fresh
    platoon as LV2, everything else is PV. A ring with no HV has no run
    head, so its offsets count from its first vehicle and its chunk
    starts are all LV2.
    """
    if s_max < 1:
        raise ValueError(f"platoon size cap must be >= 1, got {s_max}")
    flags = np.asarray(flags, dtype=bool).ravel()
    sizes = np.asarray(sizes, dtype=np.int32)
    if sizes.ndim != 1 or not sizes.size or sizes.min() < 1 or sizes.sum() != flags.size:
        raise ValueError(f"ring sizes {sizes.tolist()} do not split {flags.size} vehicles")
    ends = np.cumsum(sizes, dtype=np.int32)
    starts = ends - sizes
    # offsets are below the ring size, so any larger cap acts the same;
    # this keeps it in int32
    s_max = min(s_max, int(sizes.max()) + 1)
    # The last HV at or before a vehicle heads its run. Before a ring's
    # first HV the run wraps the ring end: it is headed by the ring's last
    # HV, one lap back; a ring without HV counts from one before its first
    # vehicle.
    index = np.arange(flags.size, dtype=np.int32)
    head = np.maximum.accumulate(index - (index + 1) * flags)  # HV: its index, CAV: -1
    last_hv = head[ends - 1]
    no_hv = last_hv < starts
    wrapped = np.where(no_hv, starts - 1, last_hv - sizes)
    before = head < np.repeat(starts, sizes)
    head[before] = np.repeat(wrapped, sizes)[before]
    offset = index - head - 1
    # a CAV is PV, less one at a multiple of s_max (LV2), less two at offset 0 (LV1)
    codes = flags * (PV - (offset == offset // s_max * s_max) - (offset == 0))
    codes[starts[no_hv]] = LV2  # the first CAV of a ring without HV is no LV1
    return codes


def draw_flags(spec: FleetSpec, seeds: Sequence[int | None]) -> np.ndarray:
    """CAV flags of one ring per seed, as a bool ``(len(seeds), n)`` array.

    Full intensity is deterministic: round_half_up(p * n) CAVs in one
    block after the HVs, the same row for every seed. Below full
    intensity each row is a linear Markov walk fed by the uniforms of
    ``random.Random(seed).random()``: the first vehicle is automated
    with probability p (the walk's stationary law), and vehicle j is
    automated when u_j < t_AA after a CAV or u_j < t_HA after an HV. The
    wrap transition is not constrained, but labeling is still circular.
    """
    n = spec.n_vehicles
    if spec.intensity == 1.0:
        flags = np.zeros((len(seeds), n), dtype=bool)
        flags[:, n - round_half_up(spec.p * n):] = True
        return flags
    return _walk(_uniforms(seeds, n), spec)


def _uniforms(seeds: Sequence[int | None], n: int) -> np.ndarray:
    """The first n ``random.Random(seed).random()`` values of each seed, one row per seed.

    ``getrandbits(64 * n)`` packs the generator's next 2n 32-bit outputs
    as little-endian words, in order, and ``random()`` makes one double
    of each pair (a, b) of outputs as ((a >> 5) * 2**26 + (b >> 6)) / 2**53,
    so the same formula on the words gives the same bits.
    """
    rng = random.Random()
    seed_rng = super(random.Random, rng).seed  # Random.seed of an int, less its type dispatch
    buf = bytearray()
    for seed in seeds:
        seed_rng(seed)
        buf += rng.getrandbits(64 * n).to_bytes(8 * n, "little")
    words = np.frombuffer(buf, "<u4").reshape(len(seeds), n, 2)
    words[..., 0] >>= 5
    words[..., 1] >>= 6
    u = words[..., 0].astype(np.float64)
    u *= 2.0 ** 26
    u += words[..., 1]
    u /= 2.0 ** 53
    return u


def _walk(u: np.ndarray, spec: FleetSpec) -> np.ndarray:
    """CAV flags of the Markov walk over each row of uniforms ``u``.

    Step j maps the previous flag f to u_j < t_AA if f else u_j < t_HA.
    Where the two tests agree the step sets a constant; where only the
    t_AA test holds it copies f; where only the t_HA test holds (t_AA
    rounds below t_HA, as at p = 0.1, O = 0) it negates f. Column 0 is
    the constant u_0 < p. So each flag is the value at the last constant
    column, flipped once per negating step since then.
    """
    t = transition_probs(spec.p, spec.intensity)
    value = u < t.t_aa
    after_hv = u < t.t_ha
    const = value == after_hv
    negate = after_hv > value
    const[:, 0] = True
    value[:, 0] = u[:, 0] < spec.p
    # The rows are scanned back to back. Every row starts on a constant
    # column, so a vehicle's last constant column is in its own row.
    value, const, negate = value.ravel(), const.ravel(), negate.ravel()
    last = np.maximum.accumulate(np.arange(u.size) * const)
    # odd negations up to each vehicle; a constant step negates nothing,
    # so the flips since the last constant column (earlier rows' included
    # in both terms) are odd[last] ^ odd
    odd = np.logical_xor.accumulate(negate)
    flags = (value ^ odd)[last]
    flags ^= odd
    return flags.reshape(u.shape)


def empirical_distribution(codes: np.ndarray) -> tuple[float, ...]:
    """Class frequencies over all role codes given (any shape), indexed
    by role code."""
    codes = np.asarray(codes)
    if codes.size == 0:
        raise ValueError("no vehicles to count")
    return tuple(count / codes.size
                 for count in np.bincount(codes.ravel(), minlength=len(CLASSES)).tolist())


def goodness_of_fit(empirical: Sequence[float], theoretical: Sequence[float]) -> dict:
    """``{"r2", "rmse", "note"}`` of a theoretical curve against empirical
    points; the note is empty unless the fit is degenerate."""
    if len(empirical) != len(theoretical):
        raise ValueError(f"curve lengths differ: {len(empirical)} vs {len(theoretical)}")
    if len(empirical) == 0:
        raise ValueError("empty curves")
    n = len(empirical)
    ss_res = sum((e - t) ** 2 for e, t in zip(empirical, theoretical))
    mean_emp = sum(empirical) / n
    ss_tot = sum((e - mean_emp) ** 2 for e in empirical)
    rmse = math.sqrt(ss_res / n)
    # a curve that is constant to rounding error has no variance to explain
    scale = max(1.0, max(abs(e) for e in empirical))
    if ss_tot <= n * (1e-12 * scale) ** 2:
        return {"r2": math.nan, "rmse": rmse, "note": "degenerate: empirical curve is constant"}
    return {"r2": 1.0 - ss_res / ss_tot, "rmse": rmse, "note": ""}
