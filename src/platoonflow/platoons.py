"""Strategy combos and the per-vehicle control wiring of rings.

A platoon is a leader (LV1 or LV2) plus the run of PVs behind it, as
``fleet.role_codes`` labels them. Membership is fixed at initialization;
the dynamics never regroup. ``wire`` turns the role codes of any number
of rings, laid back to back, and each ring's combo into the columns of
the engine's vehicle table in one pass, with no loop over rings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .controllers import H_FOLLOWER, H_LEADER, Strategy
from .fleet import VehicleClass


@dataclass(frozen=True)
class StrategyCombo:
    combo_id: int
    lv: Strategy  # spacing policy of platoon leaders
    pv: Strategy  # spacing policy of in-platoon followers


COMBOS: dict[int, StrategyCombo] = {c.combo_id: c for c in (
    StrategyCombo(1, Strategy.CTG, Strategy.CTG),
    StrategyCombo(2, Strategy.VTG1, Strategy.VTG1),
    StrategyCombo(3, Strategy.VTG2, Strategy.VTG2),
    StrategyCombo(4, Strategy.BS, Strategy.BS),
    StrategyCombo(5, Strategy.CTG, Strategy.CS),
    StrategyCombo(6, Strategy.VTG1, Strategy.CTG),
    StrategyCombo(7, Strategy.VTG1, Strategy.CS),
    StrategyCombo(8, Strategy.VTG2, Strategy.CTG),
    StrategyCombo(9, Strategy.VTG2, Strategy.CS),
    StrategyCombo(10, Strategy.BS, Strategy.CS),
)}


def check_combos(combo_ids, where: str = "") -> None:
    """ValueError naming the first of ``combo_ids`` that is not in COMBOS, after ``where``."""
    if unknown := [c for c in combo_ids if c not in COMBOS]:
        raise ValueError(f"{where}unknown strategy combo {unknown[0]}; valid combos are "
                         f"{', '.join(map(str, sorted(COMBOS)))}")


# strategy codes are positions in Strategy order, role codes in VehicleClass order
STRATEGIES = tuple(Strategy)
_ROLES = tuple(VehicleClass)


def wire(codes: np.ndarray, sizes: Sequence[int],
         combos: Sequence[StrategyCombo]) -> tuple[np.ndarray, ...]:
    """Control wiring of rings from their role codes (``fleet.role_codes``).

    ``codes`` holds the rings' codes back to back, ``sizes`` the vehicles
    of each ring and ``combos`` the combo of each ring. Returns
    ``(strategy, h, leader, hops, rear)``, one entry per vehicle: the
    strategy code (HVs drive HV, leaders ``combo.lv``, PVs
    ``combo.pv``); the CTG time gap, H_LEADER for a leader and
    H_FOLLOWER for a follower, NaN elsewhere; a CS vehicle's platoon
    leader and the gaps between it and the vehicle; and the vehicle
    whose front gap a BS vehicle reads as its rear gap. With CS
    followers the platoon moves as one extended vehicle, so that is the
    vehicle behind the platoon's tail, else the vehicle's own follower.
    Leader and rear are indices into ``codes``, inside the vehicle's own
    ring. An index a vehicle's law does not read is the vehicle itself,
    and unread hops are 0.
    """
    code, role = STRATEGIES.index, _ROLES.index
    codes = np.asarray(codes)
    sizes = np.asarray(sizes)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    ring = np.repeat(np.arange(sizes.size), sizes)
    first = starts[ring]
    own = np.arange(codes.size)
    # per ring, the strategy code and CTG time gap of each role, in role-code order
    by_role = np.array([[code(Strategy.HV), code(c.lv), code(c.lv), code(c.pv)]
                        for c in combos], dtype=np.int8)
    gap_by_role = np.where(by_role == code(Strategy.CTG),
                           [np.nan, H_LEADER, H_LEADER, H_FOLLOWER], np.nan)
    strategy = by_role[ring, codes]
    h = gap_by_role[ring, codes]
    pv = codes == role(VehicleClass.PV)
    lead = (codes == role(VehicleClass.LV1)) | (codes == role(VehicleClass.LV2))
    # The last leader at or before a vehicle leads its platoon; before a
    # ring's first leader the platoon wraps the ring end, led by the
    # ring's last leader.
    leader_of = np.maximum.accumulate(np.where(lead, own, -1))
    lap = leader_of < first
    leader_of[lap] = leader_of[ends - 1][ring[lap]]
    cs = strategy == code(Strategy.CS)
    leader = np.where(cs, leader_of, own)
    hops = np.where(cs, own - leader_of + sizes[ring] * lap, 0).astype(float)
    # The first non-PV from a leader's follower on is the vehicle behind
    # the tail of its platoon; past the ring's last non-PV that is the
    # ring's first non-PV.
    follower = own + 1
    follower[ends - 1] = starts
    after = np.minimum.accumulate(np.where(pv, codes.size, own)[::-1])[::-1]
    behind_tail = after[follower]
    past = behind_tail >= ends[ring]
    behind_tail[past] = after[first[past]]
    cs_platoon = by_role[ring, role(VehicleClass.PV)] == code(Strategy.CS)
    behind = np.where(cs_platoon, behind_tail, follower)
    rear = np.where(strategy == code(Strategy.BS), behind, own)
    return strategy, h, leader, hops, rear
