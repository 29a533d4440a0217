"""Strategy combos and the per-vehicle control wiring of one ring.

A platoon is a leader (LV1 or LV2) plus the run of PVs behind it, as
``fleet.role_codes`` labels them. Membership is fixed at initialization;
the dynamics never regroup. ``wire`` turns one ring's role codes and its
combo into the columns of the engine's vehicle table.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# strategy codes are positions in Strategy order, role codes in VehicleClass order
STRATEGIES = tuple(Strategy)
_ROLES = tuple(VehicleClass)


def wire(codes: np.ndarray, combo: StrategyCombo) -> tuple[np.ndarray, ...]:
    """Control wiring of one ring from its role codes (``fleet.role_codes``).

    Returns ``(strategy, h, leader, hops, rear)``, one entry per vehicle:
    the strategy code (HVs drive HV, leaders ``combo.lv``, PVs
    ``combo.pv``); the CTG time gap, H_LEADER for a leader and
    H_FOLLOWER for a follower, NaN elsewhere; a CS vehicle's platoon
    leader and the gaps between it and the vehicle; and the vehicle
    whose front gap a BS vehicle reads as its rear gap. With CS
    followers the platoon moves as one extended vehicle, so that is the
    vehicle behind the platoon's tail, else the vehicle's own follower.
    An index a vehicle's law does not read is the vehicle itself, and
    unread hops are 0.
    """
    code, role = STRATEGIES.index, _ROLES.index
    codes = np.asarray(codes)
    n = codes.size
    own = np.arange(n)
    pv = codes == role(VehicleClass.PV)
    lead = (codes == role(VehicleClass.LV1)) | (codes == role(VehicleClass.LV2))
    strategy = np.full(n, code(Strategy.HV), dtype=np.int8)
    strategy[lead] = code(combo.lv)
    strategy[pv] = code(combo.pv)
    ctg = strategy == code(Strategy.CTG)
    h = np.where(ctg & lead, H_LEADER, np.where(ctg & pv, H_FOLLOWER, np.nan))
    # On the row doubled to [c, c], the last leader at or before column
    # n + i leads vehicle i's platoon, and the first non-PV after column
    # i is the vehicle behind the tail of the platoon that i leads.
    cols = np.arange(2 * n)
    last_lead = np.maximum.accumulate(np.where(np.tile(lead, 2), cols, -1))[n:]
    after_tail = np.minimum.accumulate(np.where(np.tile(~pv, 2), cols, 2 * n)[::-1])[::-1]
    cs = strategy == code(Strategy.CS)
    leader = np.where(cs, last_lead % n, own)
    hops = np.where(cs, own + n - last_lead, 0).astype(float)
    behind = after_tail[1:n + 1] if combo.pv is Strategy.CS else own + 1
    rear = np.where(strategy == code(Strategy.BS), behind % n, own)
    return strategy, h, leader, hops, rear
