"""Strategy combos and the per-vehicle control wiring of rings.

A combo pairs a leader spacing law with a follower law (``COMBOS``).
``COMBO_LAWS`` holds that choice as the strategy code of each role code
under each combo; ``wire`` and ``ring.ring_key`` both read it. A
platoon is a leader (LV1 or LV2) plus the run of PVs behind it, as
``fleet.role_codes`` labels them. Membership is fixed at
initialization; the dynamics never regroup. ``wire`` turns the role
codes of any number of rings, laid back to back, and each ring's combo
id into the columns of the engine's vehicle table in one pass, with no
loop over rings.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .controllers import H_FOLLOWER, H_LEADER, Strategy
from .fleet import LV1, LV2, PV

# combo id -> (spacing law of platoon leaders, of in-platoon followers)
COMBOS: dict[int, tuple[Strategy, Strategy]] = {
    1: (Strategy.CTG, Strategy.CTG),
    2: (Strategy.VTG1, Strategy.VTG1),
    3: (Strategy.VTG2, Strategy.VTG2),
    4: (Strategy.BS, Strategy.BS),
    5: (Strategy.CTG, Strategy.CS),
    6: (Strategy.VTG1, Strategy.CTG),
    7: (Strategy.VTG1, Strategy.CS),
    8: (Strategy.VTG2, Strategy.CTG),
    9: (Strategy.VTG2, Strategy.CS),
    10: (Strategy.BS, Strategy.CS),
}


def check_combos(combo_ids, where: str = "") -> None:
    """ValueError naming the first of ``combo_ids`` that is not in COMBOS, after ``where``."""
    if unknown := [c for c in combo_ids if c not in COMBOS]:
        raise ValueError(f"{where}unknown strategy combo {unknown[0]}; valid combos are "
                         f"{', '.join(map(str, sorted(COMBOS)))}")


# strategy codes are positions in Strategy order
STRATEGIES = tuple(Strategy)
# Row c holds the strategy code of each role code (HV, LV1, LV2, PV)
# under combo c. No combo has id 0, so row 0 is filler (all HV).
COMBO_LAWS = np.zeros((max(COMBOS) + 1, 4), dtype=np.int8)
for _combo, (_lv, _pv) in COMBOS.items():
    COMBO_LAWS[_combo] = [STRATEGIES.index(s) for s in (Strategy.HV, _lv, _lv, _pv)]
# each role's CTG time gap under each combo, NaN where its law is not CTG
_GAPS = np.where(COMBO_LAWS == STRATEGIES.index(Strategy.CTG),
                 [np.nan, H_LEADER, H_LEADER, H_FOLLOWER], np.nan)
COMBO_LAWS.flags.writeable = _GAPS.flags.writeable = False


def wire(codes: np.ndarray, sizes: Sequence[int],
         combo_ids: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Control wiring of rings from their role codes (``fleet.role_codes``).

    ``codes`` holds the rings' codes back to back, ``sizes`` the vehicles
    of each ring and ``combo_ids`` the combo of each ring (ValueError for
    one not in ``COMBOS``). Returns ``(strategy, h, leader, hops, rear)``,
    one entry per vehicle: the strategy code (``COMBO_LAWS``); the CTG
    time gap, H_LEADER for a leader and H_FOLLOWER for a follower, NaN
    elsewhere; a CS vehicle's platoon leader and the gaps between it and
    the vehicle; and the vehicle whose front gap a BS vehicle reads as
    its rear gap. With CS followers the platoon moves as one extended
    vehicle, so that is the vehicle behind the platoon's tail, else the
    vehicle's own follower. Leader and rear are indices into ``codes``,
    inside the vehicle's own ring. An index a vehicle's law does not
    read is the vehicle itself, and unread hops are 0.
    """
    check_combos(combo_ids)  # a negative id would index from the end
    code = STRATEGIES.index
    codes = np.asarray(codes)
    sizes = np.asarray(sizes)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    ring = np.repeat(np.arange(sizes.size), sizes)
    combo = np.repeat(np.asarray(combo_ids, dtype=np.intp), sizes)
    first = starts[ring]
    own = np.arange(codes.size)
    strategy = COMBO_LAWS[combo, codes]
    h = _GAPS[combo, codes]
    pv = codes == PV
    lead = (codes == LV1) | (codes == LV2)
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
    cs_platoon = COMBO_LAWS[combo, PV] == code(Strategy.CS)
    behind = np.where(cs_platoon, behind_tail, follower)
    rear = np.where(strategy == code(Strategy.BS), behind, own)
    return strategy, h, leader, hops, rear
