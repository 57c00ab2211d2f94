"""Vectorised FR-FCFS+Cap scan predictions for the batch engine.

:class:`ScanAccelerator` maintains, for every *eligible* lane of a
:class:`repro.sim.batch.BatchSimulator`, an array mirror of exactly the
state the controller's request scan reads — folded down to per-bank
*readiness gates*:

* ``col_gate``  — earliest cycle a RD/WR to the bank's open row can issue
  (bank tCCD/tRTP/tWR floors, bank maintenance block, rank block);
* ``pre_gate``  — earliest cycle the bank's open row can be precharged;
* ``act_gate``  — earliest cycle a new row can be activated (bank tRC/tRP
  floors, rank tRRD_s/tRRD_l spacing, tFAW window, maintenance blocks);
* ``urgent_at`` — the cycle from which the rank's refresh urgency crosses
  the threshold that silently fails closed-bank activations;

plus the scheduler-facing queue digest: first-hit/first-miss arrival
positions per (queue, bank) bucket, the per-bank cap saturation flag, and
the per-lane write-drain occupancy thresholds.  Each global cycle one
array program computes, for all predicted lanes at once, the decision the
controller's scan *would* reach — the winning request and whether it is a
row hit, or the stall bound of a fully-failed scan — and installs it as
the controller's one-shot scan prediction.

The prediction is *advisory by construction*: the controller validates it
against ``(cycle, channel issue serial, queue versions)`` and re-derives
every side effect through the ordinary ``_serve_first`` path, so a stale or
wrong prediction degrades to the scalar scan instead of diverging.  The
mirrors are therefore maintained for speed, not for safety: they are
synced *read-back style* from journals the channel and queues record
(never by re-implementing the update rules), which keeps them exact and
keeps the misprediction counters at zero in practice.

Mirror folding is lazy and engagement is adaptive: journals accumulate
per lane and are folded only when the lane is worth predicting — queue
depth at or above :data:`PREDICT_MIN_QUEUE`, where the scalar scan's
per-candidate cost exceeds the prediction's fixed cost.  Shallow-queue
lanes skip both the fold and the prediction and run the ordinary scalar
scan (with the controller's own failed-scan memo), so batching never
loses to solo runs on lightly-loaded workloads.  A lane whose journal
backlog outgrows :data:`REATTACH_JOURNAL_LEN` while dormant is
re-snapshotted from scratch instead of replayed.

Eligibility (checked once per lane, revoked permanently on violation):

* the scheduler is exactly :class:`FrFcfsCapScheduler` (the per-bank
  scan modelled here),
* the mitigation cannot veto activations: a BlockHammer-style veto floor
  belongs to a row, which the per-bank ``act_gate`` cannot carry, and the
  controller must count every attempt a scan vetoes,
* every queued request carries a decoded coordinate.

Channels with more banks than ``MAX_SCHEDULE_ATTEMPTS`` are handled by
modelling the scan's attempt budget: the per-bank scan tries decisions in
sequence order and gives up after ``MAX_SCHEDULE_ATTEMPTS`` failures, so
the winner is the first *ready* decision among the budget-many smallest
sequence keys, and a fully-failed scan stalls exactly those decisions.

Ineligible lanes simply run the scalar scan — still in lockstep, still
bit-identical.
"""

from __future__ import annotations

from typing import List, Tuple

try:  # numpy ships with the toolchain, but the engine degrades gracefully
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

from repro.controller.controller import MemoryController
from repro.controller.scheduler import FrFcfsCapScheduler
from repro.dram.commands import CommandType

#: Sentinel "no entry" position; larger than any real arrival position.
_BIG = 1 << 60
#: Sequence-key offset placing all miss decisions after all hit decisions
#: (the scan offers every bank's row hit before any miss).
_MISS_OFFSET = 1 << 48
#: Sequence key larger than any real or padded decision key.
_NO_DECISION = 1 << 62
#: "Never activated" last-ACT mirror value (only the sign is compared).
_NEG = -(1 << 60)

#: Combined read+write queue depth from which a lane's scan is predicted.
#: Below it the scalar scan (plus the controller's failed-scan memo) is
#: cheaper than the prediction's fixed per-lane cost.
PREDICT_MIN_QUEUE = 4

#: Journal backlog at which a dormant lane is re-snapshotted instead of
#: folding entry by entry.
REATTACH_JOURNAL_LEN = 512


def numpy_available() -> bool:
    return _np is not None


class ScanAccelerator:
    """Array mirrors + vectorised scan prediction over a set of lanes."""

    def __init__(self, lanes: List) -> None:
        if _np is None:  # pragma: no cover - guarded by numpy_available()
            raise RuntimeError("ScanAccelerator requires numpy")
        self.lanes = [lane for lane in lanes if self._eligible(lane)]
        self.any_eligible = bool(self.lanes)
        if not self.any_eligible:
            return
        for index, lane in enumerate(self.lanes):
            lane.mirror_index = index
            lane.eligible = True
        L = len(self.lanes)
        self.Bmax = B = max(lane.total_banks for lane in self.lanes)
        self.budget_mask_needed = B > MemoryController.MAX_SCHEDULE_ATTEMPTS

        i64 = _np.int64
        # Fused per-bank readiness gates (see module docstring).
        self.col_gate = _np.full((L, B), _BIG, dtype=i64)
        self.pre_gate = _np.full((L, B), _BIG, dtype=i64)
        self.act_gate = _np.full((L, B), _BIG, dtype=i64)
        self.urgent_at = _np.full((L, B), _BIG, dtype=i64)
        self.is_open = _np.zeros((L, B), dtype=bool)
        self.capped = _np.zeros((L, B), dtype=bool)
        # Raw per-bank floors, kept for rank-slice gate recomputes.
        self.next_act = _np.full((L, B), _BIG, dtype=i64)
        self.next_pre = _np.full((L, B), _BIG, dtype=i64)
        self.next_rdwr = _np.full((L, B), _BIG, dtype=i64)
        self.bank_blocked = _np.full((L, B), _BIG, dtype=i64)
        self.open_row = _np.full((L, B), -1, dtype=i64)
        # Static coordinate maps (padding banks map to rank/group/bank 0;
        # they never carry a decision because their queue cells stay empty).
        self.rank_of = _np.zeros((L, B), dtype=i64)
        self.bg_of = _np.zeros((L, B), dtype=i64)
        self.ba_of = _np.zeros((L, B), dtype=i64)
        # Per-lane scalars.
        self.bus_free = _np.zeros(L, dtype=i64)
        self.rq_len = _np.zeros(L, dtype=i64)
        self.wq_len = _np.zeros(L, dtype=i64)
        self.drain = _np.zeros(L, dtype=bool)
        self.drain_hi_at = _np.zeros(L, dtype=i64)
        self.drain_lo_at = _np.full(L, -1, dtype=i64)
        # First-hit / first-miss positions per (lane, queue, bank).
        self.hp = _np.full((L, 2, B), _BIG, dtype=i64)
        self.mp = _np.full((L, 2, B), _BIG, dtype=i64)
        self._all_idx = _np.arange(L)

        for lane in self.lanes:
            self._attach(lane)

    # ------------------------------------------------------------------ #
    # Lane setup
    # ------------------------------------------------------------------ #
    @staticmethod
    def _eligible(lane) -> bool:
        ctrl = lane.sim.system.controller
        if type(ctrl.scheduler) is not FrFcfsCapScheduler:
            return False
        if ctrl._gating_mitigation:
            return False
        cfg = ctrl.config
        lane.ctrl = ctrl
        lane.channel = ctrl.channel
        lane.total_banks = cfg.ranks * cfg.bank_groups * cfg.banks_per_group
        return True

    def _attach(self, lane) -> None:
        ctrl = lane.ctrl
        channel = lane.channel
        cfg = ctrl.config
        i = lane.mirror_index
        timing = ctrl.timing
        lane.BG = cfg.bank_groups
        lane.BA = cfg.banks_per_group
        lane.ranks = len(channel.ranks)
        lane.rank_banks = lane.BG * lane.BA
        lane.trefi_half = (timing.trefi + 1) // 2
        lane.trrd_s = timing.trrd_s
        lane.trrd_l = timing.trrd_l
        lane.cap = ctrl.scheduler.cap
        lane.predicting = False
        # True when a dormant lane's journals were discarded; the next
        # fold re-snapshots instead of replaying.
        lane.stale = False
        # Per-rank python scalars backing the per-bank gate recomputes.
        lane.rank_blocked = [0] * lane.ranks
        lane.last_act = [_NEG] * lane.ranks
        lane.last_bg = [-1] * lane.ranks
        lane.faw = [_NEG] * lane.ranks

        # Exact integer twins of the controller's float drain thresholds:
        # smallest occupancy with occ/cap >= high, largest with <= low.
        wq_cap = ctrl.write_queue.capacity
        hi, lo = ctrl._write_drain_high, ctrl._write_drain_low
        self.drain_hi_at[i] = next(
            (w for w in range(wq_cap + 1) if w / wq_cap >= hi), wq_cap + 1
        )
        self.drain_lo_at[i] = max(
            (w for w in range(wq_cap + 1) if w / wq_cap <= lo), default=-1
        )

        for r in range(lane.ranks):
            base = r * lane.rank_banks
            for bg in range(lane.BG):
                for ba in range(lane.BA):
                    fb = base + bg * lane.BA + ba
                    self.rank_of[i, fb] = r
                    self.bg_of[i, fb] = bg
                    self.ba_of[i, fb] = ba

        # Install journals and take the initial snapshot.
        channel.journal = []
        ctrl.read_queue.journal = []
        ctrl.write_queue.journal = []
        lane.buckets = [[[] for _ in range(self.Bmax)] for _ in range(2)]
        lane.push_count = [0, 0]
        lane.href = [None] * (2 * self.Bmax)
        lane.mref = [None] * (2 * self.Bmax)
        if not self._snapshot(lane):
            self._disable(lane)

    def _snapshot(self, lane) -> bool:
        """(Re)build every mirror of one lane from live state."""

        ctrl = lane.ctrl
        for r in range(lane.ranks):
            self._read_rank_scalars(lane, r)
            self._read_refresh(lane, r)
        for r in range(lane.ranks):
            for bg in range(lane.BG):
                for ba in range(lane.BA):
                    self._read_bank(lane, r, bg, ba)
            self._recompute_rank_gates(lane, r)
        buckets = lane.buckets
        for q in (0, 1):
            for cell in buckets[q]:
                cell.clear()
        lane.push_count = [0, 0]
        for q, queue in ((0, ctrl.read_queue), (1, ctrl.write_queue)):
            for req in queue:
                coord = req.coordinate
                if coord is None:
                    return False
                fb = self._flat(lane, coord)
                lane.push_count[q] += 1
                buckets[q][fb].append((lane.push_count[q], coord.row, req))
        i = lane.mirror_index
        caps_dict = ctrl.scheduler._hits_over_misses
        chan_idx = ctrl.channel_index
        for fb in range(lane.total_banks):
            self.capped[i, fb] = caps_dict.get(
                (chan_idx, int(self.rank_of[i, fb]), int(self.bg_of[i, fb]),
                 int(self.ba_of[i, fb])), 0
            ) >= lane.cap
            self._rebuild_cell(lane, 0, fb)
            self._rebuild_cell(lane, 1, fb)
        self._read_scalars(lane)
        return True

    @staticmethod
    def _flat(lane, coord) -> int:
        return (coord.rank * lane.BG + coord.bank_group) * lane.BA + coord.bank

    def _disable(self, lane) -> None:
        """Permanently revoke a lane's predictions (scalar scan takes over)."""

        lane.eligible = False
        lane.predicting = False
        lane.channel.journal = None
        lane.ctrl.read_queue.journal = None
        lane.ctrl.write_queue.journal = None
        lane.ctrl._scan_prediction = None

    # ------------------------------------------------------------------ #
    # Read-back mirror maintenance
    # ------------------------------------------------------------------ #
    def _read_bank(self, lane, r: int, bg: int, ba: int) -> bool:
        """Refresh one bank's floors and gates; True if its row changed."""

        i = lane.mirror_index
        fb = (r * lane.BG + bg) * lane.BA + ba
        bank = lane.channel.ranks[r].banks[bg][ba]
        na = bank._next_act
        np_ = bank._next_pre
        nrw = bank._next_rdwr
        bb = bank._blocked_until
        self.next_act[i, fb] = na
        self.next_pre[i, fb] = np_
        self.next_rdwr[i, fb] = nrw
        self.bank_blocked[i, fb] = bb
        rb = lane.rank_blocked[r]
        floor = bb if bb > rb else rb
        self.col_gate[i, fb] = nrw if nrw > floor else floor
        self.pre_gate[i, fb] = np_ if np_ > floor else floor
        la = lane.last_act[r]
        if la >= 0:
            spacing = la + (
                lane.trrd_l if bg == lane.last_bg[r] else lane.trrd_s
            )
            if spacing > floor:
                floor = spacing
        faw = lane.faw[r]
        if faw > floor:
            floor = faw
        self.act_gate[i, fb] = na if na > floor else floor
        row = bank.open_row if bank.is_open() else -1
        if row != self.open_row[i, fb]:
            self.open_row[i, fb] = row
            self.is_open[i, fb] = row >= 0
            return True
        return False

    def _read_rank_scalars(self, lane, r: int) -> None:
        rank = lane.channel.ranks[r]
        lane.rank_blocked[r] = rank._blocked_until
        lane.last_act[r] = rank._last_act_cycle
        last_bg = rank._last_act_bank_group
        lane.last_bg[r] = -1 if last_bg is None else last_bg
        hist = rank._act_history
        if len(hist) == hist.maxlen:
            lane.faw[r] = hist[0] + rank.timing.tfaw
        else:
            lane.faw[r] = _NEG

    def _recompute_rank_gates(self, lane, r: int) -> None:
        """Vector-recompute one rank's per-bank gates from raw floors."""

        i = lane.mirror_index
        np = _np
        sl = slice(r * lane.rank_banks, (r + 1) * lane.rank_banks)
        rb = lane.rank_blocked[r]
        base = np.maximum(self.bank_blocked[i, sl], rb)
        np.maximum(self.next_rdwr[i, sl], base, out=self.col_gate[i, sl])
        np.maximum(self.next_pre[i, sl], base, out=self.pre_gate[i, sl])
        la = lane.last_act[r]
        if la >= 0:
            spacing = np.where(
                self.bg_of[i, sl] == lane.last_bg[r],
                la + lane.trrd_l, la + lane.trrd_s,
            )
            base = np.maximum(base, spacing)
        faw = lane.faw[r]
        if faw > _NEG:
            base = np.maximum(base, faw)
        np.maximum(self.next_act[i, sl], base, out=self.act_gate[i, sl])

    def _read_refresh(self, lane, r: int) -> None:
        i = lane.mirror_index
        state = lane.ctrl.refresh_manager.states[r]
        sl = slice(r * lane.rank_banks, (r + 1) * lane.rank_banks)
        # Urgency >= 0.5 <=> 2*(c - next) >= trefi <=> c >= next + ceil/2
        # (pending is implied: it only ever holds with c >= next).
        self.urgent_at[i, sl] = state.next_refresh_cycle + lane.trefi_half

    def _read_scalars(self, lane) -> None:
        i = lane.mirror_index
        ctrl = lane.ctrl
        self.bus_free[i] = lane.channel._data_bus_free_at
        self.rq_len[i] = len(ctrl.read_queue)
        self.wq_len[i] = len(ctrl.write_queue)
        self.drain[i] = ctrl._write_drain
        lane.serial = lane.channel.issue_serial
        lane.rqv = ctrl.read_queue.version
        lane.wqv = ctrl.write_queue.version

    def _rebuild_cell(self, lane, q: int, fb: int) -> None:
        """Recompute first-hit/first-miss of one (queue, bank) bucket."""

        i = lane.mirror_index
        orow = self.open_row[i, fb]
        hp = mp = _BIG
        hr = mr = None
        for pos, row, req in lane.buckets[q][fb]:
            if row == orow:  # orow == -1 never matches a real row
                if hr is None:
                    hp, hr = pos, req
                    if mr is not None:
                        break
            elif mr is None:
                mp, mr = pos, req
                if hr is not None:
                    break
        self.hp[i, q, fb] = hp
        self.mp[i, q, fb] = mp
        cell = q * self.Bmax + fb
        lane.href[cell] = hr
        lane.mref[cell] = mr

    def _fold(self, lane) -> bool:
        """Fold the accumulated journals into the lane's mirrors.

        Returns False (after disabling the lane) on an uncoordinated
        request; True otherwise.  Safe to call at any point between ticks:
        journals record *which* state changed, the values are read back
        from the live objects, so folding late reads the same final state.
        """

        ctrl = lane.ctrl
        channel = lane.channel
        cj = channel.journal
        rj = ctrl.read_queue.journal
        wj = ctrl.write_queue.journal
        if lane.stale or (len(cj) + len(rj) + len(wj)) > REATTACH_JOURNAL_LEN:
            lane.stale = False
            cj.clear()
            rj.clear()
            wj.clear()
            if not self._snapshot(lane):
                self._disable(lane)
                return False
            return True
        dirty = set()
        if cj:
            caps_dict = ctrl.scheduler._hits_over_misses
            chan_idx = ctrl.channel_index
            i = lane.mirror_index
            cap = lane.cap
            for kind, r, bg, ba in cj:
                if kind is CommandType.REF or kind is CommandType.PREA:
                    self._read_rank_scalars(lane, r)
                    base = r * lane.rank_banks
                    for g in range(lane.BG):
                        for b in range(lane.BA):
                            if self._read_bank(lane, r, g, b):
                                fb = base + g * lane.BA + b
                                dirty.add((0, fb))
                                dirty.add((1, fb))
                    if kind is CommandType.REF:
                        self._read_refresh(lane, r)
                    continue
                if kind is CommandType.ACT:
                    # ACT moves the rank's tRRD/tFAW state for every bank.
                    self._read_rank_scalars(lane, r)
                    if self._read_bank(lane, r, bg, ba):
                        fb = (r * lane.BG + bg) * lane.BA + ba
                        dirty.add((0, fb))
                        dirty.add((1, fb))
                    self._recompute_rank_gates(lane, r)
                    continue
                if self._read_bank(lane, r, bg, ba):
                    fb = (r * lane.BG + bg) * lane.BA + ba
                    dirty.add((0, fb))
                    dirty.add((1, fb))
                if kind.is_column_command:
                    fb = (r * lane.BG + bg) * lane.BA + ba
                    self.capped[i, fb] = caps_dict.get(
                        (chan_idx, r, bg, ba), 0
                    ) >= cap
            cj.clear()
        for q, journal in ((0, rj), (1, wj)):
            if not journal:
                continue
            buckets = lane.buckets[q]
            for is_push, req in journal:
                coord = req.coordinate
                if coord is None:
                    self._disable(lane)
                    return False
                fb = self._flat(lane, coord)
                if is_push:
                    lane.push_count[q] += 1
                    buckets[fb].append((lane.push_count[q], coord.row, req))
                else:
                    bucket = buckets[fb]
                    for pos, entry in enumerate(bucket):
                        if entry[2] is req:
                            del bucket[pos]
                            break
                dirty.add((q, fb))
            journal.clear()
        for q, fb in dirty:
            self._rebuild_cell(lane, q, fb)
        self._read_scalars(lane)
        return True

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, due_lanes: List, cycle: int) -> None:
        """Install scan predictions for the due lanes worth predicting."""

        elig = []
        for lane in due_lanes:
            if not lane.eligible:
                continue
            ctrl = lane.ctrl
            # Engagement heuristic on *live* queue depth: shallow scans are
            # cheaper scalar (and memoised); deep scans are predicted.
            if len(ctrl.read_queue) + len(ctrl.write_queue) \
                    < PREDICT_MIN_QUEUE:
                lane.predicting = False
                ctrl._scan_prediction = None
                if not lane.stale and (
                    len(lane.channel.journal)
                    + len(ctrl.read_queue.journal)
                    + len(ctrl.write_queue.journal)
                ) > REATTACH_JOURNAL_LEN:
                    # Dormant lane: discard the backlog, re-snapshot later.
                    lane.channel.journal.clear()
                    ctrl.read_queue.journal.clear()
                    ctrl.write_queue.journal.clear()
                    lane.stale = True
                continue
            if self._fold(lane):
                lane.predicting = True
                elig.append(lane)
        if not elig:
            return
        np = _np
        L = len(self.lanes)
        if len(elig) == L:
            idx = slice(None)
        else:
            idx = np.fromiter(
                (lane.mirror_index for lane in elig), dtype=np.int64,
                count=len(elig),
            )
        c = cycle

        # Effective write-drain for this tick (replicates
        # _update_write_drain through the exact integer occupancy
        # thresholds; pinned by the prediction key).
        wql = self.wq_len[idx]
        d0 = self.drain[idx]
        drain = (~d0 & (wql >= self.drain_hi_at[idx])) \
            | (d0 & (wql > self.drain_lo_at[idx]))
        drain |= (self.rq_len[idx] == 0) & (wql > 0)
        aq = drain.view(np.int8).astype(np.int64)

        if isinstance(idx, slice):
            hp = self.hp[self._all_idx, aq]
            mp = self.mp[self._all_idx, aq]
        else:
            hp = self.hp[idx, aq]
            mp = self.mp[idx, aq]
        # The scan cap-defers a hit only when an older miss to the same
        # bank was already seen, i.e. the first miss precedes the first hit.
        y_hit = (hp < _BIG) & ~((mp < hp) & self.capped[idx])
        pos = np.where(y_hit, hp, mp)
        # Non-decisions land at >= _BIG (+ _MISS_OFFSET), past every real
        # decision key, so no explicit no-decision sentinel is needed.
        seq = np.where(y_hit, pos, pos + _MISS_OFFSET)
        has_dec = pos < _BIG
        # The scan gives up after MAX_SCHEDULE_ATTEMPTS failed decisions,
        # so only the budget-many smallest sequence keys are ever tried
        # (decision keys are unique: queue positions are).
        if self.budget_mask_needed:
            budget = MemoryController.MAX_SCHEDULE_ATTEMPTS
            kth = np.partition(seq, budget - 1, axis=1)[:, budget - 1]
            tryable = has_dec & (seq <= kth[:, None])
        else:
            tryable = has_dec

        open_ = self.is_open[idx]
        urgent = self.urgent_at[idx] <= c
        hit_ok = (self.col_gate[idx] <= c) \
            & (self.bus_free[idx] <= c)[:, None]
        miss_ok = np.where(
            open_, self.pre_gate[idx] <= c,
            (self.act_gate[idx] <= c) & ~urgent,
        )
        serveable = tryable & np.where(y_hit, hit_ok, miss_ok)
        win = serveable.any(axis=1)
        winner_bank = np.where(serveable, seq, _NO_DECISION).argmin(axis=1)

        # A fully-failed scan records the earliest floor among the decisions
        # it tried; urgency-gated activations record none.
        no_bound = MemoryController._NO_TIMING_BOUND
        floor = np.where(
            y_hit, np.maximum(self.col_gate[idx], self.bus_free[idx][:, None]),
            np.where(open_, self.pre_gate[idx],
                     np.where(urgent, no_bound, self.act_gate[idx])),
        )
        stall_bound = np.where(tryable, floor, no_bound).min(axis=1)

        Bmax = self.Bmax
        for k, lane in enumerate(elig):
            if win[k]:
                fb = int(winner_bank[k])
                hit = bool(y_hit[k, fb])
                cell = int(aq[k]) * Bmax + fb
                req = lane.href[cell] if hit else lane.mref[cell]
                lane.ctrl._scan_prediction = (
                    cycle, lane.serial, lane.rqv, lane.wqv, req, hit, None,
                )
            else:
                lane.ctrl._scan_prediction = (
                    cycle, lane.serial, lane.rqv, lane.wqv, None, False,
                    int(stall_bound[k]),
                )
