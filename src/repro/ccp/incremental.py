"""Checkpoint-knowledge tracking: the recorder's analysis substrate.

The classic oracles answer Theorem-1/2 retention and Lemma-1 recovery lines
by querying checkpoint-level causal precedence, which rides on a
:class:`~repro.causality.happens_before.CausalOrder` — an ``O(E * P)``
vector-clock replay of the whole event log.  This module derives the same
information in ``O(P)`` per event, so analysis instants do no event-graph
traversal at all:

* ``ck[p][f]`` — the *checkpoint knowledge* of process ``p``: the largest
  index of a stable checkpoint of ``f`` whose checkpoint event lies in the
  causal past of ``p``'s current state (-1 if none).  Sends snapshot the
  sender's vector, receives merge the snapshot elementwise-max into the
  receiver, and taking checkpoint ``k`` sets the own entry to ``k``.
* ``ckpt_ck[c_p^k]`` — the knowledge vector frozen just *before* the
  checkpoint event of ``c_p^k``; it encodes the checkpoint's ground-truth
  dependency vector (``gtdv = ckpt_ck + 1`` elementwise).

Every checkpoint-level precedence fact the theorems need is then one integer
comparison: ``c_f^m`` causally precedes ``c_i^k`` iff ``ckpt_ck[c_i^k][f] >=
m`` (and precedes the volatile ``v_i`` iff ``ck[i][f] >= m``).  The retained
sets and recovery lines fall out as linear scans over the *live* checkpoint
window — bounded by obsolescence pruning, not by run length.

The state is maintained *lazily*: recording an event costs the tracker
nothing; :meth:`CheckpointKnowledgeTracker.catch_up` applies the events
appended since the last query, through per-process cursors.

A per-process journal of ``(seq, ck)`` snapshots at knowledge-changing events
supports recovery truncation (restore the vector at the cut by bisection) and
is itself pruned together with the log; this is what keeps the state exact on
pruned histories, where a from-scratch replay is impossible because receives
of pruned sends survive only as INTERNAL placeholders.

:class:`IncrementalAnalysisView` is the read side handed to
:class:`~repro.ccp.pattern.CCP` as its ``analysis_provider``: it is bound to
the recorder version it was created at and refuses to answer once the
recorded execution has moved on.  The classic full recompute over the same
log is its test-time reference (``tests/differential.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.causality.events import EventKind, EventLog
from repro.ccp.checkpoint import CheckpointId
from repro.membership import MembershipError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ccp.consistency import GlobalCheckpoint
    from repro.simulation.trace import TraceRecorder


def _entry(vector: Sequence[int], f: int) -> int:
    """``vector[f]`` with out-of-range reads as -1 (no knowledge).

    Snapshots frozen before a membership growth are shorter than the current
    capacity; a missing column means the snapshot predates process ``f``'s
    existence, which is exactly "no checkpoint of ``f`` known".
    """
    return vector[f] if f < len(vector) else -1


class CheckpointKnowledgeTracker:
    """Checkpoint-knowledge state, caught up lazily from an event log.

    The tracker applies the events of a log through per-process cursors
    (:meth:`catch_up`), the way
    :class:`~repro.causality.happens_before.CausalOrder` replays a log: each
    event is applied once, a receive waits until its send has been applied.
    Nothing happens between queries, so a recorder that is never analysed
    never pays for the state.

    The matrices are sized for the current capacity and grow via
    :meth:`grow` when membership expands; a log wider than the tracked
    capacity raises :class:`~repro.membership.MembershipError` rather than
    IndexError.
    """

    def __init__(self, num_processes: int) -> None:
        self._num_processes = num_processes
        self._applied = 0
        self._clear()

    def _clear(self) -> None:
        """Forget every applied event (cursors back to the log's start)."""
        num_processes = self._num_processes
        self.ck: List[List[int]] = [[-1] * num_processes for _ in range(num_processes)]
        #: Knowledge snapshot piggybacked on each sent message (kept until the
        #: message can no longer be (re-)delivered, i.e. dropped or pruned).
        self.msg_ck: Dict[int, Tuple[int, ...]] = {}
        #: Knowledge frozen just before each stable checkpoint's event.
        self.ckpt_ck: Dict[CheckpointId, Tuple[int, ...]] = {}
        #: Per-process journal of (seq, ck-after-event) at knowledge-changing
        #: events, for truncation rebuilds; pruned together with the log.
        self.journal: List[List[Tuple[int, Tuple[int, ...]]]] = [
            [] for _ in range(num_processes)
        ]
        #: Knowledge at the start of the retained log (all -1 until pruning).
        self.base_ck: List[Tuple[int, ...]] = [
            (-1,) * num_processes for _ in range(num_processes)
        ]
        #: Per process, the number of leading log events already applied.
        self._cursors: List[int] = [0] * num_processes
        #: ``(pid, seq) -> message_id`` of INTERNAL placeholder events that
        #: stand for the delivery of a message whose send was pruned.
        self._placeholders: Dict[Tuple[int, int], int] = {}

    @property
    def num_processes(self) -> int:
        """The tracked capacity."""
        return self._num_processes

    @property
    def applied_events(self) -> int:
        """Total log events applied so far (monotonic; never reset by rewrites)."""
        return self._applied

    def grow(self, num_processes: int) -> None:
        """Extend the matrices to a larger capacity (membership join).

        Live vectors are padded with -1 (nobody can know a checkpoint of a
        process that did not exist); frozen snapshots (``msg_ck``,
        ``ckpt_ck``, journal entries) are left short and read through
        :func:`_entry`, so no history rewrite is needed.  Events not yet
        applied need no catch-up first: they are applied at the new capacity
        later, which reads the same through :func:`_entry`.
        """
        if num_processes < self._num_processes:
            raise MembershipError(
                f"cannot shrink the tracker from {self._num_processes} to "
                f"{num_processes} processes (leaves retire pids, they do "
                f"not reduce capacity)"
            )
        if num_processes == self._num_processes:
            return
        pad = num_processes - self._num_processes
        for row in self.ck:
            row.extend([-1] * pad)
        self.ck.extend([-1] * num_processes for _ in range(pad))
        self.base_ck = [base + (-1,) * pad for base in self.base_ck]
        self.base_ck.extend((-1,) * num_processes for _ in range(pad))
        self.journal.extend([] for _ in range(pad))
        self._cursors.extend([0] * pad)
        self._num_processes = num_processes

    def _full_row(self, vector: Sequence[int]) -> List[int]:
        """A snapshot padded to the current capacity (for live ``ck`` rows)."""
        return [_entry(vector, f) for f in range(self._num_processes)]

    # ------------------------------------------------------------------
    # Catch-up
    # ------------------------------------------------------------------
    def note_pruned_receive(self, pid: int, seq: int, message_id: int) -> None:
        """The INTERNAL event ``seq`` of ``pid`` delivers pruned send ``message_id``.

        The event log cannot say so (the send is gone), yet the message's
        knowledge still reaches the receiver: :meth:`catch_up` merges the
        snapshot taken when the send was applied (pruning always catches up
        first, so it exists).
        """
        self._placeholders[(pid, seq)] = message_id

    def _merge(self, pid: int, snapshot: Sequence[int], seq: int) -> None:
        row = self.ck[pid]
        merged = list(map(max, row, snapshot))
        if len(snapshot) < len(row):
            merged.extend(row[len(snapshot) :])
        if merged != row:
            self.ck[pid] = merged
            self.journal[pid].append((seq, tuple(merged)))

    def catch_up(self, log: EventLog) -> None:
        """Apply every event of ``log`` past the cursors.

        Sends snapshot the sender's vector, receives merge the send's
        snapshot into the receiver, and checkpoint ``k`` freezes the vector
        and sets the own entry to ``k``.  Idempotent; a no-op when current.
        Raises ``ValueError`` if a receive's send never appears.
        """
        if log.num_processes > self._num_processes:
            raise MembershipError(
                f"the log has {log.num_processes} processes but the tracked "
                f"capacity is {self._num_processes} (expected pid < "
                f"{self._num_processes}); grow the tracker on join first"
            )
        cursors = self._cursors
        histories = log.histories()
        remaining = sum(
            len(history) - cursors[pid] for pid, history in enumerate(histories)
        )
        msg_ck, placeholders = self.msg_ck, self._placeholders
        while remaining:
            progressed = False
            for pid, history in enumerate(histories):
                events = history.events
                cursor = cursors[pid]
                end = len(events)
                start = cursor
                while cursor < end:
                    event = events[cursor]
                    kind = event.kind
                    if kind is EventKind.SEND:
                        msg_ck[event.message_id] = tuple(self.ck[pid])  # type: ignore[index]
                    elif kind is EventKind.RECEIVE:
                        snapshot = msg_ck.get(event.message_id)  # type: ignore[arg-type]
                        if snapshot is None:
                            break  # wait for the send to be applied
                        self._merge(pid, snapshot, cursor)
                    elif kind is EventKind.CHECKPOINT:
                        index = event.checkpoint_index
                        assert index is not None
                        row = self.ck[pid]
                        self.ckpt_ck[CheckpointId(pid, index)] = tuple(row)
                        row[pid] = index
                        self.journal[pid].append((cursor, tuple(row)))
                    elif placeholders:
                        message_id = placeholders.pop((pid, cursor), None)
                        if message_id is not None:
                            self._merge(pid, msg_ck.pop(message_id), cursor)
                    cursor += 1
                if cursor > start:
                    cursors[pid] = cursor
                    self._applied += cursor - start
                    remaining -= cursor - start
                    progressed = True
            if not progressed:
                raise ValueError(
                    "event log is not causally replayable: some receive has no "
                    "matching send before it"
                )

    # ------------------------------------------------------------------
    # History rewrites
    # ------------------------------------------------------------------
    def apply_truncation(
        self, log: EventLog, lengths: Sequence[int], dropped: Iterable[int]
    ) -> None:
        """Restore the state at a per-process prefix cut of ``log`` (recovery).

        ``dropped`` are the messages whose send the cut removes.  Needs no
        catch-up first: events past a cursor were never applied, so each
        cursor simply clips to its process's cut.  A receive kept below the
        cut whose send is dropped (an inconsistent line, possible without
        RDT) becomes an INTERNAL event of the truncated log; if it was
        already applied, the journal cannot unwind its merge, so an unpruned
        tracker starts over and re-derives the truncated log lazily.
        """
        dropped = set(dropped)
        if not any(log.checkpoint_bases) and any(
            event.kind is EventKind.RECEIVE and event.message_id in dropped
            for pid, history in enumerate(log.histories())
            for event in history.events[: min(lengths[pid], self._cursors[pid])]
        ):
            self._clear()
            return
        self.forget_messages(dropped)
        for pid in range(self._num_processes):
            entries = self.journal[pid]
            cut = bisect_right(entries, lengths[pid] - 1, key=lambda item: item[0])
            del entries[cut:]
            self.ck[pid] = self._full_row(
                entries[-1][1] if entries else self.base_ck[pid]
            )
            self._cursors[pid] = min(self._cursors[pid], lengths[pid])
        for key in [key for key in self._placeholders if key[1] >= lengths[key[0]]]:
            self.msg_ck.pop(self._placeholders.pop(key), None)

    def apply_suffix(self, starts: Sequence[int]) -> None:
        """Drop journal prefixes and re-offset seqs after the log was pruned.

        The tracker must be current with the pre-prune log: the dropped
        events can no longer be applied afterwards.
        """
        assert not self._placeholders, "prune without a prior catch-up"
        for pid in range(self._num_processes):
            entries = self.journal[pid]
            cut = bisect_right(entries, starts[pid] - 1, key=lambda item: item[0])
            if cut:
                self.base_ck[pid] = entries[cut - 1][1]
            self.journal[pid] = [
                (seq - starts[pid], vector) for seq, vector in entries[cut:]
            ]
            self._cursors[pid] -= starts[pid]

    def forget_checkpoints(self, cids: Iterable[CheckpointId]) -> None:
        for cid in cids:
            self.ckpt_ck.pop(cid, None)

    def forget_messages(self, message_ids: Iterable[int]) -> None:
        for message_id in message_ids:
            self.msg_ck.pop(message_id, None)


class IncrementalAnalysisView:
    """Read-only analysis provider over one recorder version.

    Serves the Theorem-1/2 retained sets and Lemma-1 recovery lines straight
    from the tracker's knowledge state.  The view is pinned to the recorder
    version current at construction: answering from newer state would
    silently describe a different execution, so stale access raises.
    """

    def __init__(self, recorder: "TraceRecorder") -> None:
        self._recorder = recorder
        self._version = recorder.version

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _state(self) -> Tuple[CheckpointKnowledgeTracker, List[int], List[int]]:
        recorder = self._recorder
        if recorder.version != self._version:
            raise RuntimeError(
                "stale incremental analysis view: the recorded execution has "
                "changed since this CCP snapshot was taken"
            )
        tracker = recorder.knowledge_tracker
        last_stable = [taken - 1 for taken in recorder.checkpoints_taken]
        bases = list(recorder.log.checkpoint_bases)
        return tracker, last_stable, bases

    @property
    def _departed(self) -> FrozenSet[int]:
        return self._recorder.departed

    def _snapshot(
        self,
        tracker: CheckpointKnowledgeTracker,
        pid: int,
        index: int,
        last_stable: Sequence[int],
    ) -> Sequence[int]:
        """Knowledge just before checkpoint ``index`` of ``pid`` (volatile: now)."""
        if index > last_stable[pid]:
            return tracker.ck[pid]
        return tracker.ckpt_ck[CheckpointId(pid, index)]

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    def _retained(self, theorem: int) -> FrozenSet[CheckpointId]:
        """Checkpoints ``c_i^k`` with some ``f`` such that
        ``ckpt_ck[c_i^{k+1}][f] >= pin[f] > ckpt_ck[c_i^k][f]``: ``pin`` is
        the global ``last(f)`` for Theorem 1 and the owner's *known* last
        checkpoints ``ck[i][f]`` for Theorem 2.

        Departed processes are excluded on both sides: they can never be
        faulty again, so nothing pins their checkpoints and they pin
        nothing (the garbage-of-departed invariant).
        """
        tracker, last_stable, bases = self._state()
        n = self._recorder.num_processes
        departed = self._departed
        retained = set()
        for pid in range(n):
            if pid in departed:
                continue
            pinned = last_stable if theorem == 1 else tracker.ck[pid]
            for k in range(bases[pid], last_stable[pid] + 1):
                cid = CheckpointId(pid, k)
                current = tracker.ckpt_ck[cid]
                successor = self._snapshot(tracker, pid, k + 1, last_stable)
                for f in range(n):
                    if f in departed:
                        continue
                    m = pinned[f]
                    if m >= 0 and _entry(successor, f) >= m > _entry(current, f):
                        retained.add(cid)
                        break
        return frozenset(retained)

    def theorem1_retained(self) -> FrozenSet[CheckpointId]:
        """Theorem 1 over knowledge state."""
        return self._retained(1)

    def theorem2_retained(self) -> FrozenSet[CheckpointId]:
        """Theorem 2 over knowledge state."""
        return self._retained(2)

    def recovery_line(self, faulty_set: FrozenSet[int]) -> "GlobalCheckpoint":
        """Lemma 1: per process the last general checkpoint not causally
        preceded by the last stable checkpoint of any faulty process.

        A departed process's component is pinned to its volatile index:
        recovery never rolls the departed back (they hold no state), and
        none of their checkpoints can belong to any future line.
        """
        from repro.ccp.consistency import GlobalCheckpoint

        tracker, last_stable, bases = self._state()
        n = self._recorder.num_processes
        departed = self._departed
        indices: List[int] = []
        for pid in range(n):
            if pid in departed:
                indices.append(last_stable[pid] + 1)
                continue
            chosen = bases[pid] if bases[pid] <= last_stable[pid] + 1 else 0
            for gamma in range(bases[pid], last_stable[pid] + 2):
                snapshot = self._snapshot(tracker, pid, gamma, last_stable)
                preceded = any(
                    _entry(snapshot, f) >= last_stable[f] for f in faulty_set
                )
                if not preceded:
                    chosen = gamma
            indices.append(chosen)
        return GlobalCheckpoint(tuple(indices))
