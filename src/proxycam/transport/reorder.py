"""Per-camera in-order delivery with bounded buffering and gap detection.

Tuples are released strictly by increasing frame_id, starting at frame 0.
A missing frame blocks delivery until a frame at least `GAP_FRAMES` beyond
it arrives, at which point the missing frame is declared dropped and
delivery resumes; so at most `GAP_FRAMES - 1` tuples wait behind a hole,
and that is the buffer's only bound. A run of holes declared together is
one `GapEvent`, so a jump in frame id costs one event however far it
jumps. Duplicates are discarded, and `flush` declares every hole left at
stream end. No rule reads a clock, so the releases and events are a
function of the arrival order alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError
from .model import RepresentationTuple

GAP_FRAMES = 30


@dataclass(frozen=True)
class GapEvent:
    """`count` frames from `frame_id` on were declared dropped."""

    camera_id: int
    frame_id: int
    count: int


@dataclass(frozen=True)
class DuplicateEvent:
    camera_id: int
    frame_id: int


@dataclass(frozen=True)
class OverflowEvent:
    """Never emitted: the buffer has no capacity to overflow. It stays
    defined only because the benchmark in `perfbench/` imports it."""

    camera_id: int
    pending: int


Event = GapEvent | DuplicateEvent


@dataclass
class ReorderBuffer:
    camera_id: int | None = field(default=None, init=False)
    _pending: dict[int, RepresentationTuple] = field(default_factory=dict, init=False)
    _next: int = field(default=0, init=False)
    _max_seen: int = field(default=-1, init=False)

    def accept(
        self, t: RepresentationTuple
    ) -> tuple[list[RepresentationTuple], list[Event]]:
        """Feed one decoded tuple; returns (in-order releases, events)."""
        cam = t.key.camera_id
        if self.camera_id is None:
            self.camera_id = cam
        elif cam != self.camera_id:
            raise ValidationError(
                f"tuple for camera {cam} fed to buffer for camera {self.camera_id}"
            )

        released: list[RepresentationTuple] = []
        events: list[Event] = []
        fid = t.key.frame_id
        if fid < self._next or fid in self._pending:
            events.append(DuplicateEvent(self.camera_id, fid))
            return released, events

        self._pending[fid] = t
        self._max_seen = max(self._max_seen, fid)
        self._drain(released, events)
        return released, events

    def flush(self) -> tuple[list[RepresentationTuple], list[Event]]:
        """Stream end: declare every remaining hole and release the rest."""
        released: list[RepresentationTuple] = []
        events: list[Event] = []
        self._drain(released, events, ended=True)
        return released, events

    def _drain(self, released: list, events: list, ended: bool = False) -> None:
        """Release in frame order. A hole is declared dropped once it is
        overtaken: a frame `GAP_FRAMES` or more beyond it has arrived, or
        the stream has `ended`. Each run of holes declared at once is one
        event."""
        while self._pending:
            if self._next in self._pending:
                released.append(self._pending.pop(self._next))
                self._next += 1
                continue
            # the holes before `end` are overtaken, up to the next arrival
            end = self._max_seen + 1 if ended else self._max_seen - GAP_FRAMES + 1
            if end <= self._next:
                return
            end = min(end, min(self._pending))
            events.append(GapEvent(self.camera_id, self._next, end - self._next))
            self._next = end
