"""Per-camera in-order delivery with bounded buffering and gap detection.

Tuples are released strictly by increasing frame_id, starting at frame 0.
A missing frame blocks delivery until a frame at least `gap_frames` beyond
it arrives, at which point the missing frame is declared dropped and
delivery resumes; so at most `gap_frames - 1` tuples wait behind a hole,
and that is the buffer's only bound. Duplicates are discarded, and `flush`
declares every hole left at stream end. No rule reads a clock, so the
releases and events are a function of the arrival order alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError
from .model import RepresentationTuple


@dataclass(frozen=True)
class GapEvent:
    camera_id: int
    frame_id: int


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
    gap_frames: int = 30

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
        while self._pending:
            if self._next in self._pending:
                released.append(self._pending.pop(self._next))
            else:
                events.append(GapEvent(self.camera_id, self._next))
            self._next += 1
        return released, events

    def _drain(self, released: list, events: list) -> None:
        while self._pending:
            if self._next in self._pending:
                released.append(self._pending.pop(self._next))
            elif self._max_seen >= self._next + self.gap_frames:
                # overtaken: something far enough ahead is waiting behind this hole
                events.append(GapEvent(self.camera_id, self._next))
            else:
                return
            self._next += 1
