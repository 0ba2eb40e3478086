"""The discrete-event simulation engine.

A minimal but complete event loop: events are (time, sequence, callback)
tuples in a binary heap; ties in time are broken by insertion order so the
simulation is fully deterministic.  The one exception is a
:class:`PeriodicTimer` tick, which runs before every other event of its
instant (ticks of several timers in timer-creation order): where a tick
falls among simultaneous events then does not depend on when it was armed,
which is what lets an idle timer leave the heap and come back.

Cancellation is lazy (the heap entry stays until popped), but the scheduler
keeps an O(1) live-event count and compacts the heap whenever more than
half of it is cancelled entries, so cancellation-heavy workloads (e.g.
retransmission timers) cannot bloat the queue or slow the pop path.

Hot paths that never cancel their events use
:meth:`Simulator.schedule_uncancellable`: every entry shares one immortal
sentinel handle, so the per-event :class:`EventHandle` allocation
disappears entirely (a free-list degenerated to a single reusable object),
and the run loop recognises the sentinel by identity and skips the
cancellation bookkeeping.  Output ports (serialization and propagation --
the bulk of all events in a packet simulation) push the same entries onto
the heap themselves (:mod:`repro.sim.port`).  ``benchmarks/perf/run_bench.py``
measures both scheduling paths back-to-back; see ``BENCH_fluid.json`` for
the current numbers.

The ordering contract: events fire in ``(time, key)`` order, where the key
is the tick rank for a :class:`PeriodicTimer` tick (negative, in timer
creation order) and the sequence number every other entry draws at
scheduling time; a cancelled event never fires, and ``events_processed``
counts the events that fired (brought up to date when :meth:`Simulator.run`
returns, however it returns).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

# Don't bother compacting tiny heaps: rebuilding costs more than the pops save.
_COMPACT_MIN_SIZE = 64


class EventHandle:
    """Handle to a scheduled event, allowing cancellation."""

    __slots__ = ("time", "cancelled", "_scheduler")

    def __init__(self, time: float, scheduler: Optional["Simulator"] = None):
        self.time = time
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event's callback from running when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        scheduler, self._scheduler = self._scheduler, None
        if scheduler is not None:
            scheduler._on_cancel()

    def __lt__(self, other: "EventHandle") -> bool:
        # Heap entries compare handles only when (time, key) ties, which
        # happens once: a timer parked while armed and unparked in the same
        # instant re-arms its tick beside the cancelled one.  Either order
        # is right (only one of the two fires), so the handles tie.
        return False


# Shared sentinel handle for schedule_uncancellable and the ports' own pushes:
# never cancelled, never handed out, so one immortal instance can stand in for
# every fire-and-forget event (the "free-list" for handles that would
# otherwise be allocated and discarded once per event).
_FIRE_AND_FORGET = EventHandle(0.0)


class Simulator:
    """A deterministic discrete-event scheduler with a floating-point clock."""

    def __init__(self):
        self._now = 0.0
        self._queue: List[Tuple[float, int, EventHandle, Callable[..., None], tuple]] = []
        self._sequence = itertools.count()
        # Tick keys: negative, so a tick sorts ahead of the ordinary events
        # of its instant; one per timer, so ticks sort in creation order.
        self._timer_ranks = itertools.count(-(1 << 62))
        self._events_processed = 0
        self._cancelled_pending = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events fired so far; inside a callback, those before this ``run()``."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued; O(1)."""
        return len(self._queue) - self._cancelled_pending

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        handle = EventHandle(time, self)
        heapq.heappush(self._queue, (time, next(self._sequence), handle, callback, args))
        return handle

    def schedule_uncancellable(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule an event that can never be cancelled; returns no handle.

        The hot-path variant of :meth:`schedule` for fire-and-forget events:
        all entries share one immortal sentinel handle, skipping the
        per-event :class:`EventHandle` allocation.  Timing, determinism and
        tie-breaking are identical to :meth:`schedule`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        heapq.heappush(
            self._queue, (time, next(self._sequence), _FIRE_AND_FORGET, callback, args)
        )

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} (now is {self._now})")
        handle = EventHandle(time, self)
        heapq.heappush(self._queue, (time, next(self._sequence), handle, callback, args))
        return handle

    def _schedule_tick(self, time: float, rank: int, callback: Callable[[], None]) -> EventHandle:
        """Arm a timer's next tick; ``rank`` takes the sequence number's place."""
        handle = EventHandle(time, self)
        heapq.heappush(self._queue, (time, rank, handle, callback, ()))
        return handle

    def _on_cancel(self) -> None:
        """A still-queued event was cancelled; compact if mostly dead weight."""
        self._cancelled_pending += 1
        if (
            len(self._queue) >= _COMPACT_MIN_SIZE
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Purge cancelled entries and rebuild the heap in O(live events).

        Mutates the queue in place (slice assignment) so local references to
        it -- the run loop keeps one -- survive a mid-callback compaction.
        """
        self._queue[:] = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue is empty, ``until`` is reached, or
        ``max_events`` have been processed.

        Events scheduled exactly at ``until`` are still processed; later ones
        are left in the queue, so the simulation can be resumed.
        """
        # Local bindings shave attribute lookups off the per-event cost;
        # _compact() mutates the queue in place, so the reference stays valid.
        queue = self._queue
        heappop = heapq.heappop
        sentinel = _FIRE_AND_FORGET
        horizon = math.inf if until is None else until
        # At least one event per call, as ever; -1 is never reached.
        limit = -1 if max_events is None else max(max_events, 1)
        processed = 0
        try:
            while queue:
                time, _, handle, callback, args = queue[0]
                if time > horizon:
                    self._now = until
                    return
                heappop(queue)
                if handle is not sentinel:
                    if handle.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    # Dissociate so a late cancel() (after the event fired)
                    # does not corrupt the pending-event accounting.
                    handle._scheduler = None
                self._now = time
                callback(*args)
                processed += 1
                if processed == limit:
                    return
        finally:
            self._events_processed += processed
        if until is not None:
            self._now = max(self._now, until)

    def every(
        self, interval: float, callback: Callable[[], None], start_delay: Optional[float] = None
    ) -> "PeriodicTimer":
        """Run ``callback`` every ``interval`` seconds (a periodic timer)."""
        return PeriodicTimer(self, interval, callback, start_delay=start_delay)


class PeriodicTimer:
    """Repeatedly invokes a callback at a fixed interval until stopped.

    Tick times form the accumulated float grid ``due += interval``.  A
    timer whose owner has nothing to do can :meth:`park`: it then holds no
    heap entry at all, and :meth:`unpark` walks the *same* grid past
    ``now``, so the ticks after a parked stretch fall on the instants they
    would have without it, bit for bit.
    """

    def __init__(
        self,
        simulator: Simulator,
        interval: float,
        callback: Callable[[], None],
        start_delay: Optional[float] = None,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.simulator = simulator
        self.interval = interval
        self.callback = callback
        self._stopped = False
        self.parked = False  # read by owners on their hot path; set only here
        self._rank = next(simulator._timer_ranks)
        delay = interval if start_delay is None else start_delay
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._due = simulator.now + delay
        self._handle: Optional[EventHandle] = self._arm()

    def _arm(self) -> EventHandle:
        return self.simulator._schedule_tick(self._due, self._rank, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._due += self.interval
        self._handle = None
        self.callback()
        # An unpark() inside the callback has already re-armed the timer.
        if self._handle is None and not (self.parked or self._stopped):
            self._handle = self._arm()

    def park(self) -> None:
        """Leave the event heap until :meth:`unpark`; callable from the callback."""
        if self.parked or self._stopped:
            return
        self.parked = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def unpark(self) -> int:
        """Re-arm a parked timer; returns how many ticks it skipped.

        A tick due at exactly ``now`` counts as skipped: the owner replays
        it before acting, as a tick precedes the other events of its instant.
        """
        if not self.parked:
            return 0
        self.parked = False
        now = self.simulator.now
        due = self._due
        interval = self.interval
        skipped = 0
        while due <= now:
            due += interval
            skipped += 1
        self._due = due
        self._handle = self._arm()
        return skipped

    def stop(self) -> None:
        """Stop the timer; the callback will not fire again."""
        self._stopped = True
        self.parked = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
