"""Two-phase SIGINT/SIGTERM handling: graceful first, forceful second.

The first signal asks for a *clean* stop: either a cooperative flag the
sweep driver checks between scheduling rounds (``on_first="flag"``, so
completed cells are flushed and a resume hint printed) or an exception
raised at the next safe bytecode (``on_first="raise"``, for single runs
with nothing to flush).  A second signal force-exits immediately -- the
escape hatch when the graceful path itself wedges.
"""

from __future__ import annotations

import os
import signal
import sys
from typing import Callable, Optional


class SweepInterrupted(Exception):
    """Raised in the main thread on the first signal (``on_first="raise"``)."""


class GracefulInterrupt:
    """Context manager installing the two-phase SIGINT/SIGTERM handler.

    ``on_first`` is ``"flag"`` (set :attr:`requested`; callers poll it) or
    ``"raise"`` (raise :class:`SweepInterrupted` in the main thread).
    ``force_exit`` is called with the exit code on the second signal
    (``os._exit`` by default; injectable for tests).  ``on_request`` is an
    optional callback invoked on the first signal --
    :func:`~repro.sweep.remote.serve_agent` uses it to wake the agent's
    wait, so the drain starts without waiting for the next poll.
    """

    EXIT_CODE = 130

    def __init__(
        self,
        on_first: str = "flag",
        hint: str = "",
        force_exit: Callable[[int], None] = os._exit,
        stream=None,
        on_request: Optional[Callable[[], None]] = None,
    ):
        if on_first not in ("flag", "raise"):
            raise ValueError(f"on_first must be 'flag' or 'raise', got {on_first!r}")
        self.on_first = on_first
        self.hint = hint
        self.force_exit = force_exit
        self.stream = stream if stream is not None else sys.stderr
        self.on_request = on_request
        self.requested = False
        self._previous: dict = {}

    # -- handler --

    def _handle(self, signum, frame) -> None:
        name = signal.Signals(signum).name
        if self.requested:
            print(f"{name} again: forcing exit.", file=self.stream, flush=True)
            self.force_exit(self.EXIT_CODE)
            return  # only reached with an injected force_exit (tests)
        self.requested = True
        message = f"{name}: finishing gracefully (signal again to force exit)."
        if self.hint:
            message += f" {self.hint}"
        print(message, file=self.stream, flush=True)
        if self.on_request is not None:
            self.on_request()
        if self.on_first == "raise":
            raise SweepInterrupted(name)

    # -- context manager --

    def __enter__(self) -> "GracefulInterrupt":
        for signum in (signal.SIGINT, signal.SIGTERM):
            self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info) -> Optional[bool]:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()
        return None
