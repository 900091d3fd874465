"""Virtual clock: wait shortening, time-query offsetting, rdtsc scaling.

Explicit and implicit waits are rewritten to zero while the skipped time
accumulates in a per-sample offset, zero at analysis start. Every later
time query gets the offset added in that API's unit, so the program cannot
tell the wait was skipped.

A pair of rdtsc reads within ``SANDWICH_WINDOW`` instructions on the same
thread is treated as a runtime measurement. The second read is replaced by
r1 + floor(p * delta), with p alternating 0.5 and 0.05 per thread, which
shrinks measured elapsed time by a factor of ten every other pair. A fixed
substitute value would not survive loop-based ratio checks; the
alternation makes the expected bare-metal ratio show up at least once.

The parameters are fixed: ``TICKS_PER_MS``, ``STALL_THRESHOLD_MS``,
``INFINITE_WAIT_CAP_MS`` and ``SANDWICH_WINDOW``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace import Diagnostic

TICKS_PER_MS = 2_600_000        # time-stamp counter ticks per millisecond
STALL_THRESHOLD_MS = 30_000     # waits at or above this are stalling
INFINITE_WAIT_CAP_MS = 600_000  # what an infinite wait counts as
SANDWICH_WINDOW = 50            # max instruction gap between paired rdtsc

STALL_APIS = frozenset({
    "NtDelayExecution", "WaitForSingleObject", "SetWaitableTimer",
    "TimeSetEvent", "Sleep",
})

# spelled-out Windows INFINITE (DWORD -1)
INFINITE_WAIT = 0xFFFFFFFF

FILETIME_PER_MS = 10_000       # 100 ns intervals per millisecond

# each time-query API's reading, in units per millisecond
TIME_QUERY_UNITS = {
    "GetTickCount": 1,
    "GetTickCount64": 1,
    "timeGetTime": 1,
    "QueryPerformanceCounter": TICKS_PER_MS,
    "GetSystemTimeAsFileTime": FILETIME_PER_MS,
}


class ClockUnitError(Exception):
    """Time-query API with no configured unit."""


@dataclass
class SandwichState:
    last_returned: int | None = None   # r1 for the next pair
    last_insn_index: int | None = None
    parity_counter: int = 0            # pairs adjusted so far on this thread


@dataclass
class StallResult:
    rewritten_arg: int      # 0 when rewritten: replay cannot honor waits
    advanced_ms: int
    stalling: bool          # above-threshold wait, detection-worthy


@dataclass
class RdtscResult:
    returned: int
    sandwich: bool          # paired with the previous read within the window


class VirtualClock:
    """Per-sample time state; mutate in event order only."""

    def __init__(self):
        self.offset_ms = 0
        self._sandwiches: dict[tuple[int, int], SandwichState] = {}
        self.diagnostics: list[Diagnostic] = []

    def on_stall_api(self, requested_ms: int,
                     rewrite: bool = True) -> StallResult:
        """Shorten a wait: argument becomes 0, offset absorbs the wait.

        With ``rewrite`` false (mitigation disabled) the wait is only
        classified: the argument and the offset stay as they are.
        """
        if requested_ms >= INFINITE_WAIT:
            effective = INFINITE_WAIT_CAP_MS
        else:
            effective = requested_ms
        stalling = effective >= STALL_THRESHOLD_MS
        if not rewrite:
            return StallResult(requested_ms, 0, stalling)
        self.offset_ms += effective
        return StallResult(0, effective, stalling)

    def on_time_query(self, api_name: str, raw: int) -> int:
        """Return raw reading plus the accumulated offset in the API's unit."""
        try:
            per_ms = TIME_QUERY_UNITS[api_name]
        except KeyError:
            raise ClockUnitError(f"no time unit configured for {api_name!r}")
        return raw + self.offset_ms * per_ms

    def is_time_query(self, api_name: str) -> bool:
        return api_name in TIME_QUERY_UNITS

    def on_rdtsc(self, pid: int, tid: int, insn_index: int, raw_tsc: int,
                 seq: int = 0, adjust: bool = True) -> RdtscResult:
        """Process one rdtsc read on (pid, tid).

        With ``adjust`` false (mitigation disabled) the pairing state still
        advances so detection keeps working, but the returned value is the
        raw reading plus the offset.
        """
        state = self._sandwiches.setdefault((pid, tid), SandwichState())
        candidate = raw_tsc + self.offset_ms * TICKS_PER_MS
        in_window = (
            state.last_insn_index is not None
            and insn_index - state.last_insn_index <= SANDWICH_WINDOW
        )
        if in_window and adjust:
            delta = candidate - state.last_returned
            if delta < 0:
                returned = state.last_returned + 1
                self.diagnostics.append(Diagnostic(
                    seq, f"raw tsc regressed on pid {pid} tid {tid}"))
            else:
                if state.parity_counter % 2 == 0:
                    returned = state.last_returned + delta // 2      # p = 0.5
                else:
                    returned = state.last_returned + delta // 20     # p = 0.05
            state.parity_counter += 1
        else:
            returned = candidate
        state.last_returned = returned
        state.last_insn_index = insn_index
        return RdtscResult(returned=returned, sandwich=in_window)

    def last_rdtsc(self, pid: int, tid: int) -> int | None:
        """The value the last rdtsc on (pid, tid) returned, if any."""
        state = self._sandwiches.get((pid, tid))
        return state.last_returned if state else None
