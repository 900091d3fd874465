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

Each answer is a plain tuple: ``on_stall_api`` returns ``(advanced_ms,
stalling)`` and ``on_rdtsc`` returns ``(returned, paired)``. A thread's
pairing state is one ``(last returned, its insn_index, pairs adjusted)``
tuple, replaced on each read.

The parameters are fixed: ``TICKS_PER_MS``, ``STALL_THRESHOLD_MS``,
``INFINITE_WAIT_CAP_MS`` and ``SANDWICH_WINDOW``.
"""

from __future__ import annotations

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


class VirtualClock:
    """Per-sample time state; mutate in event order only."""

    def __init__(self):
        self.offset_ms = 0
        # (pid, tid) -> (last returned, its insn_index, pairs adjusted)
        self._sandwiches: dict[tuple[int, int], tuple[int, int, int]] = {}
        self.diagnostics: list[Diagnostic] = []

    def on_stall_api(self, requested_ms: int,
                     rewrite: bool = True) -> tuple[int, bool]:
        """Shorten a wait: the offset absorbs it, and replay waits for 0.

        Returns ``(advanced_ms, stalling)``: how far the offset advanced,
        and whether the wait is at or above ``STALL_THRESHOLD_MS``. With
        ``rewrite`` false (mitigation disabled) the wait is only
        classified, and the offset stays as it is.
        """
        if requested_ms >= INFINITE_WAIT:
            effective = INFINITE_WAIT_CAP_MS
        else:
            effective = requested_ms
        stalling = effective >= STALL_THRESHOLD_MS
        if not rewrite:
            return 0, stalling
        self.offset_ms += effective
        return effective, stalling

    def on_time_query(self, api_name: str, raw: int) -> int:
        """Return raw reading plus the accumulated offset in the API's unit;
        an API with no unit in ``TIME_QUERY_UNITS`` is a KeyError."""
        return raw + self.offset_ms * TIME_QUERY_UNITS[api_name]

    def is_time_query(self, api_name: str) -> bool:
        return api_name in TIME_QUERY_UNITS

    def on_rdtsc(self, pid: int, tid: int, insn_index: int, raw_tsc: int,
                 seq: int = 0, adjust: bool = True) -> tuple[int, bool]:
        """Process one rdtsc read on (pid, tid).

        Returns ``(returned, paired)``: the value the read returns, and
        whether it pairs with the thread's previous read within the window.
        With ``adjust`` false (mitigation disabled) the pairing state still
        advances so detection keeps working, but the returned value is the
        raw reading plus the offset.
        """
        last, last_index, pairs = self._sandwiches.get(
            (pid, tid), (None, None, 0))
        candidate = raw_tsc + self.offset_ms * TICKS_PER_MS
        # pair only with an earlier read: a backwards insn_index starts anew
        paired = (last_index is not None
                  and 0 <= insn_index - last_index <= SANDWICH_WINDOW)
        if paired and adjust:
            delta = candidate - last
            if delta < 0:
                returned = last + 1
                self.diagnostics.append(Diagnostic(
                    seq, f"raw tsc regressed on pid {pid} tid {tid}"))
            elif pairs % 2 == 0:
                returned = last + delta // 2      # p = 0.5
            else:
                returned = last + delta // 20     # p = 0.05
            pairs += 1
        else:
            returned = candidate
        self._sandwiches[pid, tid] = (returned, insn_index, pairs)
        return returned, paired

    def last_rdtsc(self, pid: int, tid: int) -> int | None:
        """The value the last rdtsc on (pid, tid) returned, if any."""
        state = self._sandwiches.get((pid, tid))
        return state[0] if state else None
