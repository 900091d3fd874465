"""Virtual clock: stalling, time queries, and rdtsc sandwich scaling."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from evprof.clock import (
    INFINITE_WAIT, ClockUnitError, VirtualClock,
)
from evprof.config import ClockConfig


def oracle_rdtsc(sequence, window=50, offset_ticks=0):
    """Independent reimplementation of the pairing formula.

    Uses exact rational arithmetic for p*delta so the floor is beyond
    doubt; state is (last returned value, last instruction index, number
    of adjusted pairs).
    """
    r1 = None
    last_idx = None
    parity = 0
    out = []
    for idx, raw in sequence:
        candidate = raw + offset_ticks
        if last_idx is not None and idx - last_idx <= window:
            delta = candidate - r1
            if delta < 0:
                ret = r1 + 1
            else:
                p = Fraction(1, 2) if parity % 2 == 0 else Fraction(1, 20)
                ret = r1 + math.floor(p * delta)
            parity += 1
        else:
            ret = candidate
        out.append(ret)
        r1 = ret
        last_idx = idx
    return out


def run_clock(sequence, **cfg):
    clock = VirtualClock(ClockConfig(**cfg)) if cfg else VirtualClock()
    return clock, [clock.on_rdtsc(1, 1, idx, raw).returned
                   for idx, raw in sequence]


# -- stalling ----------------------------------------------------------------

def test_long_wait_rewritten_and_absorbed():
    clock = VirtualClock()
    result = clock.on_stall_api(300_000)
    assert result.rewritten_arg == 0
    assert result.stalling
    assert clock.offset_ms == 300_000


def test_short_sleep_no_stall_candidate():
    clock = VirtualClock()
    result = clock.on_stall_api(10)
    assert result.rewritten_arg == 0
    assert not result.stalling
    assert clock.offset_ms == 10


def test_threshold_boundary():
    clock = VirtualClock()
    assert not clock.on_stall_api(29_999).stalling
    assert clock.on_stall_api(30_000).stalling


def test_infinite_wait_advances_by_cap():
    clock = VirtualClock()
    result = clock.on_stall_api(INFINITE_WAIT)
    assert result.rewritten_arg == 0
    assert result.stalling
    assert result.advanced_ms == 600_000
    assert clock.offset_ms == 600_000


@pytest.mark.parametrize("requested, stalling", [
    (10, False), (29_999, False), (30_000, True), (INFINITE_WAIT, True)])
def test_classify_only_keeps_wait_and_offset(requested, stalling):
    clock = VirtualClock()
    result = clock.on_stall_api(requested, rewrite=False)
    assert result.stalling is stalling
    assert result.rewritten_arg == requested
    assert result.advanced_ms == 0
    assert clock.offset_ms == 0


def test_last_rdtsc_is_the_value_returned_on_that_thread():
    clock = VirtualClock()
    assert clock.last_rdtsc(1, 1) is None
    clock.on_rdtsc(1, 1, 10, 1_000)
    returned = clock.on_rdtsc(1, 1, 12, 3_000).returned
    assert clock.last_rdtsc(1, 1) == returned == 2_000
    assert clock.last_rdtsc(1, 2) is None


def test_total_virtual_time_equals_oracle_sum():
    requests = [10, 50_000, INFINITE_WAIT, 250, 40_000]
    cap = 600_000
    clock = VirtualClock()
    for r in requests:
        clock.on_stall_api(r)
    expected = sum(min(r, cap) if r >= INFINITE_WAIT else r
                   for r in requests)
    assert clock.offset_ms == expected


def test_offset_never_decreases():
    clock = VirtualClock()
    last = 0
    for r in (5, 0, 100, 30_000, 0):
        clock.on_stall_api(r)
        assert clock.offset_ms >= last
        last = clock.offset_ms


# -- time queries -----------------------------------------------------------

def test_time_query_adds_offset():
    clock = VirtualClock()
    clock.on_stall_api(5_000)
    assert clock.on_time_query("GetTickCount", 10_000) == 15_000


def test_time_query_identity_at_zero_offset():
    clock = VirtualClock()
    assert clock.on_time_query("GetTickCount", 31_337) == 31_337


def test_time_query_after_sleep():
    clock = VirtualClock()
    clock.on_stall_api(60_000)
    assert clock.on_time_query("GetTickCount", 1_000) == 61_000


def test_time_query_units():
    clock = VirtualClock(ClockConfig(tick_rate=1_000))
    clock.on_stall_api(2)
    assert clock.on_time_query("GetTickCount64", 5) == 7
    assert clock.on_time_query("QueryPerformanceCounter", 100) == 2_100
    assert clock.on_time_query("GetSystemTimeAsFileTime", 0) == 20_000


def test_unknown_time_api_is_config_error():
    clock = VirtualClock()
    with pytest.raises(ClockUnitError):
        clock.on_time_query("GetWeirdTime", 1)


def test_adjusted_readings_monotone_when_raw_is():
    clock = VirtualClock()
    raws = [100, 200, 200, 5_000]
    outs = []
    for i, raw in enumerate(raws):
        if i == 2:
            clock.on_stall_api(1_000)
        outs.append(clock.on_time_query("GetTickCount", raw))
    assert outs == sorted(outs)


# -- rdtsc sandwiches --------------------------------------------------------

def test_first_sandwich_halves_elapsed():
    _, outs = run_clock([(100, 1_000), (130, 3_000)])
    assert outs == [1_000, 2_000]  # p=0.5 on delta 2000


def test_second_sandwich_scales_by_twentieth():
    _, outs = run_clock([(100, 1_000), (130, 3_000), (155, 4_000)])
    # third read pairs again: delta = 4000 - 2000, p = 0.05 -> +100
    assert outs == [1_000, 2_000, 2_100]


def test_pair_outside_window_returns_raw_plus_offset():
    _, outs = run_clock([(100, 1_000), (160, 3_000)])
    assert outs == [1_000, 3_000]


def test_window_boundary_inclusive():
    _, outs = run_clock([(100, 1_000), (150, 3_000)])
    assert outs == [1_000, 2_000]


def test_offset_added_to_rdtsc():
    clock = VirtualClock(ClockConfig(tick_rate=1_000))
    clock.on_stall_api(1)  # 1000 ticks
    result = clock.on_rdtsc(1, 1, 10, 500)
    assert result.returned == 1_500


def test_regressed_raw_tsc_returns_plus_one_with_diagnostic():
    clock = VirtualClock()
    clock.on_rdtsc(1, 1, 100, 10_000)
    result = clock.on_rdtsc(1, 1, 120, 2_000)
    assert result.returned == 10_001
    assert clock.diagnostics


def test_parity_is_per_thread():
    clock = VirtualClock()
    # thread A consumes one adjustment
    clock.on_rdtsc(1, 1, 100, 1_000)
    clock.on_rdtsc(1, 1, 120, 2_000)
    # thread B starts with its own parity: p=0.5 again
    clock.on_rdtsc(1, 2, 100, 1_000)
    result = clock.on_rdtsc(1, 2, 120, 3_000)
    assert result.returned == 2_000


def test_thousand_randomized_sandwiches_match_oracle():
    rng = random.Random(1234)
    sequence = []
    idx = 0
    raw = 1_000_000
    for _ in range(1_000):
        idx += rng.choice([5, 20, 40, 50, 51, 80, 200])
        raw += rng.randrange(0, 100_000)
        sequence.append((idx, raw))
    _, outs = run_clock(sequence)
    assert outs == oracle_rdtsc(sequence)


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=1, max_value=120),
              st.integers(min_value=0, max_value=1 << 40)),
    min_size=1, max_size=60))
def test_rdtsc_matches_oracle_on_arbitrary_sequences(deltas):
    idx = 0
    raw = 0
    sequence = []
    for d_idx, d_raw in deltas:
        idx += d_idx
        raw += d_raw - (1 << 39)  # allow regressions too
        sequence.append((idx, max(raw, 0)))
    _, outs = run_clock(sequence)
    assert outs == oracle_rdtsc(sequence)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=20, max_value=1 << 30),
                min_size=2, max_size=50),
       st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                max_size=49))
def test_returned_values_strictly_increase(raw_deltas, idx_deltas):
    """Holds whenever raw readings advance by at least the 0.05 grain."""
    idx = 0
    raw = 1_000
    sequence = []
    for i, d in enumerate(raw_deltas):
        idx += idx_deltas[i % len(idx_deltas)]
        raw += d
        sequence.append((idx, raw))
    _, outs = run_clock(sequence)
    assert all(b > a for a, b in zip(outs, outs[1:]))


# -- factor-10 property -----------------------------------------------------

def disjoint_sandwich_deltas(clock, pairs):
    """Feed disjoint rdtsc pairs; return measured (returned) deltas."""
    idx = 0
    raw = 1_000_000
    measured = []
    for delta in pairs:
        idx += 100  # fresh: beyond the window
        first = clock.on_rdtsc(1, 1, idx, raw).returned
        idx += 30
        raw += delta
        second = clock.on_rdtsc(1, 1, idx, raw).returned
        measured.append(second - first)
        raw += 500
    return measured


def test_factor_ten_every_other_sandwich():
    clock = VirtualClock()
    m = disjoint_sandwich_deltas(clock, [2_000, 2_000, 2_000, 2_000])
    assert m[0] == 1_000   # p = 0.5
    assert m[1] == 100     # p = 0.05
    assert m[2] == 1_000
    assert m[3] == 100
    assert abs(m[1] - m[0] / 10) <= 1
    assert abs(m[3] - m[2] / 10) <= 1


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=20, max_value=1 << 34))
def test_factor_ten_within_one_tick_for_any_equal_delta(delta):
    clock = VirtualClock()
    m = disjoint_sandwich_deltas(clock, [delta, delta])
    assert abs(m[1] - m[0] / 10) <= 1
