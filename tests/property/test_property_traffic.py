"""Property-based tests of traffic models, RNG and histograms."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.receptors.histogram import Histogram
from repro.traffic.base import FixedDestination, interval_for_load
from repro.traffic.burst import BurstTraffic
from repro.traffic.onoff import OnOffTraffic
from repro.traffic.rng import Lfsr32, LfsrRandom
from repro.traffic.trace import (
    Trace,
    TraceRecord,
    TraceTraffic,
    load_trace,
    save_trace,
)
from repro.traffic.uniform import UniformTraffic


# ----------------------------------------------------------------------
# RNG
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_lfsr_state_nonzero_for_any_seed(seed):
    lfsr = Lfsr32(seed)
    assert lfsr.state != 0
    for _ in range(64):
        lfsr.next_bit()
        assert lfsr.state != 0


@given(
    seed=st.integers(min_value=1, max_value=2**32 - 1),
    lo=st.integers(min_value=-1000, max_value=1000),
    span=st.integers(min_value=0, max_value=500),
)
def test_uniform_int_stays_in_range(seed, lo, span):
    rng = LfsrRandom(seed)
    hi = lo + span
    for _ in range(20):
        assert lo <= rng.uniform_int(lo, hi) <= hi


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_rng_determinism(seed):
    a, b = LfsrRandom(seed), LfsrRandom(seed)
    assert [a.uniform_int(0, 99) for _ in range(10)] == [
        b.uniform_int(0, 99) for _ in range(10)
    ]


def bit_serial_next_bits(state, n):
    """Reference Galois register: ``n`` single steps, LSB first.

    Returns ``(value, final state)``; taps x^32 + x^22 + x^2 + x + 1.
    """
    value = 0
    for i in range(n):
        bit = state & 1
        state >>= 1
        if bit:
            state ^= 0x80200003
        value |= bit << i
    return value, state


@given(
    state=st.integers(min_value=1, max_value=2**32 - 1),
    widths=st.lists(st.integers(min_value=1, max_value=64), min_size=1),
)
def test_byte_table_lfsr_matches_bit_serial_reference(state, widths):
    lfsr = Lfsr32(state)
    for n in widths:
        expected, state = bit_serial_next_bits(state, n)
        assert lfsr.next_bits(n) == expected
        assert lfsr.state == state


# ----------------------------------------------------------------------
# Traffic model invariants
# ----------------------------------------------------------------------
@given(
    length=st.integers(min_value=1, max_value=32),
    load=st.floats(
        min_value=0.01,
        max_value=1.0,
        allow_nan=False,
        exclude_min=False,
    ),
)
def test_interval_for_load_never_exceeds_target(length, load):
    interval = interval_for_load(length, load)
    assert interval >= length
    assert length / interval <= load + 1e-9


@given(
    length=st.integers(min_value=1, max_value=8),
    interval=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=50)
def test_uniform_model_cadence_and_reset(length, interval, seed):
    interval = max(interval, length)
    m = UniformTraffic(
        length, interval, FixedDestination(1), seed=seed
    )
    first = [(now, m.poll(now)) for now in range(interval * 4)]
    m.reset()
    second = [(now, m.poll(now)) for now in range(interval * 4)]
    assert first == second
    emissions = [now for now, e in first if e]
    assert all(
        b - a == interval for a, b in zip(emissions, emissions[1:])
    )


@given(
    p_on=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    p_off=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=30)
def test_burst_model_invariants(p_on, p_off, seed):
    m = BurstTraffic(p_on, p_off, 4, FixedDestination(1), seed=seed)
    last_burst = -1
    for now in range(0, 2000, 4):
        e = m.poll(now)
        if e is None:
            continue
        length, dst, burst = e
        assert length == 4
        assert dst == 1
        assert burst >= last_burst  # burst ids never go backwards
        last_burst = burst


@given(
    packets=st.integers(min_value=1, max_value=10),
    gap=st.integers(min_value=0, max_value=20),
    length=st.integers(min_value=1, max_value=6),
)
def test_onoff_measured_load_matches_duty_cycle(packets, gap, length):
    m = OnOffTraffic(packets, gap, length, FixedDestination(1))
    period = packets * length + gap
    cycles = period * 10
    emitted = sum(
        e[0] for e in (m.poll(now) for now in range(cycles)) if e
    )
    expected = m.expected_load()
    assert emitted / cycles <= expected + 1e-9
    assert emitted / cycles >= expected * 0.9 - 1e-9


# ----------------------------------------------------------------------
# Trace round trips
# ----------------------------------------------------------------------
_records = st.lists(
    st.builds(
        TraceRecord,
        cycle=st.integers(min_value=0, max_value=10_000),
        dst=st.integers(min_value=0, max_value=63),
        length=st.integers(min_value=1, max_value=64),
        burst_id=st.one_of(
            st.none(), st.integers(min_value=0, max_value=99)
        ),
    ),
    max_size=50,
)


@given(records=_records)
@settings(max_examples=50)
def test_trace_save_load_round_trip(records):
    original = Trace(records, name="prop")
    buf = io.StringIO()
    save_trace(original, buf)
    buf.seek(0)
    restored = load_trace(buf)
    assert len(restored) == len(original)
    for a, b in zip(original, restored):
        assert (a.cycle, a.dst, a.length, a.burst_id) == (
            b.cycle,
            b.dst,
            b.length,
            b.burst_id,
        )


@given(records=_records)
@settings(max_examples=50)
def test_trace_replay_is_causal_and_complete(records):
    trace = Trace(records)
    m = TraceTraffic(trace)
    replayed = 0
    now = 0
    while not m.exhausted and now < 40_000:
        e = m.poll(now)
        if e is not None:
            replayed += 1
        now += 1
    assert replayed == len(trace)


# ----------------------------------------------------------------------
# Histogram invariants
# ----------------------------------------------------------------------
@given(
    values=st.lists(
        st.integers(min_value=-50, max_value=500), min_size=1,
        max_size=200,
    ),
    n_bins=st.integers(min_value=1, max_value=32),
    bin_width=st.integers(min_value=1, max_value=16),
)
def test_histogram_counts_always_total(values, n_bins, bin_width):
    h = Histogram(n_bins, bin_width, origin=0)
    for v in values:
        h.add(v)
    assert (
        sum(h.counts) + h.overflow + h.underflow == h.total == len(values)
    )
    assert h.min == min(values)
    assert h.max == max(values)
    assert h.mean * h.total == pytest.approx(sum(values))


@given(
    values=st.lists(
        st.integers(min_value=0, max_value=100), min_size=1,
        max_size=100,
    )
)
def test_histogram_merge_equals_bulk_add(values):
    half = len(values) // 2
    a = Histogram(16, 8)
    b = Histogram(16, 8)
    whole = Histogram(16, 8)
    for v in values[:half]:
        a.add(v)
    for v in values[half:]:
        b.add(v)
    for v in values:
        whole.add(v)
    a.merge(b)
    assert a.counts == whole.counts
    assert a.total == whole.total
    assert a.mean == whole.mean
