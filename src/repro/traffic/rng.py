"""Hardware-faithful pseudo-random number generation.

The FPGA traffic generators draw their randomness from linear-feedback
shift registers seeded through the "random initialization" registers of
the TG register bench (Slide 10).  This module reproduces that
behaviour: :class:`Lfsr32` is a maximal-length 32-bit Galois LFSR, and
:class:`LfsrRandom` layers the distributions the stochastic traffic
models need (uniform integers, Bernoulli trials, geometric and
exponential variates) on top of it.

Using an LFSR instead of Python's Mersenne Twister keeps the software
emulation bit-compatible with what a hardware TG would produce from the
same seed, and makes every experiment reproducible from the seed
registers alone.
"""

from __future__ import annotations

import math

#: Taps x^32 + x^22 + x^2 + x^1 + 1 (maximal length, period 2^32 - 1).
_GALOIS_MASK_32 = 0x80200003

_MASK_64 = 0xFFFFFFFFFFFFFFFF

#: SplitMix64 increment (golden-ratio gamma), the standard stream
#: splitter constant.
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One SplitMix64 finalisation round (full 64-bit avalanche)."""
    x = (x + _SPLITMIX_GAMMA) & _MASK_64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK_64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK_64
    x ^= x >> 31
    return x


def derive_stream_seed(root_seed: int, *stream: int) -> int:
    """An independent 32-bit LFSR seed for sub-stream ``(root_seed, *stream)``.

    The experiment runner launches many emulations from one user-level
    seed — several traffic generators per scenario, many scenarios per
    sweep, possibly in parallel worker processes.  Deriving each TG
    seed as ``root_seed + i`` (the seed-register convention of a single
    hand-configured platform) makes *neighbouring* scenarios share LFSR
    streams: TG 1 of the run seeded 1 replays TG 0 of the run seeded 2.
    This function spawns statistically independent streams instead:
    each key of ``stream`` (scenario content hash, generator index, ...)
    is absorbed through a SplitMix64 avalanche round, so any change in
    any key decorrelates the whole 32-bit output.

    The result is deterministic in its inputs alone — sweep workers can
    derive it locally in any order, which is what keeps serial and
    parallel sweep runs bit-identical — and never zero (the all-zero
    LFSR state is its fixed point, see :class:`Lfsr32`).
    """
    state = _splitmix64(root_seed & _MASK_64)
    for key in stream:
        state = _splitmix64(state ^ (key & _MASK_64))
    seed = (state ^ (state >> 32)) & 0xFFFFFFFF
    return seed if seed else 0x1B00B1E5


class Lfsr32:
    """A 32-bit maximal-length Galois LFSR.

    The register must never be zero (the all-zero state is the single
    fixed point of an LFSR), so a zero seed is mapped to a fixed
    non-zero constant exactly as the hardware seed-load logic would.
    :meth:`next_bits` steps a byte at a time through two 256-entry
    tables; its output and final state equal ``n`` calls of
    :meth:`next_bit`.
    """

    def __init__(self, seed: int = 0xDEADBEEF) -> None:
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        seed &= 0xFFFFFFFF
        self.state = seed if seed else 0x1B00B1E5

    def next_bit(self) -> int:
        """Advance one step; return the output bit."""
        out = self.state & 1
        self.state >>= 1
        if out:
            self.state ^= _GALOIS_MASK_32
        return out

    def next_bits(self, n: int) -> int:
        """Shift out ``n`` bits (LSB first) as an ``n``-bit integer."""
        if not 0 < n <= 64:
            raise ValueError(f"bit count must be in [1, 64], got {n}")
        state = self.state
        value = 0
        shift = 0
        while n - shift >= 8:
            low = state & 0xFF
            value |= _BYTE_OUT[low] << shift
            state = (state >> 8) ^ _BYTE_FEED[low]
            shift += 8
        while shift < n:
            bit = state & 1
            state >>= 1
            if bit:
                state ^= _GALOIS_MASK_32
            value |= bit << shift
            shift += 1
        self.state = state
        return value

    def next_word(self) -> int:
        """A full 32-bit pseudo-random word."""
        return self.next_bits(32)


def _byte_step_tables():
    """Eight Galois steps at once, indexed by the register's low byte.

    Within eight steps the output bits, and the taps the register
    XORs into itself, depend only on its low byte (the high bits just
    shift down, and the taps' low bits 0-1 land inside that byte).  The
    step is linear, so eight steps take ``state`` to
    ``(state >> 8) ^ feed[state & 0xFF]`` and shift out
    ``out[state & 0xFF]`` (LSB first).
    """
    out, feed = [], []
    lfsr = Lfsr32()
    for low in range(256):
        lfsr.state = low  # set directly: reseed() maps 0 to non-zero
        out.append(sum(lfsr.next_bit() << i for i in range(8)))
        feed.append(lfsr.state)
    return tuple(out), tuple(feed)


_BYTE_OUT, _BYTE_FEED = _byte_step_tables()


class LfsrRandom:
    """Distribution sampling on top of an :class:`Lfsr32`.

    All methods consume a bounded number of LFSR bits, mirroring how a
    hardware TG converts shift-register output into traffic parameters.
    """

    def __init__(self, seed: int = 0xDEADBEEF) -> None:
        self._lfsr = Lfsr32(seed)

    def reseed(self, seed: int) -> None:
        self._lfsr.reseed(seed)

    @property
    def state(self) -> int:
        return self._lfsr.state

    def random(self) -> float:
        """Uniform float in [0, 1) with 32-bit resolution."""
        return self._lfsr.next_word() / 4294967296.0

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi].

        Uses rejection sampling over the smallest covering power of
        two, so the distribution is exactly uniform (no modulo bias).
        """
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span == 1:
            return lo
        bits = max(1, (span - 1).bit_length())
        while True:
            draw = self._lfsr.next_bits(bits)
            if draw < span:
                return lo + draw

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p`` (used for Markov transitions)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        if p == 0.0:
            return False
        if p == 1.0:
            return True
        return self.random() < p

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials up to and including first success.

        Sampled by inversion (single uniform draw), support {1, 2, ...}.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {p}")
        if p == 1.0:
            return 1
        u = self.random()
        # Guard u == 0, where log would diverge.
        u = max(u, 2.0 ** -33)
        return 1 + int(math.log(u) / math.log(1.0 - p))

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate (mean ``1/rate``)."""
        if rate <= 0.0:
            raise ValueError(f"rate must be positive, got {rate}")
        u = max(self.random(), 2.0 ** -33)
        return -math.log(u) / rate

    def choice(self, seq):
        """Uniformly pick one element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.uniform_int(0, len(seq) - 1)]
