"""Deterministic seed derivation shared by every Monte-Carlo driver.

The repository used to derive per-trial seeds as ``hash((seed, trial))`` —
an *accidental* mixing function: Python's tuple hash is an implementation
detail, is not designed for statistical quality, and (for str/bytes inputs)
varies across interpreter invocations under ``PYTHONHASHSEED``.  Every
repeated-verification loop (``estimate_acceptance``, the batched engine,
the self-stabilization simulator, run-level majority voting) now derives
trial seeds through the explicit integer mix in this module, so all of them
agree on the probability space and results are reproducible by
construction.

The mix is **SplitMix64** (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014) — the finalizer used by
``java.util.SplittableRandom`` and the reference seeder of xoshiro.  It is
a bijection on 64-bit words whose output passes BigCrush, which makes it a
sound way to turn a (seed, counter) pair into decorrelated child seeds.

Three derivation layers live here:

- :func:`derive_trial_seed` — the per-trial seed of a Monte-Carlo loop
  (trial ``i`` of a run with master seed ``s``);
- :func:`derive_stream_seed` — the integer base of a trial's
  ``rng_mode="vector"`` stream in :mod:`repro.engine` (``(0, 0)`` for the
  one sequential edge/node stream, ``(-1, -1)`` for the public coins),
  replacing the string-seeded ``random.Random(f"{seed}|{node!r}|{port}")``
  construction whose SHA-512 seeding dominates tight trial loops.  The
  compatibility mode of the engine keeps the string construction so
  historical seeds reproduce bit-for-bit.
- the **counter-based stream** (``rng_mode="vector"`` in
  :mod:`repro.engine`): :func:`stream_word` maps a ``(stream_seed,
  counter)`` pair straight to a 64-bit word through the SplitMix64 stream
  step plus finalizer — a pure bijection per counter, with no sequential
  generator state at all.  Because word ``k`` is a closed-form function of
  ``k``, a whole Monte-Carlo chunk's draws evaluate as one numpy ``uint64``
  array op (:func:`splitmix64_array` / :func:`stream_words`), and the
  scalar adapter :class:`CounterRng` replays the exact same words one call
  at a time — the two implementations are bit-identical by construction
  and property-tested per trial.
"""

from __future__ import annotations

try:  # numpy backs the vectorized stream kernels; scalar paths never need it
    import numpy as _np
except ImportError:  # pragma: no cover - the image ships numpy
    _np = None

_MASK64 = (1 << 64) - 1
_TWO_POW_MINUS_53 = 2.0**-53

# SplitMix64 constants (Steele et al. 2014).
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """The SplitMix64 finalizer: a high-quality 64-bit bijective mix.

    >>> splitmix64(0) == splitmix64(0)
    True
    >>> splitmix64(0) != splitmix64(1)
    True
    """
    x = (x + _GOLDEN_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX_1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_2) & _MASK64
    return x ^ (x >> 31)


def derive_trial_seed(seed: int, trial: int) -> int:
    """The seed of trial number ``trial`` in a run with master seed ``seed``.

    Two SplitMix64 applications: the master seed is finalized once, offset
    by the trial counter scaled by the golden gamma (the SplitMix64 stream
    step), and finalized again.  Distinct ``(seed, trial)`` pairs therefore
    land on distinct points of a well-mixed 64-bit sequence instead of on
    the ad-hoc lattice ``hash((seed, trial))`` produced.

    >>> derive_trial_seed(0, 0) != derive_trial_seed(0, 1)
    True
    >>> derive_trial_seed(1, 0) != derive_trial_seed(0, 0)
    True
    """
    base = splitmix64(seed & _MASK64)
    return splitmix64((base + trial * _GOLDEN_GAMMA) & _MASK64)


def derive_trial_seed_array(seed: int, start: int, stop: int) -> "object":
    """Vectorized :func:`derive_trial_seed` over the counter range [start, stop).

    ``result[i] == derive_trial_seed(seed, start + i)`` bit for bit: the
    scalar mix reduces every intermediate modulo ``2**64`` exactly as the
    ``uint64`` lanes wrap.  This is the seed-slicing kernel of the sharded
    executor (:mod:`repro.parallel`): a shard owning trial counters
    ``[start, stop)`` derives its seeds as one array op, independent of
    every other shard.
    """
    if _np is None:  # pragma: no cover - callers gate on numpy availability
        raise RuntimeError("numpy backend requested but numpy is unavailable")
    base = splitmix64(seed & _MASK64)
    counters = _np.arange(start, stop, dtype=_np.uint64)
    return splitmix64_array(
        _np.uint64(base) + counters * _np.uint64(_GOLDEN_GAMMA)
    )


def trial_seed_slice(seed: int, start: int, stop: int):
    """The per-trial seeds of counters ``[start, stop)`` as a Python list.

    The one entry point every chunked/sharded driver uses to materialize a
    trial-counter range, so shard partitioning cannot drift from the
    sequential derivation: concatenating the slices of a partition of
    ``[0, trials)`` reproduces, element for element, the seeds a
    single-process run derives.  Takes the vectorized SplitMix64 kernel
    when numpy is present (bit-identical to the scalar mix); the kernels
    take :func:`derive_trial_seed_array`'s ``uint64`` array directly.
    """
    if stop <= start:
        return []
    if _np is not None:
        return derive_trial_seed_array(seed, start, stop).tolist()
    return [derive_trial_seed(seed, trial) for trial in range(start, stop)]


def stream_word(stream_seed: int, index: int) -> int:
    """Word ``index`` of the counter-based SplitMix64 stream ``stream_seed``.

    The classic SplitMix64 generator steps its state by the golden gamma and
    finalizes; here the state is *computed* instead of stepped, so any word
    of the stream is addressable in O(1) — the property the vectorized RNG
    mode is built on.  Bit-identical to :func:`splitmix64_array` applied to
    ``stream_seed + index * gamma``.

    >>> stream_word(7, 0) != stream_word(7, 1)
    True
    >>> stream_word(7, 3) == stream_word(7, 3)
    True
    """
    return splitmix64((stream_seed + index * _GOLDEN_GAMMA) & _MASK64)


def splitmix64_array(x: "object") -> "object":
    """The numpy ``uint64`` kernel of :func:`splitmix64` — elementwise.

    ``x`` is anything convertible to a ``uint64`` array (entries already
    reduced mod ``2**64``); the result holds ``splitmix64(entry)`` for every
    entry, bit-identical to the scalar mix (``uint64`` lanes wrap exactly
    like the ``& _MASK64`` reductions above).
    """
    if _np is None:  # pragma: no cover - callers gate on numpy availability
        raise RuntimeError("numpy backend requested but numpy is unavailable")
    u64 = _np.uint64
    x = _np.asarray(x, dtype=u64) + u64(_GOLDEN_GAMMA)
    x = (x ^ (x >> u64(30))) * u64(_MIX_1)
    x = (x ^ (x >> u64(27))) * u64(_MIX_2)
    return x ^ (x >> u64(31))


def stream_words(stream_seeds: "object", counters: "object") -> "object":
    """``words[i, j] = stream_word(stream_seeds[i], counters[j])``, batched.

    One broadcasted array op per Monte-Carlo chunk: rows are trials (one
    stream seed each), columns are the chunk's flat draw counters.  This is
    the whole-chunk draw kernel of ``rng_mode="vector"``.
    """
    if _np is None:  # pragma: no cover - callers gate on numpy availability
        raise RuntimeError("numpy backend requested but numpy is unavailable")
    u64 = _np.uint64
    seeds = _np.asarray(stream_seeds, dtype=u64)
    steps = _np.asarray(counters, dtype=u64) * u64(_GOLDEN_GAMMA)
    return splitmix64_array(seeds[:, None] + steps[None, :])


def derive_stream_seed_array(trial_seeds: "object", node_index: int, port: int) -> "object":
    """Vectorized :func:`derive_stream_seed` over a chunk of trial seeds.

    ``trial_seeds`` must already be reduced into ``[0, 2**64)``: a caller's
    seed may be any int, negative included, so mask it with
    ``& ((1 << 64) - 1)`` first.  The result is bit-identical to the scalar
    derivation per entry.
    """
    base = splitmix64_array(trial_seeds)
    tag = ((node_index + 1) << 20) ^ (port + 1)
    return splitmix64_array(base ^ _np.uint64(splitmix64(tag & _MASK64)))


class CounterRng:
    """Scalar adapter over the counter-based stream, ``random.Random``-shaped.

    The engine's ``rng_mode="vector"`` draws whole chunks through
    :func:`stream_words`; this class replays the identical word sequence one
    call at a time so the *scalar* hook path can run the same probability
    point (and so the bit-identity property tests have a per-trial oracle).
    It deliberately implements only the three methods the engine hook
    contract allows certificate generators to call — :meth:`randrange`,
    :meth:`getrandbits` and :meth:`random` — because every other
    ``random.Random`` method has data-dependent word consumption that a
    counter-addressed kernel cannot replay.

    :meth:`randrange` reduces a stream word modulo ``n``; the modulo bias is
    below ``n / 2**64`` (< ``2**-33`` for every fingerprint field), orders
    of magnitude under what any statistical test here could resolve, and —
    unlike rejection sampling — keeps word consumption a pure function of
    the call count.
    """

    __slots__ = ("stream_seed", "counter")

    def __init__(self, stream_seed: int = 0):
        self.seed(stream_seed)

    def seed(self, stream_seed: int) -> None:
        """Rebase the stream; the counter restarts at word 0."""
        self.stream_seed = stream_seed & _MASK64
        self.counter = 0

    # The three draws inline :func:`stream_word` (word ``c`` is the
    # SplitMix64 finalizer of ``stream_seed + (c + 1) * gamma``): one Python
    # call per draw instead of three, same words in the same order.

    def randrange(self, n: int) -> int:
        """A draw from ``[0, n)`` — one stream word, reduced modulo ``n``."""
        if n <= 0:
            raise ValueError("empty range for randrange()")
        self.counter = counter = self.counter + 1
        x = (self.stream_seed + counter * _GOLDEN_GAMMA) & _MASK64
        x = ((x ^ (x >> 30)) * _MIX_1) & _MASK64
        x = ((x ^ (x >> 27)) * _MIX_2) & _MASK64
        return (x ^ (x >> 31)) % n

    def getrandbits(self, k: int) -> int:
        """``k`` random bits from ``ceil(k / 64)`` stream words.

        Words assemble little-endian (word ``j`` holds bits ``64j`` and up)
        and the top word is truncated to the remaining width — the exact
        layout the packed-``uint64`` parity kernel reproduces per mask.
        """
        if k <= 0:
            raise ValueError("number of bits must be greater than zero")
        words = (k + 63) // 64
        base = self.counter
        stream_seed = self.stream_seed
        value = 0
        for j in range(words):
            x = (stream_seed + (base + j + 1) * _GOLDEN_GAMMA) & _MASK64
            x = ((x ^ (x >> 30)) * _MIX_1) & _MASK64
            x = ((x ^ (x >> 27)) * _MIX_2) & _MASK64
            value |= (x ^ (x >> 31)) << (64 * j)
        self.counter = base + words
        return value & ((1 << k) - 1)

    def random(self) -> float:
        """A float in ``[0, 1)`` from one stream word: its top 53 bits,
        scaled by ``2**-53`` (every value is exact in a double)."""
        self.counter = counter = self.counter + 1
        x = (self.stream_seed + counter * _GOLDEN_GAMMA) & _MASK64
        x = ((x ^ (x >> 30)) * _MIX_1) & _MASK64
        x = ((x ^ (x >> 27)) * _MIX_2) & _MASK64
        return ((x ^ (x >> 31)) >> 11) * _TWO_POW_MINUS_53

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CounterRng seed={self.stream_seed:#x} counter={self.counter}>"


def derive_stream_seed(trial_seed: int, node_index: int, port: int) -> int:
    """Integer base seed of a (node, port) stream of a trial — the base of
    the engine's ``rng_mode="vector"`` counter-based stream.

    ``port=-1`` addresses the node-shared stream (``randomness="node"``)
    and ``node_index=-1`` the global public-coin stream
    (``randomness="shared"``); real ports and node indices are
    non-negative, so the three address spaces cannot collide.
    """
    base = splitmix64(trial_seed & _MASK64)
    tag = ((node_index + 1) << 20) ^ (port + 1)
    return splitmix64((base ^ splitmix64(tag & _MASK64)) & _MASK64)
