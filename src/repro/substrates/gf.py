"""Arithmetic over the prime field ``GF(p)``.

The fingerprint protocol of Lemma A.1 interprets a bit string
``a = a_0 a_1 ... a_{lam-1}`` as the polynomial

    A(x) = a_0 + a_1 * x + ... + a_{lam-1} * x^{lam-1}  (mod p)

and exchanges ``(x, A(x))`` for a uniformly random ``x in GF(p)``.  Two
distinct polynomials of degree ``< lam`` agree on at most ``lam - 1`` points,
which is the entire soundness argument.  This module provides the small,
carefully tested field layer those statements rest on.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.substrates.primes import is_prime

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - the image ships numpy
    _np = None

# The vectorized kernels run Horner steps ``acc * x + c`` on int64 lanes;
# exactness requires ``p * p + p < 2**63``, which every fingerprint prime
# (``p < 6 * lam``) satisfies by orders of magnitude.  The bound is still
# enforced so a hypothetical giant field falls back to exact Python ints.
_VECTOR_PRIME_LIMIT = 1 << 31


def numpy_available() -> bool:
    """True when the optional numpy backend can be used."""
    return _np is not None


def vectorizable_prime(p: int) -> bool:
    """True when ``GF(p)`` arithmetic is exact on int64 numpy lanes."""
    return p < _VECTOR_PRIME_LIMIT


class PrimeField:
    """The field ``GF(p)`` for a prime ``p``.

    Instances are tiny and immutable; they exist so schemes can pass a single
    object around rather than a bare modulus, and so that the modulus is
    validated exactly once.

    >>> field = PrimeField(7)
    >>> field.add(5, 4)
    2
    >>> field.mul(3, 5)
    1
    >>> field.inv(3)
    5
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    @property
    def order(self) -> int:
        """Number of field elements."""
        return self.p

    def element(self, value: int) -> int:
        """Reduce an arbitrary integer into ``[0, p)``."""
        return value % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat's little theorem."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(p)")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        return pow(a % self.p, e, self.p)

    def poly_eval(self, coefficients: Sequence[int], x: int) -> int:
        """Evaluate ``sum(c_i * x^i)`` by Horner's rule.

        Coefficients are in *ascending* degree order, matching the paper's
        ``A(x) = a_0 + a_1 x + ...`` convention.

        >>> PrimeField(7).poly_eval([1, 2, 3], 2)  # 1 + 4 + 12 = 17 = 3 mod 7
        3
        """
        accumulator = 0
        for coefficient in reversed(coefficients):
            accumulator = (accumulator * x + coefficient) % self.p
        return accumulator

    def poly_eval_many(self, coefficients: Sequence[int], xs: Iterable[int]) -> List[int]:
        """Evaluate one polynomial at many points.

        Semantically ``[self.poly_eval(coefficients, x) for x in xs]``, but
        the coefficient sequence is reversed once for all evaluations and the
        Horner recurrence runs over locals — the shape the fingerprint layer
        needs when a ``t``-repetition certificate (or a whole batch of
        Monte-Carlo trials) evaluates the same label polynomial at many
        random points.

        >>> PrimeField(7).poly_eval_many([1, 2, 3], [2, 0])
        [3, 1]
        """
        p = self.p
        highest_first = tuple(reversed(coefficients))
        results = []
        append = results.append
        for x in xs:
            accumulator = 0
            for coefficient in highest_first:
                accumulator = (accumulator * x + coefficient) % p
            append(accumulator)
        return results

    def poly_eval_chunk(
        self, coefficients: Sequence[int], xs, descending: bool = False
    ) -> "object":
        """Evaluate one polynomial at a whole chunk of points, vectorized.

        The numpy backend of :meth:`poly_eval_many`: ``xs`` may be any
        array-like (including multi-dimensional arrays — e.g. a
        ``(trials, repetitions)`` matrix of fingerprint query points), and
        the result is an int64 array of the same shape holding
        ``poly_eval(coefficients, x)`` for each entry.  One Horner pass runs
        over the entire chunk: ``deg`` fused multiply-add-mod steps on numpy
        lanes instead of ``deg * len(xs)`` interpreted steps.

        Coefficients are ascending-degree like :meth:`poly_eval`; callers
        that already hold the highest-degree-first shape (the fingerprint
        layer's cached form) pass ``descending=True`` and skip the reversal.

        Exact by construction — intermediate values stay below ``p**2 + p``,
        within int64 for every :func:`vectorizable_prime` — and therefore
        bit-identical to the scalar evaluation.  Raises :class:`RuntimeError`
        when numpy is unavailable or the modulus is out of int64 range; use
        :func:`numpy_available` / :func:`vectorizable_prime` to gate.

        >>> PrimeField(7).poly_eval_chunk([1, 2, 3], [2, 0]).tolist()
        [3, 1]
        """
        if _np is None:
            raise RuntimeError("numpy backend requested but numpy is unavailable")
        if not vectorizable_prime(self.p):
            raise RuntimeError(f"modulus {self.p} exceeds the int64-exact range")
        highest_first = (
            coefficients if descending else tuple(reversed(coefficients))
        )
        return _poly_eval_chunk(
            # fromiter takes any sequence of ints, bytes included.
            _np.fromiter(highest_first, dtype=_np.int64, count=len(highest_first)),
            _np.asarray(xs, dtype=_np.int64),
            self.p,
        )

    def poly_from_bits(self, bits: Iterable[int]) -> List[int]:
        """Coefficients (ascending) of the polynomial encoding a bit string."""
        coefficients = []
        for bit in bits:
            if bit not in (0, 1):
                raise ValueError(f"bit string may only contain 0/1, got {bit}")
            coefficients.append(bit)
        return coefficients


def _poly_eval_chunk(highest_first, xs, p: int):
    """One polynomial over an arbitrary-shape chunk: a 1-row :func:`poly_eval_rows`."""
    return poly_eval_rows(
        highest_first.reshape(1, -1), xs.reshape(1, -1), p
    ).reshape(xs.shape)


def poly_eval_rows(highest_first_rows, xs_rows, p: int):
    """Evaluate many polynomials, each at its own chunk of points, at once.

    ``highest_first_rows`` is an int64 matrix whose row ``i`` holds the
    (highest-degree-first) coefficients of polynomial ``i``; ``xs_rows`` is
    an int64 matrix whose row ``i`` holds the query points for polynomial
    ``i``.  Returns the matching matrix of evaluations over ``GF(p)``.

    Rows must share one degree (the coefficient matrix's width); every row
    costs ``deg`` numpy passes over its points.  The batched engine
    evaluates each dirty pair's polynomials over their whole field with it,
    once per plan; see :mod:`repro.engine.kernels`.
    """
    if _np is None:  # pragma: no cover - callers gate on numpy_available
        raise RuntimeError("numpy backend requested but numpy is unavailable")
    accumulator = _np.zeros_like(xs_rows)
    for j in range(highest_first_rows.shape[1]):
        accumulator *= xs_rows
        accumulator += highest_first_rows[:, j : j + 1]
        accumulator %= p
    return accumulator


# -- GF(2) packed-word kernels ---------------------------------------------------
#
# The shared-coins compiler's certificates are random inner products over
# GF(2): parity(value & mask).  Packed into 64-bit words, one inner product
# is the XOR-fold of the per-word popcount parities, so a whole Monte-Carlo
# chunk of parity checks collapses to a few uint64 array ops — the GF(2)
# analogue of poly_eval_rows above.

WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1


def pack_value_words(value: int, width: int) -> List[int]:
    """Split a ``width``-bit integer into little-endian 64-bit words.

    Word ``j`` holds bits ``[64j, 64j + 64)`` — the layout
    :meth:`repro.core.seeding.CounterRng.getrandbits` assembles masks in,
    so packed values and packed masks AND together positionally.

    >>> pack_value_words(0b101, 3)
    [5]
    >>> pack_value_words((1 << 64) | 1, 65)
    [1, 1]
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    if value < 0 or value >> width:
        raise ValueError(f"value does not fit in {width} bits")
    return [
        (value >> (WORD_BITS * j)) & _WORD_MASK
        for j in range((width + WORD_BITS - 1) // WORD_BITS)
    ]


def parity_words(words: "object") -> "object":
    """Elementwise bit-parity (popcount mod 2) of a ``uint64`` array.

    Uses the hardware popcount (``numpy.bitwise_count``) where the numpy
    build ships it, else the log-depth XOR fold; both are exact, so the
    choice never affects a decision.
    """
    if _np is None:  # pragma: no cover - callers gate on numpy_available
        raise RuntimeError("numpy backend requested but numpy is unavailable")
    words = _np.asarray(words, dtype=_np.uint64)
    count = getattr(_np, "bitwise_count", None)
    if count is not None:
        return (count(words) & _np.uint64(1)).astype(_np.uint64)
    for shift in (32, 16, 8, 4, 2, 1):  # pragma: no cover - numpy >= 2 has bitwise_count
        words = words ^ (words >> _np.uint64(shift))
    return words & _np.uint64(1)  # pragma: no cover


def gf2_inner_parities(value_words: "object", mask_words: "object") -> "object":
    """Batched GF(2) inner products ``parity(value & mask)``.

    ``value_words`` is a ``(rows, words)`` uint64 matrix of packed values;
    ``mask_words`` any ``(..., words)`` stack of packed masks.  Returns a
    ``(..., rows)`` array of 0/1 parities: entry ``[..., r]`` is the inner
    product of value row ``r`` with the corresponding mask — each result a
    single AND + XOR-reduce + popcount-parity over uint64 lanes.

    >>> import numpy
    >>> gf2_inner_parities(
    ...     numpy.asarray([[0b110], [0b011]], dtype=numpy.uint64),
    ...     numpy.asarray([[0b010], [0b111]], dtype=numpy.uint64),
    ... ).tolist()
    [[1, 1], [0, 0]]
    """
    if _np is None:  # pragma: no cover - callers gate on numpy_available
        raise RuntimeError("numpy backend requested but numpy is unavailable")
    values = _np.asarray(value_words, dtype=_np.uint64)
    masks = _np.asarray(mask_words, dtype=_np.uint64)
    anded = values & masks[..., None, :]
    return parity_words(_np.bitwise_xor.reduce(anded, axis=-1))


def poly_equal_points(field: PrimeField, a: Sequence[int], b: Sequence[int]) -> int:
    """Count points of ``GF(p)`` where polynomials ``a`` and ``b`` agree.

    Brute force — used only by tests to validate the ``(lam-1)/p`` collision
    bound on small fields.
    """
    return sum(
        1 for x in range(field.p) if field.poly_eval(a, x) == field.poly_eval(b, x)
    )
