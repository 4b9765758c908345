"""Polynomial identity fingerprints over ``GF(p)`` — Lemma A.1.

This is the randomness engine behind every upper bound in the paper.  A
``lam``-bit string ``a = a_0 ... a_{lam-1}`` is read as the polynomial

    A(x) = a_0 + a_1 x + ... + a_{lam-1} x^{lam-1}   over GF(p),

for a fixed prime ``3*lam < p < 6*lam``.  A *fingerprint* is the pair
``(x, A(x))`` for a uniformly random ``x``; it occupies ``2 * ceil(log2 p)``
= ``O(log lam)`` bits.  Checking a fingerprint against a local string ``b``
means evaluating ``B(x)`` and comparing:

- **completeness** — if ``a == b`` the polynomials are identical, so the
  check passes for *every* ``x`` (this is why all schemes built on
  fingerprints are one-sided);
- **soundness** — if ``a != b``, the two distinct polynomials of degree
  ``< lam`` agree on at most ``lam - 1`` of the ``p > 3*lam`` points, so the
  check passes with probability ``< 1/3``.

``repetitions`` independent fingerprints drive the failure probability to
``(1/3)^t`` at a ``t``-fold size cost — the paper's epsilon-tuning knob.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

from repro.core.bitstrings import BitReader, BitString, BitWriter, bits_for_max
from repro.substrates.gf import PrimeField, numpy_available, vectorizable_prime
from repro.substrates.primes import fingerprint_prime

# A fingerprint stripped of its bit packing: the total packed width plus the
# ``(x, A(x))`` point list.  The batched engine ships these between co-located
# verifier contexts instead of real bit strings — the packing is lossless and
# both ends share one scheme instance, so accept/reject decisions are
# unchanged while the BitWriter/BitReader round-trip disappears from the
# per-trial cost.
RawFingerprint = Tuple[int, Tuple[Tuple[int, int], ...]]


@dataclass(frozen=True)
class FingerprintVectorSpec:
    """Everything the vectorized trial-chunk kernel needs about one node.

    Produced by the optional ``engine_vector_spec`` scheme hook (see
    :mod:`repro.engine.kernels`) for schemes whose certificates are pure
    polynomial fingerprints.  ``own`` / ``stored`` are the node context's
    highest-degree-first coefficient sequences (bytes, from
    :meth:`Fingerprinter.reversed_coefficients`) — ``own`` for the polynomial
    this node evaluates when *sending*, ``stored[q]`` for the replica it
    checks the port-``q`` message against; the kernel compares them by
    value to find the dirty pairs, and tabulates a dirty pair over one
    field from the difference of the receiver's ``stored[q]`` and the
    sender's ``own`` (see :mod:`repro.engine.kernels`).  The plan computes
    a context's spec once and keeps it in the node's compile slot, so a
    spec must be a pure function of the context.
    ``draws`` is the number of ``randrange`` query points drawn per
    half-edge certificate call (``sub_points`` per sub-certificate, times
    the boosting factor for wrapped schemes), and ``certificate_bits`` the
    packed width of one sub-certificate — the two quantities the scalar
    ``check_raw`` validates before any arithmetic.
    ``accepts_when_checks_pass`` is the node's trial-invariant residual
    verdict (for the Theorem 3.1 compiler: the base verifier's decision on
    the stored replicas).  ``header`` holds the fields a certificate
    carries ahead of its fingerprint, which a receiver requires to equal
    its own before any arithmetic (``DirectUnifRPLS``: the payload length);
    like a format mismatch, unequal headers reject every trial.
    """

    prime: int
    sub_points: int
    certificate_bits: int
    draws: int
    own: Sequence[int]
    stored: Tuple[Sequence[int], ...]
    accepts_when_checks_pass: bool
    header: Tuple[int, ...] = ()


@dataclass(frozen=True)
class FingerprintParams:
    """The public parameters of a fingerprint family for ``lam``-bit inputs."""

    lam: int
    prime: int
    coordinate_bits: int

    @property
    def certificate_bits(self) -> int:
        """Bits per single fingerprint: the point ``x`` plus the value."""
        return 2 * self.coordinate_bits


class Fingerprinter:
    """Produces and checks fingerprints of ``lam``-bit strings.

    Instances are deterministic public objects — the prime is a function of
    ``lam`` alone, so sender and receiver agree on the field without
    communicating.

    >>> fp = Fingerprinter(16)
    >>> rng = random.Random(7)
    >>> data = BitString.from_int(0xBEEF, 16)
    >>> fp.check(data, fp.make(data, rng))
    True
    """

    def __init__(self, lam: int, repetitions: int = 1):
        if lam < 0:
            raise ValueError("lam must be non-negative")
        if repetitions < 1:
            raise ValueError("need at least one repetition")
        self.lam = lam
        self.repetitions = repetitions
        prime = fingerprint_prime(lam)
        self.field = PrimeField(prime)
        self.params = FingerprintParams(
            lam=lam,
            prime=prime,
            coordinate_bits=bits_for_max(prime - 1),
        )
        # Total fingerprint size, 2 * ceil(log2 p) * repetitions bits — a
        # plain attribute because the batched engine reads it per message.
        self.certificate_bits = self.params.certificate_bits * repetitions
        # Coefficient extraction per distinct input string.  Verification
        # loops fingerprint the same handful of label replicas thousands of
        # times (and re-parse them into fresh-but-equal BitString objects),
        # so the cache is keyed by value, not identity.
        self._coefficients = lru_cache(maxsize=1024)(self._extract_coefficients)

    @staticmethod
    @lru_cache(maxsize=256)
    def shared(lam: int, repetitions: int = 1) -> "Fingerprinter":
        """A process-wide memoized instance for ``(lam, repetitions)``.

        Instances are deterministic public objects, so sharing them is safe;
        schemes that used to build a fingerprinter per node (or per
        certificate call) route through here and pay the prime search and
        field construction once per parameter pair.
        """
        return Fingerprinter(lam, repetitions=repetitions)

    # -- sizes ---------------------------------------------------------------

    def soundness_error(self) -> float:
        """Upper bound on ``Pr[check passes | strings differ]``.

        ``((lam - 1) / p) ** repetitions`` — strictly below ``(1/3)^t``.
        """
        if self.lam <= 1:
            # Degenerate: distinct 1-bit strings are the polynomials 0 and 1,
            # which agree nowhere, and length-0 strings are always equal.
            return 0.0
        return ((self.lam - 1) / self.params.prime) ** self.repetitions

    # -- operations ------------------------------------------------------------

    def _extract_coefficients(self, data: BitString) -> Tuple[int, ...]:
        if data.length != self.lam:
            raise ValueError(
                f"fingerprinter for {self.lam}-bit strings got {data.length} bits"
            )
        return data.bit_tuple()

    def sample_points(self, data: BitString, rng: random.Random) -> Tuple[Tuple[int, int], ...]:
        """Draw ``repetitions`` fingerprint points ``(x, A(x))`` of ``data``.

        The evaluation points are drawn first (the same ``rng`` consumption
        order as interleaved draw-evaluate loops) and the polynomial is then
        evaluated at all of them in one multi-point pass.
        """
        coefficients = self._coefficients(data)
        prime = self.params.prime
        xs = [rng.randrange(prime) for _ in range(self.repetitions)]
        values = self.field.poly_eval_many(coefficients, xs)
        return tuple(zip(xs, values))

    def make(self, data: BitString, rng: random.Random) -> BitString:
        """Fingerprint ``data``: ``repetitions`` pairs ``(x, A(x))``."""
        writer = BitWriter()
        width = self.params.coordinate_bits
        for x, value in self.sample_points(data, rng):
            writer.write_uint(x, width)
            writer.write_uint(value, width)
        return writer.finish()

    # -- unpacked (engine) operations ------------------------------------------
    #
    # The batched engine never ships certificates over a wire, so it works
    # on RawFingerprint objects and on *reversed* coefficient bytes cached
    # in per-node contexts — the Horner loops below run on locals with no
    # cache lookups or packing in the per-trial path.  The recurrence is
    # deliberately inlined here rather than shared with PrimeField.poly_eval:
    # these two loops are the hottest code in the repository (one execution
    # per fingerprint point per trial), and a shared kernel would add a
    # function call per point.

    def reversed_coefficients(self, data: BitString) -> bytes:
        """``data``'s polynomial coefficients, highest degree first.

        The shape the Horner evaluations of :meth:`sample_raw` /
        :meth:`check_raw` consume; engine contexts compute this once per
        label replica at plan-compile time.  Every coefficient is a bit of
        ``data``, so one byte holds it: a context keeps a replica in an
        eighth of a tuple's memory, and two replicas compare as bytes.
        Bypasses the value-keyed coefficient cache: the plan compiler's
        node-context memo already dedupes replicas across compiles, and
        routing every forged replica a compile sees through the cache would
        only retain them.
        """
        return bytes(reversed(self._extract_coefficients(data)))

    def _cached_reversed_coefficients(self, data: BitString) -> bytes:
        return bytes(reversed(self._coefficients(data)))

    def make_raw(self, data: BitString, rng: random.Random) -> RawFingerprint:
        """The unpacked form of :meth:`make`: ``(packed width, points)``.

        The drawn points are identical to what :meth:`make` would pack for
        the same ``rng`` state.
        """
        return self.sample_raw(self._cached_reversed_coefficients(data), rng)

    def sample_raw(
        self, reversed_coefficients: Sequence[int], rng: random.Random
    ) -> RawFingerprint:
        """Draw an unpacked fingerprint from precomputed coefficients."""
        prime = self.params.prime
        randrange = rng.randrange
        points = []
        for _ in range(self.repetitions):
            x = randrange(prime)
            accumulator = 0
            for coefficient in reversed_coefficients:
                accumulator = (accumulator * x + coefficient) % prime
            points.append((x, accumulator))
        return (self.certificate_bits, tuple(points))

    def check_raw(
        self, reversed_coefficients: Sequence[int], certificate: RawFingerprint
    ) -> bool:
        """:meth:`check` for an unpacked certificate.

        Decision-identical to packing the points with the *sender's*
        fingerprinter and running :meth:`check`, provided sender and
        receiver use the same ``repetitions`` (always true when both ends
        run one scheme instance): equal packed widths then imply equal
        coordinate widths, so the unpacking this method skips would have
        recovered exactly ``points``.
        """
        packed_bits, points = certificate
        if packed_bits != self.certificate_bits or len(points) != self.repetitions:
            return False
        prime = self.params.prime
        for x, claimed in points:
            if x >= prime or claimed >= prime:
                return False
            accumulator = 0
            for coefficient in reversed_coefficients:
                accumulator = (accumulator * x + coefficient) % prime
            if accumulator != claimed:
                return False
        return True

    # -- vectorized (numpy) backend ---------------------------------------------
    #
    # Evaluating one label polynomial at many query points at once (the
    # batched engine tabulates whole fields this way) is a single vectorized
    # Horner pass: bit-identical values to the scalar loops above (int64
    # stays exact for every fingerprint prime), at a fraction of the
    # interpreted cost.

    def vectorizable(self) -> bool:
        """True when this fingerprinter's field supports the numpy kernels."""
        return numpy_available() and vectorizable_prime(self.params.prime)

    def eval_chunk(self, reversed_coefficients: Sequence[int], xs):
        """Evaluate the polynomial at an array of points — numpy backend.

        ``reversed_coefficients`` is the highest-degree-first shape of
        :meth:`reversed_coefficients` (cached in engine contexts); ``xs``
        may have any shape (typically ``(trials, repetitions)``).  Entries
        need not be reduced modulo the prime — out-of-field query points
        evaluate like their scalar counterparts, and rejection of
        out-of-range coordinates stays the caller's job, as in
        :meth:`check_raw`.  Requires :meth:`vectorizable`.
        """
        return self.field.poly_eval_chunk(reversed_coefficients, xs, descending=True)

    def check(self, data: BitString, certificate: BitString) -> bool:
        """Evaluate ``data``'s polynomial at the certificate's points.

        Returns False on malformed certificates (wrong size, coordinates
        outside the field) — forged messages must be rejected, not trusted.
        """
        if certificate.length != self.certificate_bits:
            return False
        width = self.params.coordinate_bits
        reader = BitReader(certificate)
        points = tuple(
            (reader.read_uint(width), reader.read_uint(width))
            for _ in range(self.repetitions)
        )
        return self._check_points(data, points)

    def _check_points(self, data: BitString, points) -> bool:
        return self.check_raw(
            self._cached_reversed_coefficients(data), (self.certificate_bits, points)
        )


def repetitions_for_error(target_error: float) -> int:
    """Repetitions needed to push one-sided error below ``target_error``.

    Each fingerprint errs with probability < 1/3, so ``t`` repetitions err
    with probability < ``(1/3)^t`` — the ``O(log 1/delta)`` of footnote 1.

    >>> repetitions_for_error(1e-6)
    13
    """
    if not 0 < target_error < 1:
        raise ValueError("target_error must be in (0, 1)")
    repetitions = 1
    error = 1.0 / 3.0
    while error >= target_error:
        repetitions += 1
        error /= 3.0
    return repetitions
