"""Vectorized trial-chunk execution — numpy passes over whole chunks.

The scalar hook path of :class:`~repro.engine.plan.VerificationPlan` spends
almost all of its per-trial time in two interpreted Horner loops (sender-side
fingerprint sampling, receiver-side checking): one multiply-add-mod step per
label bit, per query point, per half-edge, per trial.  For a scheme whose
certificates are *pure polynomial fingerprints* — the Theorem 3.1 compiler
and its boosted wrapper — none of that arithmetic depends on the trial.  The
fingerprint field is tiny (``p < 6 * lam``), so the check on a (receiver,
port) pair is a fixed boolean function of the drawn point ``x``:

- a pair is **clean** when the receiver's field and stored replica equal the
  sender's field and label polynomial; it passes every check for every
  ``x`` and drops out of the kernel;
- a pair is **dirty** otherwise, and its check is tabulated once, over
  ``x in range(p_s)`` (the sender's field, where its points are drawn), as
  the *agree row* ``x < p_r and A_s(x) < p_r and Q_r(x) == A_s(x)``.

When both ends use one field (every pair but a forged-kappa one), the row
is ``D(x) == 0`` for the *difference polynomial* ``D = Q_r - A_s``,
reduced mod ``p``.  Factoring ``D = x**j C`` with ``C(0) != 0`` settles
``x = 0`` (agrees iff ``j > 0``) and leaves ``C`` for the other points;
a single-bit forgery changes one coefficient, so ``C`` is a nonzero
constant and the row needs no Horner at all.  Pairs over two fields keep
the two-polynomial row above.  Horner runs only while the agree rows are
built (:meth:`_VectorState.prepare`, :func:`repro.substrates.gf.poly_eval_rows`
passes over ``arange(p)``), once per distinct dirty pair.
A chunk is then three stages, touching only the dirty pairs:

1. **draw** — the kernels run only ``rng_mode="vector"``, whose draws
   come from the counter-based SplitMix64 stream of
   :mod:`repro.core.seeding`: word ``k`` is a closed-form function of
   ``(stream seed, k)``, so only the dirty pairs' counters are evaluated,
   as **one** ``uint64`` array op (:func:`repro.core.seeding.stream_words`).
   The scalar :class:`~repro.core.seeding.CounterRng` path replays the
   identical words in the identical order (the checks consume no
   randomness), which is what keeps the kernel decision-identical to it
   per trial.  Compat mode's string-seeded ``random.Random`` streams have
   no batched form; compat plans run the scalar hook path.
2. **gather** — every drawn point is looked up in its pair's agree row.
3. **all** — a trial accepts iff every looked-up entry is True.

A plan with no dirty pair (every honest plan) accepts every trial: its chunk
is all-True and draws nothing.

A second kernel family covers the shared-coins compiler
(:class:`~repro.core.shared.SharedCoinsCompiledRPLS`), whose certificates
are GF(2) inner products rather than polynomial evaluations: sender and
receiver agree on an edge exactly when ``parity((own ^ stored) & mask) ==
0`` for every public mask, so the plan compiles each (receiver, port) pair
into a packed-``uint64`` XOR-diff row, keeps the nonzero rows (a zero row
never fails), and a whole chunk's checks batch as one AND + XOR-reduce +
popcount-parity pass (:func:`repro.substrates.gf.gf2_inner_parities`).

Eligibility is decided once per plan (:func:`vector_state`): the scheme must
expose the optional ``engine_vector_spec`` hook and every node context must
produce a spec of one kind (read from the node's compile slot, where it is
computed once per context — see "Incremental compile" in
:mod:`repro.engine.plan`) — :class:`~repro.core.fingerprint.FingerprintVectorSpec`
for the agreement-table kernel, :class:`~repro.core.shared.ParityVectorSpec`
for the parity kernel — otherwise the plan runs the scalar hook path
unchanged.  Trial-invariant rejections (a node whose residual verdict is
False, a sender/receiver fingerprint-format or header mismatch, a
shared-coins plan run without public coins) make every trial of the plan
reject; the kernels fold them into a constant-False chunk without touching
the arithmetic, mirroring the plan-level constant-False short-circuit for
unparseable labels.

The description is kept per (configuration skeleton, scheme) as a
:class:`_PairTable` — every node's spec and every pair's check — and moved
to each new plan's slots in place: only the pairs incident to a node whose
slot changed are checked again, so a one-node relabel costs that node's
pairs, not a pass over the half-edges.

Arithmetic is exact: coefficients and query points live below the
fingerprint prime, so every Horner step stays below ``p**2 + p``, far inside
int64 (enforced via :func:`repro.substrates.gf.vectorizable_prime`); the
GF(2) kernel is plain bitwise algebra on ``uint64`` lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import is_not
from typing import ClassVar, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.core.fingerprint import FingerprintVectorSpec
from repro.core.seeding import derive_stream_seed_array, stream_words
from repro.core.shared import ParityVectorSpec
from repro.engine.plan import check_kernel_mode
from repro.substrates.gf import (
    WORD_BITS,
    gf2_inner_parities,
    numpy_available,
    pack_value_words,
    poly_eval_rows,
)

try:  # optional accelerator; vector_state() returns None without it
    import numpy as _np
except ImportError:  # pragma: no cover - the image ships numpy
    _np = None

_UNSET = object()
_MASK64 = (1 << 64) - 1


class _DirtyPair(NamedTuple):
    """A (receiver, port) pair whose check depends on the drawn point."""

    source: int                      # flat half-edge delivering the message
    sender_prime: int                # field the points are drawn in
    sent: Sequence[int]              # sender's label polynomial A_s
    receiver_prime: int
    stored: Sequence[int]            # receiver's stored replica Q_r


@dataclass
class _VectorState:
    """Per-plan description consumed by the fingerprint agreement kernel."""

    kernel_path: ClassVar[str] = "table"
    draws: int                       # query points drawn per half-edge call
    constant_false: bool             # some node rejects every trial
    pairs: Tuple[_DirtyPair, ...] = ()
    # Per (dirty pair, draw) position, in pair-major order: the stream
    # counter of the position, the field it reduces into, and
    # the start of its pair's row in ``agree``.
    counters: Optional["object"] = None       # (pairs * draws,) uint64
    draw_primes: Optional["object"] = None    # (pairs * draws,) uint64
    row_starts: Optional["object"] = None     # (pairs * draws,) int64
    # The dirty pairs' agree rows, concatenated (row i has sender_prime
    # entries); built by prepare(), memoized.
    agree: Optional["object"] = None

    @property
    def dirty_pairs(self) -> int:
        return len(self.pairs)

    def prepare(self) -> "_VectorState":
        """Build the agree rows once; later calls evaluate nothing."""
        if self.agree is None and self.pairs:
            self.agree = _agree_rows(self.pairs)
        return self


@dataclass
class _ParityState:
    """Per-plan immutable description consumed by the parity kernel."""

    kernel_path: ClassVar[str] = "parity"
    repetitions: int                 # public masks (= certificate bits) per trial
    width: int                       # replica width the masks are drawn at
    mask_words: int                  # ceil(width / 64)
    constant_false: bool             # some node rejects every trial
    # One packed XOR-diff row per (receiver, port) pair whose diff is
    # nonzero: the parity checks of a trial pass exactly when every mask's
    # inner product with every row is 0.
    diff_words: Optional["object"] = None     # (dirty pairs, mask_words) uint64

    @property
    def dirty_pairs(self) -> int:
        return 0 if self.diff_words is None else len(self.diff_words)

    def prepare(self) -> "_ParityState":
        return self


def vector_state(plan):
    """Build (and cache on the plan) the vectorized description, if eligible.

    Returns a :class:`_VectorState` (fingerprint agreement kernel), a
    :class:`_ParityState` (shared-coins GF(2) kernel), or ``None`` when the
    plan cannot run vectorized: numpy missing, no scheme hooks, a hook
    context without a vector spec, mixed spec kinds, or an
    unparseable-label context — the latter is already a plan-level constant
    False and never reaches the kernel.  Building the state compares
    coefficients only; the fingerprint agree rows are built by the state's
    ``prepare()`` (called by ``plan.prepare()`` and by the first chunk).

    The state equals :func:`_build_vector_state`'s from-scratch build, but
    is reached by updating the plan's compile memo's :class:`_PairTable` in
    place: only the pairs incident to a node whose slot changed since the
    table's last description are looked at again.
    """
    cached = getattr(plan, "_vector_state", _UNSET)
    if cached is not _UNSET:
        return cached
    if not _eligible(plan):
        state = None
    elif plan.contexts is not plan._compiled[1]:  # contexts swapped after compile
        state = _build_vector_state(plan)
    else:
        memo = plan._compiled[0]
        with memo.lock:
            table = memo.kernel
            state = _UNSET if table is None else table.update(plan)
            if state is _UNSET:
                # No table yet, or a changed spec broke the shared shape: a
                # plan without a kernel leaves the old table standing.
                table = _PairTable.build(plan)
                state = None if table is None else table.state(plan)
                if table is not None:
                    memo.kernel = table
    plan._vector_state = state
    return state


def _eligible(plan) -> bool:
    """numpy is there and the scheme has hooks and a vector-spec hook."""
    return (
        _np is not None
        and numpy_available()
        and plan.contexts is not None
        and getattr(plan.scheme, "engine_vector_spec", None) is not None
    )


def _build_vector_state(plan):
    """The plan's kernel description, built from scratch."""
    if not _eligible(plan):
        return None
    table = _PairTable.build(plan)
    return None if table is None else table.state(plan)


_MISMATCH = object()  # a pair check's result: the formats differ, every trial rejects


def _check(kind, receiver, port: int, sender, source: int):
    """One (receiver, port) pair's trial-invariant check, against the
    message of half-edge ``source``: ``None`` when it passes for every draw,
    :data:`_MISMATCH` when it fails for every draw, otherwise the pair's
    kernel row (a :class:`_DirtyPair`, or a parity pair's packed XOR-diff
    words)."""
    if kind is ParityVectorSpec:
        diff = receiver.stored_values[port] ^ sender.own_value
        return pack_value_words(diff, receiver.width) if diff else None
    # Sender/receiver fingerprint-format mismatches (a forged label claiming
    # a different kappa, a Unif payload of another length) are
    # trial-invariant: the scalar check rejects on them before any
    # arithmetic, every trial.  Otherwise a pair is dirty unless its
    # receiver checks the sender's own polynomial over the sender's own
    # field.
    if (
        sender.certificate_bits != receiver.certificate_bits
        or sender.sub_points != receiver.sub_points
        or sender.header != receiver.header
    ):
        return _MISMATCH
    stored = receiver.stored[port]
    if receiver.prime != sender.prime or stored != sender.own:
        return _DirtyPair(source, sender.prime, sender.own, receiver.prime, stored)
    return None


def _shape(spec) -> tuple:
    """What every node of a kernel plan must share: the spec kind, the
    fingerprint draw count, or the parity mask count and width."""
    if isinstance(spec, FingerprintVectorSpec):
        return (FingerprintVectorSpec, spec.draws)
    if isinstance(spec, ParityVectorSpec):
        return (ParityVectorSpec, spec.repetitions, spec.width)
    return (None,)  # pragma: no cover - the two spec kinds are the only ones


class _PairTable:
    """Every node's spec and every (receiver, port) pair's check for one
    plan's slots, kept on the compile memo to be updated in place.

    A pair is keyed by the receiver's flat half-edge index ``k`` (port ``q``
    of node ``i`` is ``offset[i] + q``, the layout of the half-edges), and
    its message comes from half-edge ``sources[k]``.  ``checks[k]`` holds
    the pair's last two ``(receiver spec, sender spec, result)`` triples,
    the current one first, so a node that returns to a spec it had one
    change ago (the victim of a scan's previous candidate) is not compared
    again; as with the node slots, the return drops the newer triple.
    (Two victims in a row that are neighbours evict their shared edge's
    older checks, which the next candidate then repeats.)  ``rows`` maps
    the dirty pairs' keys to their rows, ``mismatched`` holds the format
    mismatches and ``rejecting`` the nodes whose residual verdict is False.
    """

    __slots__ = (
        "slots", "specs", "shape", "offsets", "owners", "sources",
        "checks", "rows", "mismatched", "rejecting",
    )

    @classmethod
    def build(cls, plan) -> Optional["_PairTable"]:
        """Describe every node and check every pair; ``None`` where the plan
        has no kernel (a context without a spec, unparseable labels, specs
        that do not share one shape)."""
        spec_hook = plan.scheme.engine_vector_spec
        specs = []
        for slot, context in zip(plan._slots, plan.contexts):
            if context is None:
                return None  # plan.constant_verdict is False; nothing to run
            if slot.context is context:
                spec = slot.vector_spec(spec_hook)
            else:  # a context swapped into the plan after compile
                spec = spec_hook(context)
            if spec is None:
                return None
            specs.append(spec)
        shapes = set(map(_shape, specs))
        if len(shapes) != 1:
            # Mixed kinds cannot happen within one scheme; differing kappa
            # claims across shared-coins nodes draw masks at different
            # widths, so the per-edge verdicts are genuinely random *and*
            # asymmetric — the scalar hook path handles that shape; the
            # batched kernel only takes the uniform-width case every honest
            # (and every single-bit-fault) workload has.
            return None
        table = cls()
        table.slots = plan._slots
        table.specs = specs
        table.shape = shapes.pop()
        offsets = []
        total = 0
        for degree in plan.degrees:
            offsets.append(total)
            total += degree
        table.offsets = offsets
        table.owners = plan.half_edge_owners
        table.sources = tuple(source for ports in plan.incoming for source in ports)
        table.checks = [None] * total
        table.rows = {}
        table.mismatched = set()
        table.rejecting = {
            i for i, spec in enumerate(specs) if not spec.accepts_when_checks_pass
        }
        for k in range(total):
            table._recheck(k)
        return table

    def update(self, plan):
        """Move the table to ``plan``'s slots and return the plan's state.

        Returns ``None`` (table untouched) when a changed node has no spec,
        as the from-scratch build would, and :data:`_UNSET` when a changed
        spec breaks the shared shape, which only a from-scratch build can
        settle.
        """
        slots = plan._slots
        changed = list(compress(count(), map(is_not, slots, self.slots)))
        if changed:
            spec_hook = plan.scheme.engine_vector_spec
            fresh = []
            for i in changed:
                slot = slots[i]
                if slot.context is None:
                    return None
                spec = slot.vector_spec(spec_hook)
                if spec is None:
                    return None
                if _shape(spec) != self.shape:
                    return _UNSET
                fresh.append(spec)
            keys = set()
            specs, offsets, sources = self.specs, self.offsets, self.sources
            for i, spec in zip(changed, fresh):
                specs[i] = spec
                if spec.accepts_when_checks_pass:
                    self.rejecting.discard(i)
                else:
                    self.rejecting.add(i)
                for k in range(offsets[i], offsets[i] + plan.degrees[i]):
                    keys.add(k)           # i receives on this port
                    keys.add(sources[k])  # and sends to the pair across
            for k in keys:
                self._recheck(k)
            self.slots = slots
        return self.state(plan)

    def _recheck(self, k: int) -> None:
        """Bring pair ``k``'s result up to date with the current specs."""
        receiver_index = self.owners[k]
        receiver = self.specs[receiver_index]
        source = self.sources[k]
        sender = self.specs[self.owners[source]]
        held = self.checks[k]
        if held is not None:
            current, previous = held
            if current[0] is receiver and current[1] is sender:
                return
            if previous is not None and previous[0] is receiver and previous[1] is sender:
                self.checks[k] = (previous, None)
                self._file(k, previous[2])
                return
        else:
            current = None
        result = _check(
            self.shape[0], receiver, k - self.offsets[receiver_index], sender, source
        )
        self.checks[k] = ((receiver, sender, result), current)
        self._file(k, result)

    def _file(self, k: int, result) -> None:
        self.rows.pop(k, None)
        self.mismatched.discard(k)
        if result is _MISMATCH:
            self.mismatched.add(k)
        elif result is not None:
            self.rows[k] = result

    def state(self, plan):
        """The kernel state these checks describe under ``plan``'s
        randomness: pairs in receiver-major, port-ascending order."""
        rows = [self.rows[k] for k in sorted(self.rows)]
        if self.shape[0] is ParityVectorSpec:
            return _parity_state(plan, self.shape, bool(self.rejecting), rows)
        return _fingerprint_state(
            plan, self.shape[1], bool(self.rejecting or self.mismatched), rows
        )


def _fingerprint_state(plan, draw_count: int, constant_false: bool, pairs) -> _VectorState:
    if constant_false:
        return _VectorState(draws=draw_count, constant_false=True)
    if not pairs:
        return _VectorState(draws=draw_count, constant_false=False)

    # Dirty pair k's draw d sits at position k * draws + d.  Under edge/node
    # randomness one stream feeds every half-edge in sequence (half-edge h's
    # draw d is word h * draws + d); under shared randomness every half-edge
    # replays the public stream from word 0 (each sender re-seeds per call).
    draw_range = _np.arange(draw_count, dtype=_np.uint64)
    sources = _np.asarray([pair.source for pair in pairs], dtype=_np.uint64)
    if plan.randomness == "shared":
        counters = _np.tile(draw_range, len(pairs))
    else:
        counters = (sources[:, None] * _np.uint64(draw_count) + draw_range).reshape(-1)
    sender_primes = _np.asarray([pair.sender_prime for pair in pairs], dtype=_np.int64)
    starts = _np.concatenate(([0], _np.cumsum(sender_primes)[:-1]))

    return _VectorState(
        draws=draw_count,
        constant_false=False,
        pairs=tuple(pairs),
        counters=counters,
        draw_primes=_np.repeat(sender_primes.astype(_np.uint64), draw_count),
        row_starts=_np.repeat(starts, draw_count),
    )


def _agree_rows(pairs):
    """Every dirty pair's check tabulated over its sender's field, concatenated.

    The only Horner evaluation of the kernel, once per distinct pair
    (a sender-side fault dirties every pair its polynomial reaches, all
    with the same row).
    """
    built: Dict[tuple, "object"] = {}
    rows = []
    for pair in pairs:
        key = (pair.sender_prime, pair.receiver_prime, pair.sent, pair.stored)
        row = built.get(key)
        if row is None:
            if pair.sender_prime == pair.receiver_prime:
                row = _difference_row(pair.stored, pair.sent, pair.sender_prime)
            else:
                row = _mixed_prime_row(pair)
            built[key] = row
        rows.append(row)
    return _np.concatenate(rows)


def _difference_row(stored, sent, prime):
    """``Q_r(x) == A_s(x)`` over ``GF(prime)``, as ``D(x) == 0``, ``D = Q_r - A_s``.

    ``D``'s coefficients (highest degree first, the shorter polynomial
    padded with leading zeros) are reduced mod ``prime``; leading zeros are
    dropped and trailing zeros factored out as ``x**j``, so ``D = x**j C``
    with ``C(0) != 0``: ``x = 0`` agrees iff ``j > 0``, and any other ``x``
    iff ``C(x) == 0``.  Horner runs on ``C`` only, and not at all when ``D``
    is zero (every point agrees) or ``C`` a constant (only ``x = 0`` can).
    """
    width = max(len(stored), len(sent))
    difference = _np.zeros(width, dtype=_np.int64)
    difference[width - len(stored):] = _coefficient_array(stored)
    difference[width - len(sent):] -= _coefficient_array(sent)
    difference %= prime
    nonzero = _np.flatnonzero(difference)
    if not len(nonzero):
        return _np.ones(prime, dtype=bool)
    core = difference[nonzero[0]:nonzero[-1] + 1]
    if len(core) == 1:
        row = _np.zeros(prime, dtype=bool)
    else:
        points = _np.arange(prime, dtype=_np.int64)
        row = poly_eval_rows(core.reshape(1, -1), points.reshape(1, -1), prime)[0] == 0
    row[0] = nonzero[-1] < width - 1  # j > 0
    return row


def _coefficient_array(coefficients):
    """A coefficient sequence (bytes in the schemes here) as int64."""
    return _np.fromiter(coefficients, dtype=_np.int64, count=len(coefficients))


def _mixed_prime_row(pair):
    """``x < p_r and A_s(x) < p_r and Q_r(x) == A_s(x)`` for ``x`` in
    ``range(p_s)``, each polynomial evaluated over its own field."""
    points = _np.arange(pair.sender_prime, dtype=_np.int64).reshape(1, -1)
    sent = poly_eval_rows(
        _coefficient_array(pair.sent).reshape(1, -1), points, pair.sender_prime
    )[0]
    checked = poly_eval_rows(
        _coefficient_array(pair.stored).reshape(1, -1), points, pair.receiver_prime
    )[0]
    points = points[0]
    return (points < pair.receiver_prime) & (sent < pair.receiver_prime) & (checked == sent)


def _parity_state(plan, shape, rejecting: bool, rows) -> _ParityState:
    _kind, t, width = shape
    mask_words = (width + WORD_BITS - 1) // WORD_BITS
    # A shared-coins plan run under a private-coin randomness mode is a
    # model mismatch: engine_verify receives no public coins and rejects,
    # every node, every trial.
    if plan.randomness != "shared" or rejecting:
        return _ParityState(
            repetitions=t,
            width=width,
            mask_words=mask_words,
            constant_false=True,
        )
    diff_words = (
        _np.asarray(rows, dtype=_np.uint64)
        if rows and mask_words
        else None  # no nonzero diff (or width 0): every parity check passes
    )
    return _ParityState(
        repetitions=t,
        width=width,
        mask_words=mask_words,
        constant_false=False,
        diff_words=diff_words,
    )


def run_chunk(plan, trial_seeds, rng_mode: Optional[str] = None):
    """Run a chunk of trials vectorized; returns a per-trial bool array.

    ``accepted[t]`` equals ``plan.run_trial(trial_seeds[t], "vector")`` for
    every ``t`` — the kernel is a faithful re-execution of the scalar
    ``CounterRng`` hook path, not an approximation.  ``rng_mode`` (default:
    the plan's) must be ``"vector"``, and the plan must be vector-eligible
    (:func:`vector_state` not ``None``); both raise :class:`ValueError`
    otherwise.
    """
    check_kernel_mode(plan.rng_mode if rng_mode is None else rng_mode)
    state = vector_state(plan)
    if state is None:
        raise ValueError("plan has no vectorized kernel (see VerificationPlan.vector_ready)")
    trials = len(trial_seeds)
    if state.constant_false:
        return _np.zeros(trials, dtype=bool)
    if isinstance(state, _ParityState):
        return _run_parity_chunk(plan, state, trial_seeds)
    if not state.pairs:
        return _np.ones(trials, dtype=bool)  # every check passes every x
    agree = state.prepare().agree
    words = stream_words(_vector_bases(plan, trial_seeds), state.counters)
    points = (words % state.draw_primes).astype(_np.int64)
    return agree[points + state.row_starts].all(axis=1)


def _vector_bases(plan, trial_seeds):
    """Per-trial stream seeds — the chunk's base array.

    Edge/node randomness feeds one sequential stream per trial, at
    ``derive_stream_seed(trial_seed, 0, 0)``; shared randomness uses the
    public stream address ``derive_stream_seed(trial_seed, -1, -1)``, as the
    scalar hook path does.  The estimator passes the ``uint64`` array of
    :func:`~repro.core.seeding.derive_trial_seed_array`, used as is; any
    other sequence is a caller's ints, negative ones included, so it is
    masked into ``[0, 2**64)`` before the uint64 conversion.
    """
    if getattr(trial_seeds, "dtype", None) != _np.uint64:
        trial_seeds = [seed & _MASK64 for seed in trial_seeds]
    if plan.randomness == "shared":
        return derive_stream_seed_array(trial_seeds, -1, -1)
    return derive_stream_seed_array(trial_seeds, 0, 0)


# -- shared-coins parity kernel -------------------------------------------------


def _draw_masks(plan, state: _ParityState, trial_seeds):
    """The chunk's public masks, packed: a (trials, t, words) uint64 array.

    Every sender of a trial re-derives the same masks from the shared
    stream, so one draw per trial covers the whole round: the counter-based
    stream evaluated in one broadcast, truncating the top word exactly as
    :meth:`CounterRng.getrandbits` does.
    """
    t = state.repetitions
    width = state.width
    words = state.mask_words
    bases = _vector_bases(plan, trial_seeds)
    packed = stream_words(bases, _np.arange(t * words, dtype=_np.uint64))
    packed = packed.reshape(len(trial_seeds), t, words)
    top = width - WORD_BITS * (words - 1)
    packed[:, :, words - 1] &= _np.uint64((1 << top) - 1)
    return packed


def _run_parity_chunk(plan, state: _ParityState, trial_seeds):
    """The GF(2) chunk: every trial's parity checks as one popcount pass."""
    trials = len(trial_seeds)
    if state.diff_words is None:
        # No nonzero diff row: nothing randomized can fail, nothing is drawn.
        return _np.ones(trials, dtype=bool)
    masks = _draw_masks(plan, state, trial_seeds)
    # parities[t, m, pair] = <diff_pair, mask_{t,m}> over GF(2); a trial
    # accepts iff every inner product is 0 (all senders matched all
    # receivers' stored replicas on every public mask).
    parities = gf2_inner_parities(state.diff_words, masks)
    return ~parities.any(axis=(1, 2))
