"""Excursion measures: soliton-weight and geometric-slot parameterizations.

The first family weighs an excursion by ``prod_k alpha_k^(number of
k-solitons)`` and normalizes by the partition function Z.  The second fills
each k-slot with a Geometric(1 - q_k) number of k-solitons, top row
conditioned positive.  The two families coincide under an explicit, invertible
parameter transform, which this module implements together with partition
functions (closed form and series oracles), exact samplers, and the expected
slot-count recursion.

Under the Palm measure row k of the slot diagram is, given the rows above
it, s_k i.i.d. Geometric(1 - q_k) entries.  So the mean number of
k-solitons is ``E[n_k] = m_k beta_k`` in closed form, with
``m_k = q_k / (1 - q_k)`` and ``beta_k = E[s_k]`` the expected slot count.
Every quantity of the measure is a function of the slot fill and takes a
:class:`SlotFill`: Z, the slot means, the mean record gap kappa, the mean
soliton counts and the samplers; the ball density takes kappa.  The weights
are read only by :func:`fill_from_weights`, where a truncation ``levels``
acts, and by the weight-side oracles :func:`partition_series`,
:func:`excursion_prob`, :func:`weights_from_fill` and :func:`shift_weights`.

Probabilities are accumulated in log space.  The parameter transform of a
chain is a closed form, kept in ``core`` beside the chain; that of an
explicit head runs on direct running products for precision, falling back
to logs where they leave the normal float range.
The samplers draw from one ``random.Random``; the diagram sampler inverts
each of its ``random()`` draws through a closed-form law.  The families take
their parameters as values; the CLI reads them from flags and parameter files.
"""

from __future__ import annotations

import math
from bisect import bisect
from collections.abc import Callable, Sequence
from itertools import accumulate

from .core import (
    Excursion,
    _as_rng,
    _bernoulli_chain,
    _carrier_ratio,
    _chain_weight,
    _check_budget,
    _set,
    _slot_parameters,
    _transition_matrix,
    _Value,
    catalan_number,
    map_distinct,
    soliton_counts,
)
from .errors import DivergenceError, PreconditionError, ValidationError
from .slots import (
    EMPTY_DIAGRAM,
    SlotDiagram,
    _trusted_diagram,
    excursion_from_diagram,
    next_slot_count,
    slot_rows,
)

_TAIL_TOL = 1e-12
_MAX_LEVELS = 5000


# ---------------------------------------------------------------------------
# parameter families
# ---------------------------------------------------------------------------

def _strip_zeros(values: tuple[float, ...]) -> tuple[float, ...]:
    """``values`` without its trailing zeros."""
    end = len(values)
    while end and values[end - 1] == 0.0:
        end -= 1
    return values[:end]


class SolitonWeights(_Value):
    """Per-size weights alpha_k in [0, 1): an explicit head, zero past it, or
    the weights ``alpha_k = a b^k`` of a checked two-state ``chain``."""

    __slots__ = ("head", "chain")

    def __init__(self, head: tuple[float, ...] = (), chain: tuple | None = None):
        if any(not 0 <= a < 1 for a in head):
            raise ValidationError("weights must lie in [0, 1)")
        _set(self, "head", _strip_zeros(head))
        _set(self, "chain", chain)

    def alpha(self, k: int) -> float:
        if k < 1:
            raise PreconditionError("sizes are k >= 1")
        if self.chain is not None:
            a, b = _chain_weight(self.chain)
            return a * b**k
        return self.head[k - 1] if k <= len(self.head) else 0.0


def explicit_weights(values: Sequence[float]) -> SolitonWeights:
    return SolitonWeights(tuple(float(v) for v in values))


def bernoulli_weights(lam: float) -> SolitonWeights:
    """Weights of the excursion law of a walk stepping up with probability
    lam: :func:`markov_weights` of its :func:`_bernoulli_chain`,
    ``alpha_k = (lam (1 - lam))^k`` with partition function 1 / (1 - lam)."""
    return markov_weights(_bernoulli_chain(lam))


def markov_weights(q_matrix: Sequence[Sequence[float]]) -> SolitonWeights:
    """Weights of the excursion law of a stationary two-state chain.

    For transition matrix Q with Q(0,1) < Q(1,0) (ball density below 1/2):
    ``alpha_k = a b^k`` with ``a = Q(0,1)Q(1,0) / (Q(1,1)Q(0,0))`` and
    ``b = Q(1,1)Q(0,0)``; the partition function is 1 / Q(0,0).  The weights
    hold the checked chain, or, when Q(1,1) = 0, their one nonzero weight.
    """
    chain = tuple(map(tuple, _transition_matrix(q_matrix)))
    (_, q01), (q10, q11) = chain
    if q11 == 0.0:
        # no two consecutive balls: only 1-solitons, alpha_1 = lim a b
        return SolitonWeights((q01 * q10,))
    return SolitonWeights(chain=chain)


# ---------------------------------------------------------------------------
# the parameter transform
# ---------------------------------------------------------------------------

class SlotFill(_Value):
    """Finite vector of slot parameters q_k in [0, 1); zero beyond the support."""

    __slots__ = ("q",)

    def __init__(self, q: tuple[float, ...] = ()):
        if any(not 0 <= v < 1 for v in q):
            raise ValidationError("slot parameters must lie in [0, 1)")
        _set(self, "q", _strip_zeros(q))

    @property
    def levels(self) -> int:
        return len(self.q)

    def at(self, k: int) -> float:
        return self.q[k - 1] if 1 <= k <= len(self.q) else 0.0

    def mean_fill(self, k: int) -> float:
        """Mean number of solitons per k-slot: q_k / (1 - q_k)."""
        qk = self.at(k)
        return qk / (1 - qk)


def fill_from_weights(weights: SolitonWeights, levels: int | None = None) -> SlotFill:
    """Slot parameters of the weight family, ``levels`` of them: q_1 = alpha_1
    and ``q_k = alpha_k / prod_{j<k} (1 - q_j)^(2(k-j))``.

    An explicit head runs this recursion, by default over its own length, and
    raises once some q_k >= 1 (weights outside the admissible set).  A chain
    takes the closed form ``q_k = q_1 r^(k-1) ((1 - rho r) / (1 - rho r^k))^2``
    with ``r = Q(1,1) / Q(0,0)`` and ``rho = Q(0,1) / Q(1,0)``: the one
    expression ``core._slot_parameters``, which a check of one level reads
    without building the fill.  Proof sketch, by induction on k: q_k is the
    first weight after k - 1 level shifts (:func:`shift_weights`), which map
    ``alpha_k = A B^k`` to ``(AB) (B / (1 - AB)^2)^k``, so
    ``q_{k+1} = q_k b / prod_{j<=k} (1 - q_j)^2``;
    the closed form has ``1 - q_k = (1 - rho r^(k-1)) (1 - rho r^(k+1)) /
    (1 - rho r^k)^2``, whose product telescopes to ``Q(0,0) (1 - rho r^(k+1)) /
    (1 - rho r^k)``, and ``b = Q(0,0)^2 r``.

    By default a chain's fill stops at the first K with ``q_K / (1 - r) <
    _TAIL_TOL``: ``1 - rho r^l`` grows with l, so ``q_{l+1} < r q_l`` and the
    dropped mass ``sum_{l>K} q_l`` is below ``r _TAIL_TOL``.
    """
    if levels is not None and not 0 <= levels <= _MAX_LEVELS:
        raise PreconditionError(f"levels must lie in [0, {_MAX_LEVELS}]")
    if weights.chain is not None:
        q, r = _slot_parameters(weights.chain), _carrier_ratio(weights.chain)
        if levels is None:
            stops = (k for k in range(1, _MAX_LEVELS + 1) if q(k) / (1 - r) < _TAIL_TOL)
            levels = next(stops, None)
            if levels is None:
                raise DivergenceError("slot parameters do not decay; truncation failed")
        return SlotFill(tuple(map(q, range(1, levels + 1))))
    out = []
    prod = 1.0  # prod_{j<=k} (1 - q_j)
    denom = 1.0  # prod_{j<k} (1 - q_j)^(2(k-j)) for the current k
    log_prod = 0.0  # log-space shadows, used when the products underflow
    log_denom = 0.0
    for k in range(1, (len(weights.head) if levels is None else levels) + 1):
        a = weights.alpha(k)
        if a == 0.0:
            qk = 0.0
        else:
            qk = a / denom if denom > 0.0 else math.exp(math.log(a) - log_denom)
        if qk >= 1.0:
            raise DivergenceError(
                f"q_{k} >= 1: weights outside the admissible set "
                f"(checked up to level {k})"
            )
        out.append(qk)
        prod *= 1.0 - qk
        denom *= prod * prod
        log_prod += math.log1p(-qk)
        log_denom += 2 * log_prod
    return SlotFill(tuple(out))


def weights_from_fill(fill: SlotFill) -> SolitonWeights:
    """Inverse transform: ``alpha_k = q_k prod_{l<k} (1 - q_l)^(2(k-l))``."""
    out = []
    prod = 1.0
    factor = 1.0
    for k in range(1, fill.levels + 1):
        qk = fill.at(k)
        out.append(qk * factor)
        prod *= 1.0 - qk
        factor *= prod * prod
    return SolitonWeights(tuple(out))


def shift_weights(alpha: Sequence[float]) -> tuple[float, ...]:
    """One application of the level-shift operator:
    ``(theta alpha)_k = alpha_{k+1} / (1 - alpha_1)^(2k)``.

    Iterating it exposes the slot parameters as q_k = (theta^(k-1) alpha)_1.
    """
    if not alpha:
        return ()
    a1 = alpha[0]
    if not 0 <= a1 < 1:
        raise DivergenceError("leading weight must lie in [0, 1)")
    return tuple(
        alpha[k + 1] / (1 - a1) ** (2 * (k + 1)) for k in range(len(alpha) - 1)
    )


# ---------------------------------------------------------------------------
# partition functions
# ---------------------------------------------------------------------------

def partition_function(fill: SlotFill) -> float:
    """Z as the closed product ``prod_k (1 - q_k)^(-1)`` over the slot fill."""
    return math.exp(-sum(math.log1p(-q) for q in fill.q))


class SeriesResult(_Value):
    """Partial sum over excursions of half-length <= n_max plus a tail bound."""

    __slots__ = ("value", "tail_bound")

    def __init__(self, value: float, tail_bound: float):
        _set(self, "value", value)
        _set(self, "tail_bound", tail_bound)


def _profile_sums(alpha: tuple[float, ...], n_max: int) -> float:
    """Total weight of the excursions of half-length <= n_max, grouped by
    soliton-count profile.

    A profile (n_1, ..., n_K) occurs in exactly ``prod_k C(n_k + s_k - 1,
    n_k)`` excursions, with s_k the slot counts implied by the higher levels;
    the grouped sum avoids enumerating excursions one by one.  Profiles are
    visited depth first from level K down, n_k ascending.
    """
    total = 0.0

    def rec(k: int, budget: int, weight: float, s_k: int, above: int) -> None:
        nonlocal total
        if k == 0:
            total += weight
            return
        a = alpha[k - 1]
        limit = budget // k if a > 0 else 0
        ways = 1  # C(n_k + s_k - 1, n_k), each from the last in exact integers
        for n_k in range(limit + 1):
            if n_k:
                ways = ways * (n_k + s_k - 1) // n_k
            w = weight * a**n_k * ways
            if w == 0.0 and n_k > 0:
                break
            rec(k - 1, budget - k * n_k, w, next_slot_count(s_k, above + n_k), above + n_k)

    rec(len(alpha), n_max, 1.0, 1, 0)
    return total


def _catalan_term(n: int, beta: float) -> float:
    """``C_n beta^n``: the weight of the excursions of half-length n when each
    weighs ``beta^n``, in logs once ``C_n`` is beyond float range."""
    count = catalan_number(n)
    try:
        return count * beta**n
    except OverflowError:  # int too large to convert to float
        return math.exp(math.log(count) + n * math.log(beta))


def _catalan_tail(n_max: int, beta: float) -> float:
    """Strict bound ``C_{n_max+1} beta^(n_max+1) / (1 - 4 beta)`` on the weight
    of the excursions longer than ``n_max`` when each weighs at most ``beta^n``
    (``C_{n+1} < 4 C_n``); 0 at beta = 0, which ``_catalan_term`` cannot take
    once ``C_n`` leaves float range, and inf once 4 beta >= 1."""
    if beta == 0.0:
        return 0.0
    if 4 * beta >= 1:
        return math.inf
    return _catalan_term(n_max + 1, beta) / (1 - 4 * beta)


def _narayana_term(n: int, a: float, b: float) -> float:
    """``b^n sum_k N(n, k) a^k``: the weight of the excursions of half-length n
    when each weighs ``a^(#peaks) b^n``, term by term in logs once the direct
    sum leaves float range.  N(n, k) counts the excursions with k peaks:
    N(n, 1) = 1 and N(n, k + 1) = N(n, k) (n - k) (n - k + 1) / (k (k + 1))."""
    if a == 0.0:
        return 0.0
    row = [1]
    for k in range(1, n):
        row.append(row[-1] * (n - k) * (n - k + 1) // (k * (k + 1)))
    try:
        term = b**n * sum(count * a**k for k, count in enumerate(row, 1))
    except OverflowError:  # int too large to convert to float
        term = math.nan
    if math.isfinite(term):  # not inf, nor b^n = 0 times inf
        return term
    log_a, log_bn = math.log(a), n * math.log(b)
    return sum(math.exp(math.log(count) + k * log_a + log_bn) for k, count in enumerate(row, 1))


def partition_series(weights: SolitonWeights, n_max: int) -> SeriesResult:
    """Desk-scale series oracle for Z, summing half-lengths up to ``n_max``.

    Uses the Catalan series for a chain with a = 1 (rows alike, Bernoulli),
    the Narayana series for other chains, and the profile-grouped sum for
    explicit finite vectors.  The tail bound is strict in every case.  Path
    counts beyond float range are weighed in logs, so the partial sums of a
    convergent series stay finite at any ``n_max``.
    """
    if n_max < 0:
        raise PreconditionError("n_max must be >= 0")
    if weights.chain is None:
        alpha = weights.head
        value = _profile_sums(alpha, n_max)
        beta = max((a ** (1.0 / k) for k, a in enumerate(alpha, start=1)), default=0.0)
        return SeriesResult(value, _catalan_tail(n_max, beta))
    a, b = _chain_weight(weights.chain)
    if a == 1.0:
        # weight of an excursion of half-length n is b^n: Catalan series
        value = sum(_catalan_term(n, b) for n in range(n_max + 1))
        return SeriesResult(value, _catalan_tail(n_max, b))
    # weight is a^(#solitons) * b^n; solitons of an excursion are
    # its peaks, counted by the Narayana triangle
    value = 1.0
    for n in range(1, n_max + 1):
        value += _narayana_term(n, a, b)
    rho = b * (1 + math.sqrt(a)) ** 2
    if rho >= 1:
        bound = math.inf
    else:
        bound = (
            math.sqrt(a)
            * rho ** (n_max + 1)
            / ((n_max + 1) * (1 - rho))
        )
    return SeriesResult(value, bound)


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------

def excursion_prob(weights: SolitonWeights, excursion: Excursion) -> float:
    """Normalized weight ``prod_k alpha_k^(n_k) / Z`` of one excursion."""
    log_p = sum(math.log1p(-q) for q in fill_from_weights(weights).q)  # -log Z
    for k, n_k in soliton_counts(excursion).items():
        a = weights.alpha(k)
        if a == 0.0:
            return 0.0
        log_p += n_k * math.log(a)
    return math.exp(log_p)


def diagram_prob(fill: SlotFill, diagram: SlotDiagram) -> float:
    """Probability ``prod_k q_k^(|x_k|) (1 - q_k)^(s_k)`` of one slot diagram."""
    log_p = 0.0
    for k in range(1, max(fill.levels, diagram.max_size) + 1):
        qk = fill.at(k)
        n_k = diagram.solitons(k)
        if n_k > 0:
            if qk == 0.0:
                return 0.0
            log_p += n_k * math.log(qk)
        log_p += diagram.slot_count(k) * math.log1p(-qk)
    return math.exp(log_p)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def max_size_distribution(fill: SlotFill) -> list[float]:
    """P(M = m) = q_m * prod_{l > m} (1 - q_l) for m = 0 .. levels, q_0 = 1."""
    K = fill.levels
    probs = [0.0] * (K + 1)
    suffix = 1.0
    for m in range(K, 0, -1):
        qm = fill.q[m - 1]
        probs[m] = qm * suffix
        suffix *= 1 - qm
    probs[0] = suffix
    total = sum(probs)
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValidationError("max-size distribution does not normalize")
    return [p / total for p in probs]


def _geometric_draws(fill: SlotFill, uniform: Callable[[], float]) -> tuple[
        Callable[[], int], Callable[[int], int], Callable[[int, int], tuple[int, ...]]]:
    """The fill's draws, each inverting one ``uniform()`` draw U: ``largest()``,
    the largest soliton size M of a Palm diagram, by bisection of U on the
    cumulative :func:`max_size_distribution`; and, through ``log(1 - U)``,
    ``geometric(k)``, one Geometric(1 - q_k) count floor(log U / log q_k)
    for q_k > 0, and ``row(k, s_k)``, s_k i.i.d. counts, where the zeros
    before the next positive entry take one draw, floor(log U / log(1 -
    q_k)), and the entry 1 + floor(log U / log q_k), so a row costs one draw
    per positive entry and one more."""
    cumulative = list(accumulate(max_size_distribution(fill)))
    logs = [(math.log(q), math.log1p(-q)) if q else None for q in fill.q]

    def largest() -> int:
        return bisect(cumulative, uniform() * cumulative[-1])

    def log_u() -> float:
        return math.log(1.0 - uniform())

    def geometric(k: int) -> int:
        return int(log_u() / logs[k - 1][0])

    def row(k: int, s_k: int) -> tuple[int, ...]:
        # s_k <= 2n + 1, so a row too long refuses the excursion before it is laid out
        _check_budget(s_k, "a drawn excursion would lay out")
        entries = [0] * s_k
        if logs[k - 1] is not None:
            log_q, log_p = logs[k - 1]
            i = 0
            while (skip := log_u() / log_p) < s_k - i:
                i += int(skip)
                entries[i] = 1 + int(log_u() / log_q)
                i += 1
        return tuple(entries)

    return largest, geometric, row


def sample_diagrams(fill: SlotFill, size: int, rng) -> list[SlotDiagram]:
    """Slot diagrams with the geometric row law.

    Each chooses the maximal size M, then the top count, 1 + a
    Geometric(1 - q_M) count (geometric conditioned positive), then each
    lower row as s_k independent Geometric(1 - q_k) entries, top to bottom,
    all drawn as :func:`_geometric_draws` draws them.
    """
    largest, geometric, row = _geometric_draws(fill, _as_rng(rng).random)
    out = []
    for _ in range(size):
        m = largest()
        out.append(_trusted_diagram(slot_rows(1 + geometric(m), m, row)) if m else EMPTY_DIAGRAM)
    return out


def size_biased_excursion(fill: SlotFill, rng) -> Excursion:
    """One Palm excursion drawn with its probability times its length 2n + 1,
    over the mean record gap: the block of a stationary line that covers box 0.

    The length is the level-0 slot count, 2n + 1 = s_0, and ``s_k = 1 +
    sum_{l>k} 2 (l - k) n_l`` has mean beta_k (:func:`expected_slot_counts`).
    So the law biased by s_k is a mixture: with probability 1 / beta_k the
    plain law, and with probability ``2 (l - k) E[n_l] / beta_k``, for each
    l > k, the law biased by n_l, with ``E[n_l] = m_l beta_l``
    (:func:`mean_soliton_counts`).  Given the rows above it, row l is s_l
    i.i.d. Geometric(1 - q_l) entries of sum n_l, so the law biased by n_l
    biases the rows above l by s_l, one uniform slot of row l by its count,
    which makes it 1 + two Geometric(1 - q_l) counts, and nothing else.

    A spine of marked levels is walked up from 0 by that mixture until it
    takes the plain branch at level t.  The rows above t are plain: their
    largest soliton M is drawn as for a Palm diagram, and when M <= t they
    are empty and row t, of one slot, is the top row.  Then the rows are
    drawn top-down, each plain but for one uniform slot of each marked row.
    The excursion is rebuilt from its diagram, or refused past ``BOX_BUDGET``.
    """
    rng = _as_rng(rng)
    uniform = rng.random
    means = mean_soliton_counts(fill)
    marked = set()
    t = 0
    while True:
        branches = [(l, 2 * (l - t) * mean) for l, mean in means.items() if l > t]
        u = uniform() * (1 + sum(w for _, w in branches)) - 1  # beta_t; the plain law takes 1
        if u < 0:
            break
        for t, w in branches:  # past the last one, by rounding, the last is taken
            if (u := u - w) < 0:
                break
        marked.add(t)
    largest, geometric, plain = _geometric_draws(fill, uniform)

    def row(k: int, s_k: int) -> tuple[int, ...]:
        entries = plain(k, s_k)
        if k not in marked:
            return entries
        j = rng.randrange(s_k)
        return (*entries[:j], entries[j] + 1 + geometric(k), *entries[j + 1 :])

    m = largest()
    if m > t:
        top = 1 + geometric(m)
    elif t:  # the rows above t are empty: row t, of one slot, is the top row
        m, top = t, row(t, 1)[0]
    else:
        return Excursion()
    return _rebuilt(_trusted_diagram(slot_rows(top, m, row)))


def sample_excursions(fill: SlotFill, size: int, rng) -> list[Excursion]:
    """Excursions with the normalized weight law, drawn through their diagrams;
    each distinct diagram is rebuilt once, or refused if that passes ``BOX_BUDGET``."""
    return map_distinct(_rebuilt, sample_diagrams(fill, size, rng))


def _rebuilt(diagram: SlotDiagram) -> Excursion:
    _check_budget(2 * diagram.half_length + 1, "a drawn excursion would lay out")
    return excursion_from_diagram(diagram)


# ---------------------------------------------------------------------------
# expected slot counts
# ---------------------------------------------------------------------------

def expected_slot_counts(fill: SlotFill) -> tuple[tuple[float, ...], float]:
    """Mean slot counts (beta_0, ..., beta_K) and the mean excursion length.

    Solves ``beta_k = 1 + sum_{l>k} 2 (l-k) m_l beta_l`` by back substitution
    from the zero tail; ``beta_0 - 1`` equals the mean excursion length
    ``sum_k 2 k m_k beta_k``.
    """
    K = fill.levels
    betas = [0.0] * (K + 1)
    acc = 0.0  # sum_{l>k} m_l beta_l
    acc_l = 0.0  # sum_{l>k} l m_l beta_l
    for k in range(K, -1, -1):
        b = 1.0 + 2 * acc_l - 2 * k * acc
        betas[k] = b
        if k >= 1:
            m_k = fill.mean_fill(k)
            acc += m_k * b
            acc_l += k * m_k * b
    mean_size = 2 * acc_l
    return tuple(betas), mean_size


def mean_soliton_counts(fill: SlotFill) -> dict[int, float]:
    """Mean number of k-solitons per excursion, ``E[n_k] = m_k beta_k``, for
    every size k with q_k > 0.

    Given the rows above it, row k of the slot diagram is s_k i.i.d.
    Geometric(1 - q_k) entries of mean ``m_k = q_k / (1 - q_k)``, so
    ``E[n_k] = m_k E[s_k]``, and :func:`expected_slot_counts` gives
    ``beta_k = E[s_k]``.
    """
    betas, _ = expected_slot_counts(fill)
    return {k: fill.mean_fill(k) * betas[k] for k, q in enumerate(fill.q, 1) if q}


def mean_record_gap(fill: SlotFill) -> float:
    """Mean distance between consecutive records: one plus the mean excursion length."""
    _, mean_size = expected_slot_counts(fill)
    return 1.0 + mean_size


def ball_density(kappa: float) -> float:
    """Stationary ball density (kappa - 1) / (2 kappa) of the line assembled
    with mean record gap ``kappa``, as :func:`mean_record_gap` gives it."""
    return (kappa - 1) / (2 * kappa)
