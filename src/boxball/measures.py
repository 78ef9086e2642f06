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

Probabilities are accumulated in log space; the parameter transform runs on
direct running products for precision, falling back to logs on underflow.
The samplers draw from one ``random.Random``; the diagram sampler inverts
each of its ``random()`` draws through a closed-form law.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect
from collections.abc import Sequence
from itertools import accumulate

from .core import Excursion, _set, _Value, catalan_number, map_distinct, soliton_counts
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

class GeometricLaw(_Value):
    """P(Y = j) = p * (1 - p)^j on j = 0, 1, 2, ...; mean (1 - p) / p."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        if not 0 < p <= 1:
            raise ValidationError("geometric parameter must lie in (0, 1]")
        _set(self, "p", p)

    def pmf(self, j: int) -> float:
        return self.p * (1 - self.p) ** j if j >= 0 else 0.0

    @property
    def mean(self) -> float:
        return (1 - self.p) / self.p


class GeometricTail(_Value):
    """Analytic continuation ``alpha_k = coef * ratio**k`` past the explicit head.

    ``partition`` is the exact partition function of the full weight family
    and ``fill_ratio`` a strict upper bound on consecutive slot-parameter
    ratios q_{k+1} / q_k, both known in closed form for the supported tails.
    """

    __slots__ = ("coef", "ratio", "partition", "fill_ratio")

    def __init__(self, coef: float, ratio: float, partition: float, fill_ratio: float):
        _set(self, "coef", coef)
        _set(self, "ratio", ratio)
        _set(self, "partition", partition)
        _set(self, "fill_ratio", fill_ratio)

    def alpha(self, k: int) -> float:
        return self.coef * self.ratio**k


def _strip_zeros(values: tuple[float, ...]) -> tuple[float, ...]:
    """``values`` without its trailing zeros."""
    end = len(values)
    while end and values[end - 1] == 0.0:
        end -= 1
    return values[:end]


class SolitonWeights(_Value):
    """Per-size weights alpha_k in [0, 1): an explicit head plus optional tail."""

    __slots__ = ("head", "tail")

    def __init__(self, head: tuple[float, ...] = (), tail: GeometricTail | None = None):
        if any(not 0 <= a < 1 for a in head):
            raise ValidationError("weights must lie in [0, 1)")
        _set(self, "head", _strip_zeros(head) if tail is None else head)
        _set(self, "tail", tail)

    def alpha(self, k: int) -> float:
        if k < 1:
            raise PreconditionError("sizes are k >= 1")
        if k <= len(self.head):
            return self.head[k - 1]
        if self.tail is None:
            return 0.0
        return self.tail.alpha(k)

    @property
    def finite_support(self) -> bool:
        return self.tail is None


def explicit_weights(values: Sequence[float]) -> SolitonWeights:
    return SolitonWeights(tuple(float(v) for v in values))


def _bernoulli_chain(lam: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """i.i.d. Bernoulli(lam) boxes as the two-state chain whose rows are both
    ``(1 - lam, lam)``.  Requires ``lam < 1/2`` so the mean excursion length
    stays finite."""
    if not 0 <= lam < 0.5:
        raise PreconditionError("lambda must lie in [0, 1/2)")
    return (1 - lam, lam), (1 - lam, lam)


def bernoulli_weights(lam: float) -> SolitonWeights:
    """Weights of the excursion law of a walk stepping up with probability
    lam: :func:`markov_weights` of its :func:`_bernoulli_chain`,
    ``alpha_k = (lam (1 - lam))^k`` with partition function 1 / (1 - lam)."""
    return markov_weights(_bernoulli_chain(lam))


def _transition_matrix(q_matrix: Sequence[Sequence[float]]) -> list[list[float]]:
    """A two-state transition matrix Q as floats, checked: 2x2, entries in
    [0, 1] (NaN is not), rows summing to 1, and Q(0,1) < Q(1,0) (ball
    density below 1/2)."""
    q = [[float(v) for v in row] for row in q_matrix]
    if len(q) != 2 or any(len(row) != 2 for row in q):
        raise ValidationError("transition matrix must be 2x2")
    if not all(0 <= v <= 1 for row in q for v in row):
        raise ValidationError("transition probabilities must lie in [0, 1]")
    if abs(sum(q[0]) - 1) > 1e-12 or abs(sum(q[1]) - 1) > 1e-12:
        raise ValidationError("rows must sum to 1")
    if not q[0][1] < q[1][0]:
        raise PreconditionError("need Q(0,1) < Q(1,0) for density below 1/2")
    return q


def markov_weights(q_matrix: Sequence[Sequence[float]]) -> SolitonWeights:
    """Weights of the excursion law of a stationary two-state chain.

    For transition matrix Q with Q(0,1) < Q(1,0) (ball density below 1/2):
    ``alpha_k = a b^k`` with ``a = Q(0,1)Q(1,0) / (Q(1,1)Q(0,0))`` and
    ``b = Q(1,1)Q(0,0)``; the partition function is 1 / Q(0,0).
    """
    (q00, q01), (q10, q11) = _transition_matrix(q_matrix)
    if q11 == 0.0:
        # no two consecutive balls: only 1-solitons, alpha_1 = lim a b
        return SolitonWeights((q01 * q10,))
    a = q01 * q10 / (q11 * q00)
    b = q11 * q00
    return SolitonWeights(
        (),
        GeometricTail(coef=a, ratio=b, partition=1.0 / q00, fill_ratio=q11 / q00),
    )


_PARAMETER = {"bernoulli": "lambda", "markov": "Q", "explicit": "alpha"}


def params_from_json(text: str | bytes) -> tuple[str, object]:
    """The family a parameter file names and its parameter as given: a
    bernoulli ``lambda``, a markov ``Q`` or explicit ``alpha`` weights."""
    try:
        doc = json.loads(text)
        family = doc["family"]
        if family in _PARAMETER:
            return family, doc[_PARAMETER[family]]
    except KeyError as exc:
        raise ValidationError(f"bad parameter JSON: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ValidationError(f"bad parameter JSON: {exc}") from exc
    raise ValidationError(f"unknown family {family!r}")


def family_weights(family: str, parameter) -> SolitonWeights:
    """Weights of the bernoulli, markov or explicit family from its parameter."""
    try:
        if family == "bernoulli":
            return bernoulli_weights(float(parameter))
        if family == "markov":
            return markov_weights(parameter)
        return explicit_weights(parameter)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad {family} parameter: {exc}") from exc


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
    """Slot parameters of the weight family: q_1 = alpha_1 and
    ``q_k = alpha_k / prod_{j<k} (1 - q_j)^(2(k-j))``.

    With an analytic tail the truncation level is chosen so the dropped mass
    ``sum_{k > K} q_k`` is provably below ``_TAIL_TOL``; raises when some q_k >= 1
    (diverging partition function, weights outside the admissible set at this
    truncation).
    """
    if levels is not None and not 0 <= levels <= _MAX_LEVELS:
        raise PreconditionError(f"levels must lie in [0, {_MAX_LEVELS}]")
    if levels is None and weights.finite_support:
        levels = len(weights.head)
    out = []
    prod = 1.0  # prod_{j<=k} (1 - q_j)
    denom = 1.0  # prod_{j<k} (1 - q_j)^(2(k-j)) for the current k
    log_prod = 0.0  # log-space shadows, used when the products underflow
    log_denom = 0.0
    k = 0
    while True:
        k += 1
        if levels is not None and k > levels:
            break
        if levels is None and k > _MAX_LEVELS:
            raise DivergenceError("slot parameters do not decay; truncation failed")
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
        if levels is None and weights.tail is not None:
            r = weights.tail.fill_ratio
            if qk == 0.0 or (r < 1 and qk * r / (1 - r) < _TAIL_TOL):
                break
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

def log_partition(weights: SolitonWeights, levels: int | None = None) -> float:
    fill = fill_from_weights(weights, levels)
    return -sum(math.log1p(-q) for q in fill.q)


def partition_function(weights: SolitonWeights, levels: int | None = None) -> float:
    """Z as the closed product ``prod_k (1 - q_k)^(-1)`` over the transform."""
    return math.exp(log_partition(weights, levels))


class SeriesResult(_Value):
    """Partial sum over excursions of half-length <= n_max plus a tail bound."""

    __slots__ = ("value", "tail_bound", "n_max")

    def __init__(self, value: float, tail_bound: float, n_max: int):
        _set(self, "value", value)
        _set(self, "tail_bound", tail_bound)
        _set(self, "n_max", n_max)


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

    Uses the Catalan series for pure-geometric weights, the Narayana series
    for two-parameter geometric weights, and the profile-grouped sum for
    explicit finite vectors.  The tail bound is strict in every case.  Path
    counts beyond float range are weighed in logs, so the partial sums of a
    convergent series stay finite at any ``n_max``.
    """
    if n_max < 0:
        raise PreconditionError("n_max must be >= 0")
    tail = weights.tail
    if tail is not None and tail.coef == 1.0:
        # weight of an excursion of half-length n is ratio^n: Catalan series
        beta = tail.ratio
        value = sum(_catalan_term(n, beta) for n in range(n_max + 1))
        if 4 * beta >= 1:
            bound = math.inf
        else:
            bound = _catalan_term(n_max + 1, beta) / (1 - 4 * beta)
        return SeriesResult(value, bound, n_max)
    if tail is not None:
        # weight is coef^(#solitons) * ratio^n; solitons of an excursion are
        # its peaks, counted by the Narayana triangle
        a, b = tail.coef, tail.ratio
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
        return SeriesResult(value, bound, n_max)
    alpha = weights.head
    value = _profile_sums(alpha, n_max)
    beta = max((a ** (1.0 / k) for k, a in enumerate(alpha, start=1)), default=0.0)
    if beta == 0.0:
        bound = 0.0
    elif 4 * beta >= 1:
        bound = math.inf
    else:
        bound = _catalan_term(n_max + 1, beta) / (1 - 4 * beta)
    return SeriesResult(value, bound, n_max)


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------

def excursion_prob(
    weights: SolitonWeights, excursion: Excursion, levels: int | None = None
) -> float:
    """Normalized weight ``prod_k alpha_k^(n_k) / Z`` of one excursion."""
    log_p = -log_partition(weights, levels)
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

def _as_rng(rng) -> random.Random:
    """``rng`` if it is a ``random.Random``, else a new one seeded with it
    (an int seed, or None for fresh entropy)."""
    return rng if isinstance(rng, random.Random) else random.Random(rng)


def max_size_distribution(fill: SlotFill) -> list[float]:
    """P(M = m) = q_m * prod_{l > m} (1 - q_l) for m = 0 .. levels, q_0 = 1."""
    K = fill.levels
    probs = [0.0] * (K + 1)
    suffix = 1.0
    for m in range(K, -1, -1):
        qm = 1.0 if m == 0 else fill.at(m)
        probs[m] = qm * suffix
        if m > 0:
            suffix *= 1 - fill.at(m)
    total = sum(probs)
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValidationError("max-size distribution does not normalize")
    return [p / total for p in probs]


def sample_diagrams(fill: SlotFill, size: int, rng) -> list[SlotDiagram]:
    """Slot diagrams with the geometric row law.

    Each chooses the maximal size M, then the top count (geometric
    conditioned positive), then each lower row as s_k independent
    Geometric(1 - q_k) entries, top to bottom.  Every draw inverts one
    uniform U in (0, 1]: M by bisection on the cumulative
    :func:`max_size_distribution`; a positive count as 1 + floor(log U /
    log q_k); and the zeros before a row's next positive entry as
    floor(log U / log(1 - q_k)), so a row costs one draw per positive entry
    and one more.
    """
    uniform = _as_rng(rng).random
    cumulative = list(accumulate(max_size_distribution(fill)))
    logs = [(math.log(q), math.log1p(-q)) if q else None for q in fill.q]

    def log_u() -> float:
        return math.log(1.0 - uniform())

    def draw(k: int, s_k: int) -> tuple[int, ...]:
        entries = [0] * s_k
        if logs[k - 1] is not None:
            log_q, log_p = logs[k - 1]
            i = 0
            while (skip := log_u() / log_p) < s_k - i:
                i += int(skip)
                entries[i] = 1 + int(log_u() / log_q)
                i += 1
        return tuple(entries)

    out = []
    for _ in range(size):
        m = bisect(cumulative, uniform() * cumulative[-1])
        if m == 0:
            out.append(EMPTY_DIAGRAM)
        else:
            top = 1 + int(log_u() / logs[m - 1][0])
            out.append(_trusted_diagram(slot_rows(top, m, draw)))
    return out


def sample_excursions(
    weights: SolitonWeights, size: int, rng, fill: SlotFill | None = None
) -> list[Excursion]:
    """Excursions with the normalized weight law, drawn through their
    diagrams; each distinct diagram is rebuilt once."""
    if fill is None:
        fill = fill_from_weights(weights)
    return map_distinct(excursion_from_diagram, sample_diagrams(fill, size, rng))


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


def mean_soliton_counts(weights: SolitonWeights) -> dict[int, float]:
    """Mean number of k-solitons per excursion, ``E[n_k] = m_k beta_k``, for
    every size k with q_k > 0.

    Given the rows above it, row k of the slot diagram is s_k i.i.d.
    Geometric(1 - q_k) entries of mean ``m_k = q_k / (1 - q_k)``, so
    ``E[n_k] = m_k E[s_k]``, and :func:`expected_slot_counts` gives
    ``beta_k = E[s_k]``.
    """
    fill = fill_from_weights(weights)
    betas, _ = expected_slot_counts(fill)
    return {k: fill.mean_fill(k) * betas[k] for k, q in enumerate(fill.q, 1) if q}


def mean_record_gap(weights: SolitonWeights, levels: int | None = None) -> float:
    """Mean distance between consecutive records: one plus the mean excursion length."""
    _, mean_size = expected_slot_counts(fill_from_weights(weights, levels))
    return 1.0 + mean_size


def ball_density(weights: SolitonWeights, levels: int | None = None) -> float:
    """Stationary ball density (kappa - 1) / (2 kappa) of the assembled line."""
    kappa = mean_record_gap(weights, levels)
    return (kappa - 1) / (2 * kappa)
