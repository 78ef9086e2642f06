"""Statistical verification: geometric marginals, independence, invariance.

Chi-square machinery is deliberately plain: observed/expected bins with tails
merged until every expected count reaches the standard validity threshold,
p-values from the chi-square survival function.  All tests are deterministic
given their seed and parameters.

p-values come from ``_chi2_sf``, a finite sum in the standard library, and
contingency tables are lists, so no ``bbs`` command loads scipy or numpy;
scipy is a test-only dependency, the oracle the tests check that sum against.
Each check takes its sample (a component array, or a window with the number
of boxes it must cover) and the law it tests against, and draws nothing.
``slots`` is loaded by the one check that decomposes, so the block test of
a window (``verify t-invariance``) does without it.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence

from .core import BallConfig, _loads, _set, _sweep, _Value, evolve, record_positions
from .errors import InsufficientDataError, PreconditionError, ValidationError

_MIN_EXPECTED = 5.0
_MIN_SAMPLES = 1000  # labels of a row, or pairs, a test needs


class GofReport(_Value):
    """Chi-square test summary with the merged observed/expected bins."""

    __slots__ = ("statistic", "dof", "p_value", "bins", "max_dev_se")

    def __init__(self, statistic: float, dof: int, p_value: float,
                 bins: tuple[tuple[str, float, float], ...], max_dev_se: float | None = None):
        _set(self, "statistic", statistic)
        _set(self, "dof", dof)
        _set(self, "p_value", p_value)
        _set(self, "bins", bins)
        _set(self, "max_dev_se", max_dev_se)

    def to_json_dict(self) -> dict:
        out = {
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "bins": [list(b) for b in self.bins],
        }
        if self.max_dev_se is not None:
            out["max_dev_se"] = self.max_dev_se
        return out


def _chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function P(X > x) for an integer ``dof`` >= 1.

    For an integer dof the tail is a finite sum.  With h = x/2::

        even dof:  e^(-h) * sum_{j < dof/2} h^j / j!
        odd dof:   erfc(sqrt h) + e^(-h) * sum_{j=1}^{(dof-1)/2} h^(j-1/2) / Gamma(j+1/2)

    that is, e^(-h) * sum_{i < dof//2} h^(i+a) / Gamma(i+a+1) with a = 0 for an
    even dof and a = 1/2 (plus the erfc term) for an odd one.

    Each term of the sum is taken in logs through ``lgamma``; e^(-h) and the
    largest term are factored out in logs and the ratios to it are added with
    ``math.fsum``, so p-values stay finite and accurate where e^(-h) alone
    underflows.  x <= 0 gives 1.0 and x = inf gives 0.0.
    """
    if not isinstance(dof, int) or dof < 1:
        raise PreconditionError(f"chi-square dof must be an int >= 1, got {dof!r}")
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = x / 2
    log_h = math.log(h)
    a = dof % 2 / 2
    head = math.erfc(math.sqrt(h)) if a else 0.0
    logs = [(i + a) * log_h - math.lgamma(i + a + 1) for i in range(dof // 2)]
    if not logs:
        return head
    top = max(logs)
    return head + math.exp(top - h) * math.fsum([math.exp(t - top) for t in logs])


def _chi_square(observed: Sequence[float], expected: Sequence[float], labels) -> GofReport:
    """Merge trailing bins until all expected counts clear the threshold."""
    obs = list(observed)
    exp = list(expected)
    labs = [str(l) for l in labels]
    while len(obs) > 2 and (exp[-1] < _MIN_EXPECTED or exp[-2] < _MIN_EXPECTED):
        exp[-2] += exp[-1]
        exp.pop()
        obs[-2] += obs[-1]
        obs.pop()
        labs.pop()
        labs[-1] = f"{labs[-1]}+"
    if len(obs) < 2:
        raise InsufficientDataError("fewer than two usable bins")
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    dof = len(obs) - 1
    p = _chi2_sf(stat, dof)
    return GofReport(stat, dof, p, tuple(zip(labs, obs, exp)))


def geometric_gof(components: ComponentArray, k: int, p_expected: float) -> GofReport:
    """Goodness of fit of row k against Geometric(p_expected): ``P(j) = p (1 - p)^j``
    on j = 0, 1, 2, ..."""
    _, values = components.row(k)
    if len(values) < _MIN_SAMPLES:
        raise InsufficientDataError(f"row {k} has {len(values)} labels, need {_MIN_SAMPLES}")
    if p_expected == 1:
        raise InsufficientDataError(f"row {k}: q_{k} = 0, the law is a point mass at 0")
    if not 0 < p_expected <= 1:
        raise ValidationError("geometric parameter must lie in (0, 1]")
    n = len(values)
    vmax = max(values)
    counts = Counter(values)
    observed = [counts.get(j, 0) for j in range(vmax + 1)]
    expected = [n * (p_expected * (1 - p_expected) ** j) for j in range(vmax + 1)]
    # the final cell absorbs the entire remaining tail mass
    expected.append(n * (1 - p_expected) ** (vmax + 1))
    observed.append(0)
    return _chi_square(observed, expected, list(range(vmax + 1)) + [f">{vmax}"])


PairSpec = tuple[tuple[int, int], tuple[int, int]]


def _pair_samples(
    components: ComponentArray, pair: PairSpec
) -> tuple[list[int], list[int]]:
    """The entries at lags a of row k and b of row l that a pair reads.

    A same-row pair takes one entry of each at every start t = 0, stride,
    2 stride, ... whose window ``t .. t + stride - 1`` fits in the row: two
    strided slices.  A cross-row pair takes every t at which both lags fit:
    two offset slices of one length.
    """
    (k, a), (l, b) = pair
    if min(a, b) < 0:
        raise PreconditionError(f"pair {pair}: lags must be >= 0")
    _, row_k = components.row(k)
    _, row_l = components.row(l)
    if k == l:
        stride = max(a, b) + 1  # disjoint windows keep the pairs independent
        end = len(row_k) // stride * stride
        return list(row_k[a:end:stride]), list(row_k[b:end:stride])
    m = max(min(len(row_k) - a, len(row_l) - b), 0)
    return list(row_k[a : a + m]), list(row_l[b : b + m])


def independence_test(components: ComponentArray, pairs: Sequence[PairSpec]) -> dict[PairSpec, GofReport]:
    """Chi-square independence tests on joint histograms of entry pairs.

    A pair ``((k, a), (l, b))`` tests entries at lags a and b of rows k and
    l; same-row pairs are read from disjoint windows so the sampled pairs
    stay mutually independent.  Values are capped so every expected cell
    clears the validity threshold.
    """
    out: dict[PairSpec, GofReport] = {}
    for pair in pairs:
        xs, ys = _pair_samples(components, pair)
        n = len(xs)
        if n < _MIN_SAMPLES:
            raise InsufficientDataError(f"pair {pair}: {n} samples, need {_MIN_SAMPLES}")
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            raise InsufficientDataError(f"pair {pair}: a coordinate is constant")
        xcap = _cap_for(xs, n)
        ycap = _cap_for(ys, n)
        table = [[0.0] * (ycap + 1) for _ in range(xcap + 1)]
        for (x, y), count in Counter(zip(xs, ys)).items():
            table[min(x, xcap)][min(y, ycap)] += count
        while True:
            rows = [sum(row) for row in table]
            cols = [sum(col) for col in zip(*table)]
            expected = [[r * c / n for c in cols] for r in rows]
            if min(map(min, expected)) >= _MIN_EXPECTED or min(len(rows), len(cols)) <= 2:
                break
            if len(rows) > 2 and (len(cols) <= 2 or rows[-1] <= cols[-1]):
                table[-2:] = [[a + b for a, b in zip(*table[-2:])]]
            else:
                for row in table:
                    row[-2:] = [row[-2] + row[-1]]
        cells = [
            (f"({i},{j})", o, e)
            for i, (o_row, e_row) in enumerate(zip(table, expected))
            for j, (o, e) in enumerate(zip(o_row, e_row))
        ]
        stat = sum((o - e) ** 2 / e for _, o, e in cells)
        dof = (len(rows) - 1) * (len(cols) - 1)
        if dof < 1:
            raise InsufficientDataError(f"pair {pair}: degenerate table")
        out[pair] = GofReport(stat, dof, _chi2_sf(stat, dof), tuple(cells))
    return out


def _cap_for(values: Sequence[int], n: int) -> int:
    counts = Counter(values)
    top = max(values, default=0)
    cap = 0
    running = n
    while running - counts.get(cap, 0) >= _MIN_EXPECTED and cap < top:
        running -= counts.get(cap, 0)
        cap += 1
    return max(cap, 1)


# ---------------------------------------------------------------------------
# dynamics invariance
# ---------------------------------------------------------------------------

def block_frequencies(bits: Sequence[int], block_len: int) -> tuple[Counter, int]:
    """Counts of non-overlapping 0/1 blocks; returns (counter, sample size).

    The blocks are ``bits[t : t + block_len]`` for t = 0, block_len, ...,
    as tuples, a ragged tail left out.  They are counted in bulk: ``zip``
    over ``block_len`` references to one iterator over the bits cuts them
    off in order, and stops at the first block it cannot fill.
    """
    if block_len < 1:
        raise PreconditionError("block_len must be >= 1")
    return Counter(zip(*[iter(bits)] * block_len)), len(bits) // block_len


def _check_t_invariance(steps: int, block_len: int) -> None:
    """Refuse the steps and block length that :func:`t_invariance_test`
    cannot compare; a caller that draws the window checks them first."""
    if steps < 1:
        raise PreconditionError("steps must be >= 1")
    if block_len < 1:
        raise PreconditionError("block_len must be >= 1")


def t_invariance_test(config: BallConfig, steps: int, block_len: int, n_boxes: int) -> GofReport:
    """Block-frequency comparison of a stationary window before and after evolution.

    Evolves ``config``, a window covering boxes ``0 .. n_boxes - 1`` such as
    a family's stationary window draws it (``line.chain_window`` of a chain,
    ``line.sample_anti_palm`` over the slot fill of explicit weights), and
    compares the frequencies of all non-overlapping blocks over the
    interior.  The report carries a two-sample chi-square and the maximum
    per-block deviation in Monte-Carlo standard errors; exact invariance is
    replaced by this desk-scale proxy.  ``steps`` and ``block_len`` are
    refused as :func:`_check_t_invariance` refuses them, which a caller may
    run before it draws the window.
    """
    _check_t_invariance(steps, block_len)
    image = _sweep(config.bits)
    max_soliton = 0
    if steps > 1:
        # one evolution step is exact right of the leftmost record; deeper
        # iterations can leak boundary effects inward, so trim a margin.  The
        # largest soliton is the highest carrier load, reached in the window
        # and read off the first step's image
        max_soliton = max(_loads(config.bits, image))
    margin = steps * max_soliton * 2
    if margin + block_len > n_boxes:
        raise PreconditionError("window too small for the interior margin")
    # the margin is refused before any sweep past the first
    evolved = evolve(BallConfig(config.origin, image), steps - 1)
    before = config.segment(margin, n_boxes)
    after = evolved.segment(margin, n_boxes)
    obs_a, n_a = block_frequencies(before, block_len)
    obs_b, n_b = block_frequencies(after, block_len)
    patterns = sorted(set(obs_a) | set(obs_b))
    max_dev = 0.0
    stat = 0.0
    dof = 0
    bins = []
    for pat in patterns:
        o_a, o_b = obs_a.get(pat, 0), obs_b.get(pat, 0)
        p_a, p_b = o_a / n_a, o_b / n_b
        se = math.sqrt(
            p_a * (1 - p_a) / n_a + p_b * (1 - p_b) / n_b
        )
        if se > 0:
            max_dev = max(max_dev, abs(p_a - p_b) / se)
        pooled = (o_a + o_b) / (n_a + n_b)
        e_a, e_b = n_a * pooled, n_b * pooled
        if min(e_a, e_b) >= _MIN_EXPECTED:
            stat += (o_a - e_a) ** 2 / e_a + (o_b - e_b) ** 2 / e_b
            dof += 1
        bins.append(("".join(map(str, pat)), float(o_a), float(o_b)))
    dof = max(dof - 1, 1)
    p = _chi2_sf(stat, dof)
    return GofReport(stat, dof, p, tuple(bins), max_dev_se=max_dev)


# ---------------------------------------------------------------------------
# component shift under evolution
# ---------------------------------------------------------------------------

class ShiftReport(_Value):
    """``ok``: whether every trimmed component row, and so every soliton count,
    is conserved and each nonempty row k moves by exactly k labels;
    ``offsets``: the label offset of each conserved nonempty row k, None for
    the others, a fresh empty dict by default."""

    __slots__ = ("ok", "offsets")

    def __init__(self, ok: bool, offsets: dict[int, int | None] | None = None):
        _set(self, "ok", ok)
        _set(self, "offsets", {} if offsets is None else offsets)


def component_shift_check(config: BallConfig) -> ShiftReport:
    """Check that evolution only translates each component row.

    Decomposes the configuration and its image, anchoring the image at its
    nearest record at or left of the origin, and compares the rows with
    zero padding stripped.  FNRW's linearisation moves row k by k labels:
    a row that changes, or that moves by any other offset, fails the check.
    """
    from .slots import decompose

    before = decompose(config)
    image = evolve(config)
    recs = record_positions(image)
    anchor_at = max((r for r in recs if r <= 0), default=recs[0])
    after = decompose(image.shifted(-anchor_at))
    sizes = sorted(set(before.sizes()) | set(after.sizes()))
    trimmed_before, trimmed_after = before.trimmed(), after.trimmed()
    ok = True
    offsets: dict[int, int | None] = {}
    for k in sizes:
        t_before = trimmed_before.row(k)
        t_after = trimmed_after.row(k)
        if t_before[1] != t_after[1]:
            ok = False
            offsets[k] = None
        elif t_before[1] == ():
            offsets[k] = None
        else:
            offsets[k] = t_after[0] - t_before[0]
            ok = ok and offsets[k] == k
    return ShiftReport(ok, offsets)
