"""Independent brute-force reference implementations used only by the tests.

Everything here works on plain lists and strings, rescanning from scratch at
every step, so the package's incremental algorithms are checked against
straight-line transcriptions of the definitions.
"""

from __future__ import annotations

import bisect
from fractions import Fraction


def dyck_paths(n):
    """All +/-1 step sequences of nonnegative bridges of length 2n (recursive)."""
    if n == 0:
        yield ()
        return
    for i in range(n):
        for inner in dyck_paths(i):
            for rest in dyck_paths(n - 1 - i):
                yield (1,) + inner + (-1,) + rest


def naive_records(balls, origin=1):
    """Record boxes in [origin - 1, first record past the window], by direct scan."""
    height = 0
    running = 0
    out = [origin - 1]
    for i, b in enumerate(balls):
        height += 2 * b - 1
        if height < running:
            out.append(origin + i)
            running = height
    out.append(origin + len(balls) - 1 + (height - running) + 1)
    if out[-1] == out[-2]:
        out.pop()
    return out


def naive_carrier(balls, load=0):
    """Carrier load after each box, entering with ``load`` balls, then down
    to 0 one box at a time past the window."""
    out = []
    for b in balls:
        load = load + 1 if b else max(load - 1, 0)
        out.append(load)
    while load:
        load -= 1
        out.append(load)
    return out


def naive_markov_boxes(uniforms, q, first):
    """The two-state chain with transition matrix ``q``, one box per uniform
    after a box in state ``first``: a ball when the uniform lies below
    Q(previous box, 1)."""
    out = []
    box = first
    for u in uniforms:
        box = int(u < q[box][1])
        out.append(box)
    return out


def naive_evolve(balls, origin=1):
    """Flip non-records between the outer records; returns (origin, balls)."""
    recs = set(naive_records(balls, origin))
    hi = max(recs) - 1
    out = [0 if z in recs else 1 - _occ(balls, origin, z) for z in range(origin, hi + 1)]
    while len(out) > len(balls) and out and out[-1] == 0:
        out.pop()
    return origin, out


def _occ(balls, origin, z):
    i = z - origin
    return balls[i] if 0 <= i < len(balls) else 0


def naive_solitons(balls):
    """Takahashi-Satsuma by full rescan: (k, head, tail) triples.

    The remaining boxes are rescanned into runs at every iteration; edge zero
    runs merge with the infinite padding and are never selected.
    """
    rem = [(i + 1, b) for i, b in enumerate(balls)]
    sols = []
    while True:
        runs = []
        for pos, val in rem:
            if runs and runs[-1][0] == val:
                runs[-1][1].append(pos)
            else:
                runs.append((val, [pos]))
        candidates = [
            (len(boxes), boxes[0], idx)
            for idx, (val, boxes) in enumerate(runs)
            if not (val == 0 and (idx == 0 or idx == len(runs) - 1))
        ]
        if not candidates:
            break
        k, _, idx = min(candidates)
        val, boxes = runs[idx]
        succ = list(runs[idx + 1][1][:k]) if idx + 1 < len(runs) else []
        last = rem[-1][0]
        while len(succ) < k:  # extend into the zero padding
            last = max(last, succ[-1] if succ else len(balls)) + 1
            succ.append(last)
        head, tail = (boxes, succ) if val == 1 else (succ, boxes)
        sols.append((k, tuple(head), tuple(tail)))
        used = set(boxes) | set(succ)
        rem = [(p, v) for p, v in rem if p not in used]
    return sorted(sols, key=lambda s: min(s[1] + s[2]))


def naive_slots(sols, k):
    out = [0]
    for m, head, tail in sols:
        if m > k:
            out.extend(head[k:])
            out.extend(tail[k:])
    return sorted(out)


def naive_diagram(balls):
    """Slot diagram rows of an excursion given as a ball list."""
    sols = naive_solitons(balls)
    if not sols:
        return []
    M = max(k for k, _, _ in sols)
    n = len(balls) // 2
    rows = []
    for k in range(1, M + 1):
        pos = naive_slots(sols, k)
        row = [0] * len(pos)
        for m, head, tail in sols:
            if m != k:
                continue
            lo = min(head + tail)
            hi = max(head + tail)
            j = bisect.bisect_left(pos, lo) - 1
            nxt = pos[j + 1] if j + 1 < len(pos) else 2 * n + 1
            assert pos[j] < lo and hi < nxt
            row[j] += 1
        rows.append(row)
    return rows


def naive_counts(balls):
    counts = {}
    for k, _, _ in naive_solitons(balls):
        counts[k] = counts.get(k, 0) + 1
    return counts


def exact_fill(alpha):
    """The parameter transform in rationals: ``q_k = alpha_k / prod_{j<k}
    (1 - q_j)^(2(k-j))`` for ``Fraction`` weights, level by level, stopping
    after the first q_k >= 1, past which the weights are not admissible."""
    q = []
    for k, a in enumerate(alpha, 1):
        denom = Fraction(1)
        for j, q_j in enumerate(q, 1):
            denom *= (1 - q_j) ** (2 * (k - j))
        q.append(a / denom)
        if q[-1] >= 1:
            break
    return q


def brute_partition_terms(alpha, n_max):
    """Per-half-length weight sums by full excursion enumeration."""
    terms = []
    for n in range(n_max + 1):
        total = Fraction(0)
        for path in dyck_paths(n):
            balls = [(s + 1) // 2 for s in path]
            weight = Fraction(1)
            for k, c in naive_counts(balls).items():
                a = Fraction(alpha[k - 1]) if k <= len(alpha) else Fraction(0)
                weight *= a**c
            total += weight
        terms.append(total)
    return terms


def brute_excursion_probs(alpha, n_max):
    """Exact normalized-on-truncation weights per excursion, by enumeration."""
    weights = {}
    for n in range(n_max + 1):
        for path in dyck_paths(n):
            balls = [(s + 1) // 2 for s in path]
            w = Fraction(1)
            for k, c in naive_counts(balls).items():
                a = Fraction(alpha[k - 1]) if k <= len(alpha) else Fraction(0)
                w *= a**c
            weights[path] = w
    return weights


def naive_components(rows_of, i_lo):
    """Nonzero entries ``{(k, label): value}`` of the component array of
    diagrams ``rows_of[t]`` (row lists, as from :func:`naive_diagram`) at
    indices ``i_lo + t``: laid out label by label from an explicit list of
    every diagram between the window and index 0, diagram 0 at label 0."""
    lo, hi = min(i_lo, 0), max(i_lo + len(rows_of), 1)
    by_index = {i_lo + t: rows for t, rows in enumerate(rows_of)}
    top = max((len(rows) for rows in rows_of), default=0)
    out = {}
    for k in range(1, top + 1):
        layout = []  # (index, that diagram's row k)
        for i in range(lo, hi):
            rows = by_index.get(i, [])
            layout.append((i, rows[k - 1] if k <= len(rows) else [0]))
        label = -sum(len(row) for i, row in layout if i < 0)
        for _, row in layout:
            for v in row:
                if v:
                    out[(k, label)] = v
                label += 1
    return out


def naive_split(entries):
    """``(i_lo, rows_of)`` of the component array whose nonzero entries are
    ``{(k, label): value}``: the diagrams read one at a time away from label
    0 on each side, row lists as from :func:`naive_diagram`.  A diagram's
    top is the largest k whose next unread label holds a nonzero entry; it
    takes the next s_k labels of each row k up to its top, and one label of
    every row above.  Left of label 0 the rows are read mirrored, from label
    -1, and each diagram mirrored back; the reading stops at the last
    nonzero entry of each side."""

    def side(sign, base):
        ends = {}  # per row: one past its last nonzero entry, in read order
        for k, label in entries:
            j = (label - base) * sign
            if j >= 0:
                ends[k] = max(ends.get(k, 0), j + 1)
        at = dict.fromkeys(ends, 0)
        out = []
        while any(at[k] < ends[k] for k in ends):
            top = max((k for k in ends if entries.get((k, base + sign * at[k]))), default=0)
            rows, s, above = [], 1, 0
            for k in range(top, 0, -1):
                row = [entries.get((k, base + sign * (at.get(k, 0) + j)), 0) for j in range(s)]
                rows.insert(0, row[::sign])
                above += sum(row)
                s += 2 * above
            for k in ends:
                at[k] += len(rows[k - 1]) if k <= top else 1
            out.append(rows)
        return out

    left = side(-1, -1)
    return -len(left), left[::-1] + side(1, 0)


def naive_rows(rows_of, i_lo):
    """Rows ``(k, offset, values)`` of the component array of diagrams
    ``rows_of[t]`` at indices ``i_lo + t``, zero padding included, by the
    definition: row k lists, diagram by diagram, that diagram's row k, or
    one zero for a diagram without one, from the first label of diagram
    ``i_lo``.  Label 0 is where diagram 0 starts, and each diagram between
    the window and index 0 is empty, one label per row."""
    top = max((len(rows) for rows in rows_of), default=0)
    out = []
    for k in range(1, top + 1):
        values = []
        for rows in rows_of:
            values.extend(rows[k - 1] if k <= len(rows) else [0])
        offset = i_lo if i_lo > 0 else 0
        for i in range(i_lo, 0):  # the labels of diagrams i_lo .. -1
            t = i - i_lo
            rows = rows_of[t] if t < len(rows_of) else []
            offset -= len(rows[k - 1]) if k <= len(rows) else 1
        out.append((k, offset, tuple(values)))
    return tuple(out)


def chain_block_law(q, n_max):
    """``[p_0, ..., p_n_max]``: p_n is the probability that a Palm block of
    the two-state chain ``q`` (its record and the excursion after it) holds
    n balls, in the number type of ``q``'s entries: ``Fraction`` entries give
    exact values, for small ``n_max``, and floats serve beyond.

    The boxes after a record form an excursion of half-length n when their
    walk, up at a ball and down at an empty box, stays at or above 0 and is
    back at 0 after 2n boxes, and the next box is empty, so a record.  A
    dynamic program over (height, last box) carries the weight of every such
    walk, box by box: a ball from height h - 1 and an empty box from height
    h + 1, never from 0, which would make that box a record.  Heights from
    which the walk cannot return by box ``2 n_max`` are dropped.
    """
    (q00, q01), (q10, q11) = q
    zero = q00 - q00
    empty, ball = [zero + 1], [zero]  # by height, after the record's empty box
    out = [q00]
    for t in range(1, 2 * n_max + 1):
        top = min(t, 2 * n_max - t)
        empty += (zero, zero)
        ball += (zero, zero)
        empty, ball = (
            [e * q00 + b * q10 for e, b in zip(empty[1 : top + 2], ball[1 : top + 2])],
            [zero, *(e * q01 + b * q11 for e, b in zip(empty[:top], ball[:top]))],
        )
        if t % 2 == 0:
            out.append(empty[0] * q00)
    return out


def chain_height_law(q, m):
    """P(M <= m): the probability that the largest soliton of a Palm
    excursion of the two-state chain ``q``, its highest carrier load, is at
    most ``m``, in the number type of ``q``'s entries.

    After the record the walk goes up at a ball and down at an empty box; it
    succeeds at an empty box from height 0, the next record, and fails at a
    ball to height m + 1.  With g_h and e_h the chances of success from
    height h after an empty box and after a ball, the linear system on
    (height <= m, last box) is ``g_h = Q(0,1) e_{h+1} + Q(0,0) g_{h-1}`` and
    ``e_h = Q(1,1) e_{h+1} + Q(1,0) g_{h-1}``, with g_{-1} = 1 and e_{m+1} =
    0, and P(M <= m) = g_0.  It is solved by elimination from the top:
    e_h = A_h g_{h-1} with A_{m+1} = 0 and ``A_h = Q(1,0) + Q(1,1) Q(0,0)
    A_{h+1} / (1 - Q(0,1) A_{h+1})``, so g_0 = Q(0,0) / (1 - Q(0,1) A_1).
    """
    (q00, q01), (q10, q11) = q
    a = 0  # A_{m+1}
    for _ in range(m):
        a = q10 + q11 * q00 * a / (1 - q01 * a)
    return q00 / (1 - q01 * a)
