"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written the slow, obvious way (plain
Python loops, direct definitions) so it shares no code path with the
library being tested.
"""
import itertools
import math

import numpy as np


def entropy_direct(probs) -> float:
    """-sum p log2 p over a flat list, 0 log 0 = 0."""
    h = 0.0
    for p in probs:
        if p > 0:
            h -= p * math.log2(p)
    return h


def tv_direct(p, q) -> float:
    return 0.5 * sum(abs(a - b) for a, b in zip(np.ravel(p), np.ravel(q)))


def binary_entropy(p: float) -> float:
    return entropy_direct([p, 1.0 - p])


def mi_from_table(table) -> float:
    """I(X;Y) of a 2-D table by the definition sum p log p/(p1 p2)."""
    t = np.asarray(table, dtype=float)
    p1 = t.sum(axis=1)
    p2 = t.sum(axis=0)
    val = 0.0
    for i in range(t.shape[0]):
        for j in range(t.shape[1]):
            if t[i, j] > 0:
                val += t[i, j] * math.log2(t[i, j] / (p1[i] * p2[j]))
    return val


def cond_mi_direct(table, ax_a, ax_c, ax_b) -> float:
    """I(A;C|B) for a dense table with axis groups, by summing per-b terms."""
    t = np.asarray(table, dtype=float)
    axes = list(range(t.ndim))
    other = [ax for ax in axes if ax not in (*ax_a, *ax_c, *ax_b)]
    if other:
        t = t.sum(axis=tuple(other))
        remap = [ax for ax in axes if ax not in other]
        ax_a = tuple(remap.index(a) for a in ax_a)
        ax_c = tuple(remap.index(a) for a in ax_c)
        ax_b = tuple(remap.index(a) for a in ax_b)
    perm = tuple(ax_b) + tuple(ax_a) + tuple(ax_c)
    t = t.transpose(perm)
    nb = int(np.prod(t.shape[:len(ax_b)], initial=1))
    na = int(np.prod(t.shape[len(ax_b):len(ax_b) + len(ax_a)], initial=1))
    nc = int(np.prod(t.shape[len(ax_b) + len(ax_a):], initial=1))
    t = t.reshape(nb, na, nc)
    val = 0.0
    for b in range(nb):
        pb = t[b].sum()
        if pb <= 0:
            continue
        val += pb * mi_from_table(t[b] / pb)
    return val


def marginal_entropy_direct(table, axes) -> float:
    """Entropy of the marginal on ``axes``, its cells summed one by one."""
    t = np.asarray(table, dtype=float)
    mass = {}
    for idx in itertools.product(*(range(k) for k in t.shape)):
        key = tuple(idx[a] for a in axes)
        mass[key] = mass.get(key, 0.0) + t[idx]
    return entropy_direct(mass.values())


def inner_rhs_direct(table) -> list:
    """The four inner-bound right-hand sides of a (U, V, W, Y1, Y2) table,
    from their definitions: total I(Y;UVW) + I(U;V|W) + I(W;Y), link1
    I(Y;VW), link2 I(Y;UW), forward I(U;V|W) + I(W;Y), with Y = (Y1, Y2)."""
    u, v, w, y = (0,), (1,), (2,), (3, 4)
    i_uv_w = cond_mi_direct(table, u, v, w)
    i_w_y = cond_mi_direct(table, w, y, ())
    return [cond_mi_direct(table, y, u + v + w, ()) + i_uv_w + i_w_y,
            cond_mi_direct(table, y, v + w, ()), cond_mi_direct(table, y, u + w, ()),
            i_uv_w + i_w_y]


def outer_bounds_direct(table):
    """For a (Y1, Y2, U, V) table: the three outer bounds I(Y1Y2;V),
    I(Y1Y2;U), max(I(U;Y1), I(V;Y2)) and the Markov slacks I(Y1;Y2|U),
    I(Y1;Y2|V)."""
    y1, y2, u, v = (0,), (1,), (2,), (3,)
    bounds = [cond_mi_direct(table, y1 + y2, v, ()), cond_mi_direct(table, y1 + y2, u, ()),
              max(cond_mi_direct(table, u, y1, ()), cond_mi_direct(table, v, y2, ()))]
    return bounds, [cond_mi_direct(table, y1, y2, u), cond_mi_direct(table, y1, y2, v)]


def binning_constants_direct(table) -> list:
    """The twelve constants of the binning constraint system of a
    (U, V, W, Y1, Y2) table, in row order: uniformity H(W), H(WV), H(WU),
    H(WVU); decoding -H(V|W), -H(WV), -H(U|W), -H(WU); independence
    H(W|Y), H(WV|Y), H(WU|Y), H(WVU|Y), with Y = (Y1, Y2)."""
    def h(*axes):
        return marginal_entropy_direct(table, axes)
    hw, hwv, hwu, hy = h(2), h(1, 2), h(0, 2), h(3, 4)
    return [hw, hwv, hwu, h(0, 1, 2), -(hwv - hw), -hwv, -(hwu - hw), -hwu,
            h(2, 3, 4) - hy, h(1, 2, 3, 4) - hy, h(0, 2, 3, 4) - hy, h(0, 1, 2, 3, 4) - hy]


def set_partitions(length: int, max_blocks: int):
    """Every partition of range(length) into at most max_blocks blocks, as a
    restricted growth string: a[0] = 0 and a[i] <= 1 + max(a[:i])."""
    labels = [0] * length

    def extend(i, used):
        if i == length:
            yield tuple(labels)
            return
        for b in range(min(used + 1, max_blocks)):
            labels[i] = b
            yield from extend(i + 1, max(used, b + 1))

    yield from extend(0, 0)


def wyner_deterministic_min(q_table, w_cap: int, slack_tol: float = 1e-9):
    """Brute force over all maps from support cells to w_cap bins: the
    smallest I(Y1Y2;W) among maps keeping Y1 _|_ Y2 | W within tolerance.

    H(W) and the Markov slack do not change when W is relabelled, so one
    map per set partition of the support cells suffices.
    For deterministic W, I(Y1Y2;W) = H(W).  Returns (value, best map).
    """
    q = np.asarray(q_table, dtype=float)
    n1, n2 = q.shape
    cells = [(i, j) for i in range(n1) for j in range(n2) if q[i, j] > 0]
    best = (math.inf, None)
    for assign in set_partitions(len(cells), w_cap):
        masses = [0.0] * w_cap
        tables = [np.zeros((n1, n2)) for _ in range(w_cap)]
        for (i, j), w in zip(cells, assign):
            masses[w] += q[i, j]
            tables[w][i, j] += q[i, j]
        slack = 0.0
        for w in range(w_cap):
            if masses[w] > 0:
                slack += masses[w] * mi_from_table(tables[w] / masses[w])
        if slack <= slack_tol:
            value = entropy_direct(masses)
            if value < best[0]:
                best = (value, assign)
    return best


def wyner_dsbs(p: float) -> float:
    """Wyner's common information of the doubly symmetric binary source
    with crossover p (Wyner 1975): 1 + h(p) - 2 h(a), where a solves
    2a(1 - a) = p, the crossover of each output from a uniform common bit.
    A crossover above 1/2 is the mirror image of 1 - p."""
    if p > 0.5:
        p = 1.0 - p
    a = (1.0 - math.sqrt(1.0 - 2.0 * p)) / 2.0
    return 1.0 + binary_entropy(p) - 2.0 * binary_entropy(a)


def dsbs_wyner_witness(p: float):
    """Wyner's common information C of the doubly symmetric binary source
    with crossover 0 < p <= 1/2, and the conditional p(w|y1,y2) that attains
    it (Wyner 1975): W a uniform bit and Y_i = W xor Bern(a), 2a(1 - a) = p,
    so p(w|y1,y2) = (1/2) p(y1|w) p(y2|w) / q(y1,y2).  Returns
    (1 + h(p) - 2 h(a), the witness as a [y1, y2, w] table)."""
    a = (1.0 - math.sqrt(1.0 - 2.0 * p)) / 2.0
    witness = np.zeros((2, 2, 2))
    for y1, y2, w in itertools.product(range(2), repeat=3):
        q = (1.0 - p) / 2.0 if y1 == y2 else p / 2.0
        witness[y1, y2, w] = 0.5 * (a if y1 != w else 1 - a) * (a if y2 != w else 1 - a) / q
    return 1.0 + binary_entropy(p) - 2.0 * binary_entropy(a), witness


def wyner_terms_full(q_table, support, rows):
    """I(Y1Y2;W) and I(Y1;Y2|W) of a (B, |support|, W) batch of conditionals
    p(w|y1,y2) on the support cells, the way the solver scored them before
    it worked on the support alone: the rows are embedded in the full
    (Y1, Y2, W) table, with uniform rows off the support, and five marginal
    entropies of it, each summed cell by cell, are combined."""
    q = np.asarray(q_table, dtype=float)
    w = rows.shape[-1]
    full = np.full((len(rows), q.size, w), 1.0 / w)
    full[:, support] = rows
    i_joint, slack = [], []
    for j in (q.ravel()[None, :, None] * full).reshape(len(rows), *q.shape, w):
        hy, hw, hyw, h1w, h2w = (marginal_entropy_direct(j, axes)
                                 for axes in ((0, 1), (2,), (0, 1, 2), (0, 2), (1, 2)))
        i_joint.append(max(0.0, hy + hw - hyw))
        slack.append(max(0.0, h1w + h2w - hyw - hw))
    return np.array(i_joint), np.array(slack)


def greedy_merge_map_loop(terms, ms: int, merge_tol: float = 1e-9):
    """The greedy merge map one merge at a time: each round tries every
    pair of bins x < y in order, scores the map with y merged into x (bins
    renumbered in order) alone, and keeps the first of least I(Y1Y2;W) among
    those with slack <= ``merge_tol``; it stops when none qualifies or one
    bin is left."""
    assign = list(range(ms))
    while max(assign) > 0:
        nbins, best = max(assign) + 1, None
        for x in range(nbins):
            for y in range(x + 1, nbins):
                trial = [x if c == y else (c - 1 if c > y else c) for c in assign]
                i_val, slack = (float(t[0]) for t in terms(np.eye(nbins - 1)[trial][None]))
                if slack <= merge_tol and (best is None or i_val < best[0]):
                    best = (i_val, trial)
        if best is None:
            break
        assign = best[1]
    return np.array(assign)


def extension_interval(a, b, strict, col, point):
    """Feasible interval (lo, hi) for the eliminated variable of a system
    a.x <= b at a fixed projection point (closure semantics)."""
    lo, hi = -math.inf, math.inf
    for row, const in zip(a, b):
        c = row[col]
        rest = sum(row[k] * point[kk] for kk, k in enumerate([i for i in range(len(row)) if i != col]))
        if abs(c) < 1e-12:
            if rest > const + 1e-9:
                return None
        elif c > 0:
            hi = min(hi, (const - rest) / c)
        else:
            lo = max(lo, (const - rest) / c)
    if lo > hi + 1e-9:
        return None
    return (lo, hi)


def fme_eliminate_loop(a, b, strict, col, snap=1e-9):
    """Fourier-Motzkin elimination of column ``col`` from a.x <= b, one
    row pair at a time: rows without the variable first, then each
    (upper, lower) pair in row order, strict when either parent is.
    Coefficients below ``snap`` in magnitude come out as 0."""
    a = np.asarray(a, dtype=float)
    keep = [k for k in range(a.shape[1]) if k != col]
    rows_a, rows_b, rows_s = [], [], []
    for i in range(len(a)):
        if a[i, col] == 0:
            rows_a.append(a[i, keep])
            rows_b.append(b[i])
            rows_s.append(bool(strict[i]))
    for i in range(len(a)):
        if a[i, col] <= 0:
            continue
        ai, bi = a[i] / a[i, col], b[i] / a[i, col]
        for j in range(len(a)):
            if a[j, col] >= 0:
                continue
            aj, bj = a[j] / (-a[j, col]), b[j] / (-a[j, col])
            row = ai + aj
            rows_a.append(row[keep])
            rows_b.append(bi + bj)
            rows_s.append(bool(strict[i] or strict[j]))
    out = np.array(rows_a).reshape(len(rows_b), len(keep))
    out[np.abs(out) < snap] = 0.0
    return out, np.array(rows_b), np.array(rows_s, dtype=bool)


def simplify_loop(a, b, strict, snap=1e-9):
    """Drop trivially true rows (0 <= c, or 0 < c with c >= snap) and fold
    rows with equal 12-decimal coefficients into the first one: a lower
    constant by more than ``snap`` replaces it, one within ``snap`` keeps
    the smaller constant and ORs the strictness."""
    keep, order = {}, []
    for i in range(len(a)):
        if not np.any(a[i]) and b[i] >= (snap if strict[i] else 0.0):
            continue
        key = tuple(np.round(a[i], 12))
        if key not in keep:
            keep[key] = (b[i], bool(strict[i]))
            order.append(key)
            continue
        b0, s0 = keep[key]
        if b[i] < b0 - snap:
            keep[key] = (b[i], bool(strict[i]))
        elif abs(b[i] - b0) <= snap:
            keep[key] = (min(b0, b[i]), s0 or bool(strict[i]))
    out = np.array([list(k) for k in order]).reshape(len(order), np.shape(a)[1])
    return (out, np.array([keep[k][0] for k in order]),
            np.array([keep[k][1] for k in order], dtype=bool))


def drop_dominated_loop(a, b, strict):
    """Keep mask of the rows of a.x <= b that survive one pass of pruning
    over the nonnegative orthant: row j goes when some other row i has
    a_i >= a_j entrywise and b_i <= b_j, with b_i < b_j or i strict if j
    is; rows -x_k <= 0 and x_k - x_l <= 0 with constant 0 always stay."""
    keep = []
    for j in range(len(a)):
        nz = [c for c in a[j] if c != 0]
        carrier = (b[j] == 0 and not strict[j]
                   and (nz == [-1.0] or sorted(nz) == [-1.0, 1.0]))
        implied = False
        for i in range(len(a)):
            if i == j or any(a[i][k] < a[j][k] for k in range(len(a[j]))):
                continue
            if b[i] <= b[j] and (b[i] < b[j] or strict[i] or not strict[j]):
                implied = True
        keep.append(carrier or not implied)
    return np.array(keep, dtype=bool)


def vertices_bruteforce(a, b, snap=1e-9, tol=1e-9):
    """The distinct vertices of {x : a.x >= b} for one system, the slow
    way: every n-row basis of all the rows, one ``np.linalg.solve`` each,
    bases with |det| <= ``snap`` skipped, the solutions that satisfy every
    row within ``tol`` kept, as a set of tuples rounded to 9 digits."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    found = set()
    for basis in itertools.combinations(range(len(a)), a.shape[1]):
        mat = a[list(basis)]
        if abs(np.linalg.det(mat)) <= snap:
            continue
        x = np.linalg.solve(mat, b[list(basis)])
        if all(row @ x >= const - tol for row, const in zip(a, b)):
            found.add(tuple(float(c) + 0.0 for c in np.round(x, 9)))
    return found


def _facet_candidates(a_all, b_all, center, snap=1e-9):
    """Projections of ``center`` onto each hyperplane a.x = b and onto every
    pairwise intersection of them (2x2 normal equations)."""
    norms = (a_all ** 2).sum(axis=1)
    ok = norms > snap
    a1, b1, n1 = a_all[ok], b_all[ok], norms[ok]
    single = center[None, :] + ((b1 - a1 @ center) / n1)[:, None] * a1
    if len(a1) < 2:
        return single
    ii, jj = np.triu_indices(len(a1), k=1)
    g11, g22 = n1[ii], n1[jj]
    g12 = (a1[ii] * a1[jj]).sum(axis=1)
    det = g11 * g22 - g12 ** 2
    good = np.abs(det) > 1e-12
    ii, jj, g11, g22, g12, det = ii[good], jj[good], g11[good], g22[good], g12[good], det[good]
    r1 = b1[ii] - a1[ii] @ center
    r2 = b1[jj] - a1[jj] @ center
    lam1 = (g22 * r1 - g12 * r2) / det
    lam2 = (g11 * r2 - g12 * r1) / det
    pair = center[None, :] + lam1[:, None] * a1[ii] + lam2[:, None] * a1[jj]
    return np.vstack([single, pair])


def systems_equivalent_sampled(a1, b1, a2, b2, box, n_samples=1000, seed=0, tol=1e-9):
    """Compare the closures of {x : a1.x <= b1} and {x : a2.x <= b2} on
    uniform samples in ``box`` (one (lo, hi) per variable) plus the facet
    candidates of both systems that fall in it.

    Returns (agree, points tested, first point in exactly one system or
    None).  A sliver thinner than the sample spacing can go unseen.
    """
    a1, b1, a2, b2 = (np.asarray(x, dtype=float) for x in (a1, b1, a2, b2))
    box = np.asarray(box, dtype=float).reshape(a1.shape[1], 2)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(box[:, 0], box[:, 1], size=(n_samples, a1.shape[1]))
    a_all, b_all = np.vstack([a1, a2]), np.concatenate([b1, b2])
    if len(a_all):
        cand = _facet_candidates(a_all, b_all, box.mean(axis=1))
        in_box = ((cand >= box[:, 0] - tol) & (cand <= box[:, 1] + tol)).all(axis=1)
        pts = np.vstack([pts, cand[in_box]])
    in_1 = (pts @ a1.T <= b1 + tol).all(axis=1)
    in_2 = (pts @ a2.T <= b2 + tol).all(axis=1)
    diff = np.flatnonzero(in_1 != in_2)
    return (not diff.size, len(pts), pts[diff[0]] if diff.size else None)


def split_sequences_loop(idx, sizes, n):
    """Per-component sequence indices, one time digit and one component at
    a time (first symbol and first component most significant)."""
    sizes = tuple(sizes)
    K = int(np.prod(sizes))
    comps = [np.zeros_like(idx) for _ in sizes]
    for t in range(n):
        digit = (idx // K ** (n - 1 - t)) % K
        for ci in reversed(range(len(sizes))):
            comps[ci] = comps[ci] * sizes[ci] + digit % sizes[ci]
            digit = digit // sizes[ci]
    return comps


def merge_sequences_loop(comps, sizes, n):
    """Inverse of split_sequences_loop, least-significant time digit first."""
    sizes = tuple(sizes)
    K = int(np.prod(sizes))
    out = np.zeros_like(np.asarray(comps[0]))
    rem = [np.asarray(c).copy() for c in comps]
    for t in range(n):
        sym = np.zeros_like(out)
        for ci, k in enumerate(sizes):
            sym = sym * k + rem[ci] % k
            rem[ci] //= k
        out += sym * K ** t
    return out


def _composite_sequence(seqs, sizes, n):
    """Sequence index over the product alphabet of the variables whose
    sequence indices are ``seqs`` and symbol alphabet sizes ``sizes``:
    each time step's symbols are read off as digits and combined, first
    variable and first symbol most significant."""
    out = 0
    for t in range(n):
        sym = 0
        for s, k in zip(seqs, sizes):
            sym = sym * k + (s // k ** (n - 1 - t)) % k
        out = out * math.prod(sizes) + sym
    return out


def sw_decode_loop(prior, names, symbol_sizes, constraints, n):
    """ML decoding within a bin intersection by visiting every sequence
    tuple in lexicographic order.  ``prior`` is a table over the
    n-sequence spaces of ``names``, whose symbol alphabet sizes are
    ``symbol_sizes``; each constraint is (variables, assignment array, bin
    index).  Returns the first tuple of highest prior that meets every
    constraint, or None when none does."""
    sym = dict(zip(names, symbol_sizes))
    best, best_p = None, -1.0
    for tup in itertools.product(*(range(s) for s in prior.shape)):
        seq = dict(zip(names, tup))
        if all(assignment[_composite_sequence([seq[v] for v in vars_g],
                                              [sym[v] for v in vars_g], n)] == b
               for vars_g, assignment, b in constraints) and prior[tup] > best_p:
            best, best_p = tup, prior[tup]
    return best


def _iid_tuples(table, names, n):
    """(probability, per-variable sequence index) of every n-tuple of
    symbols under the per-symbol pmf ``table`` over ``names``, extended
    i.i.d.; the first symbol of a sequence is its most significant."""
    sizes = dict(zip(names, table.shape))
    for symbols in itertools.product(itertools.product(*(range(k) for k in table.shape)),
                                     repeat=n):
        prob, seq = 1.0, dict.fromkeys(names, 0)
        for sym_t in symbols:
            prob *= table[sym_t]
            for v, s in zip(names, sym_t):
                seq[v] = seq[v] * sizes[v] + s
        yield prob, seq


def iid_extend_loop(table, n):
    """The n-fold product of the per-symbol pmf ``table``, one entry per
    n-tuple of symbols, each variable's sequence on its own axis."""
    names = list(range(table.ndim))
    out = np.zeros([k ** n for k in table.shape])
    for prob, seq in _iid_tuples(table, names, n):
        out[tuple(seq[v] for v in names)] = prob
    return out


def iid_extend_transpose(table, n):
    """The n-fold product built as a chain of outer products of the whole
    flattened symbol law, with axes (t0 v0, t0 v1, ..., t1 v0, ...), then
    transposed so each variable's n symbol axes are adjacent."""
    flat = np.asarray(table, dtype=float).ravel()
    ext = flat
    for _ in range(n - 1):
        ext = np.multiply.outer(ext, flat).ravel()
    d = table.ndim
    perm = [t * d + j for j in range(d) for t in range(n)]
    return ext.reshape(table.shape * n).transpose(perm).reshape([k ** n for k in table.shape])


def protocol_tvs_loop(joint, qn):
    """The three TVs of a (g, y1, y2) protocol joint against q^n, by a
    loop over every cell: of its (y1, y2) marginal, of the joint against
    q^n times uniform g, and per g of gtot times the joint's g slice (the
    best g's is the least).  Sums are exactly rounded (math.fsum)."""
    gtot, ny1, ny2 = joint.shape
    marg, unif, per_g = [], [], [[] for _ in range(gtot)]
    for y1 in range(ny1):
        for y2 in range(ny2):
            q = qn[y1, y2]
            marg.append(abs(math.fsum(joint[g, y1, y2] for g in range(gtot)) - q))
            for g in range(gtot):
                unif.append(abs(joint[g, y1, y2] - q / gtot))
                per_g[g].append(abs(joint[g, y1, y2] * gtot - q))
    return math.fsum(marg) / 2, math.fsum(unif) / 2, [math.fsum(t) / 2 for t in per_g]


def _bins_of(seq, sizes, groups, n):
    """Each group's bin of the sequences ``seq``; a group starts with its
    variables and its assignment array."""
    return tuple(int(assignment[_composite_sequence([seq[v] for v in vars_g],
                                                    [sizes[v] for v in vars_g], n)])
                 for vars_g, assignment, *_ in groups)


def sw_success_prob_loop(table, names, groups, n):
    """Probability that ML decoding recovers the grouped variables from
    their bins plus the other (side) variables, for the per-symbol pmf
    ``table`` over ``names`` extended i.i.d. to n symbols; each group is
    (variables, assignment array).  Every n-tuple of symbols is visited.
    Ties go to the lexicographically first decoded tuple, its variables
    taken in group order.  The winners' mass is summed in visiting order,
    so the result is exact only when every sum is (dyadic tables)."""
    sizes = dict(zip(names, table.shape))
    decoded = [v for vars_g, _ in groups for v in vars_g]
    side = [v for v in names if v not in decoded]
    best = {}  # (side sequences, bins) -> (probability, decoded sequences)
    for prob, seq in _iid_tuples(table, names, n):
        key = (tuple(seq[v] for v in side), _bins_of(seq, sizes, groups, n))
        cand = (prob, tuple(seq[v] for v in decoded))
        if key not in best or cand[0] > best[key][0] or (
                cand[0] == best[key][0] and cand[1] < best[key][1]):
            best[key] = cand
    total = 0.0
    for prob, _ in best.values():
        total += prob
    return total


def osrb_uniformity_loop(table, names, groups, n):
    """TV between the law of (side sequences, bins) and the side marginal
    times independent uniform bins, for the per-symbol pmf ``table`` over
    ``names`` extended i.i.d. to n symbols.  Each group is (variables,
    assignment array, bin count) and is binned as one composite source;
    the side variables are those in no group.  Every n-tuple of symbols
    is visited."""
    sizes = dict(zip(names, table.shape))
    grouped = {v for vars_g, _, _ in groups for v in vars_g}
    side = [v for v in names if v not in grouped]
    induced, side_marg = {}, {}
    for prob, seq in _iid_tuples(table, names, n):
        s = tuple(seq[v] for v in side)
        key = (s, _bins_of(seq, sizes, groups, n))
        induced[key] = induced.get(key, 0.0) + prob
        side_marg[s] = side_marg.get(s, 0.0) + prob
    total_bins = math.prod(nb for _, _, nb in groups)
    tv = 0.0
    for s, mass in side_marg.items():
        for bins in itertools.product(*(range(nb) for _, _, nb in groups)):
            tv += abs(induced.get((s, bins), 0.0) - mass / total_bins)
    return tv / 2


def slow_protocol_law(p_wvu, chan1, chan2, n, codes, num_bins):
    """Reference implementation of the protocol's induced law by explicit
    loops over shared indices, backward messages, and relay tuples.

    p_wvu: per-symbol table (w, v, u); chan1[(w,v) sym, y1], chan2[(w,u), y2]
    per-symbol channel matrices; codes: dict name -> assignment arrays over
    the matching sequence spaces; num_bins: dict name -> bin counts.
    Returns the joint array over (g0, g1, g2, y1 seq, y2 seq) and each
    node's decoding success: the relay weight of the tuples whose decoded
    pair is their own.
    """
    nw, nv, nu = p_wvu.shape
    n1 = chan1.shape[1]
    n2 = chan2.shape[1]

    def seqs(k):
        return list(itertools.product(range(k), repeat=n))

    def seq_index(tup, k):
        out = 0
        for s in tup:
            out = out * k + s
        return out

    def chan_seq(mat, in_tup, k_in):
        out = np.ones(mat.shape[1] ** n)
        vec = np.zeros(mat.shape[1] ** n)
        for y_tup in itertools.product(range(mat.shape[1]), repeat=n):
            pr = 1.0
            for i, (xi, yi) in enumerate(zip(in_tup, y_tup)):
                pr *= mat[xi, yi]
            vec[seq_index(y_tup, mat.shape[1])] = pr
        return vec

    tuples = []
    for w_tup in seqs(nw):
        for v_tup in seqs(nv):
            for u_tup in seqs(nu):
                pr = 1.0
                for wi, vi, ui in zip(w_tup, v_tup, u_tup):
                    pr *= p_wvu[wi, vi, ui]
                tuples.append((w_tup, v_tup, u_tup, pr))

    def w_idx(w_tup):
        return seq_index(w_tup, nw)

    def wv_idx(w_tup, v_tup):
        return seq_index([wi * nv + vi for wi, vi in zip(w_tup, v_tup)], nw * nv)

    def wu_idx(w_tup, u_tup):
        return seq_index([wi * nu + ui for wi, ui in zip(w_tup, u_tup)], nw * nu)

    joint = np.zeros((num_bins["g0"] * num_bins["g1"] * num_bins["g2"],
                      n1 ** n, n2 ** n))
    prior_wv = {}
    prior_wu = {}
    for w_tup in seqs(nw):
        for v_tup in seqs(nv):
            pr = 1.0
            for wi, vi in zip(w_tup, v_tup):
                pr *= p_wvu[wi, vi, :].sum()
            prior_wv[(w_tup, v_tup)] = pr
        for u_tup in seqs(nu):
            pr = 1.0
            for wi, ui in zip(w_tup, u_tup):
                pr *= p_wvu[wi, :, ui].sum()
            prior_wu[(w_tup, u_tup)] = pr

    def decode1(g0, g1, b1, f1):
        best = None
        for (w_tup, v_tup), pr in prior_wv.items():
            if codes["g0"][w_idx(w_tup)] != g0:
                continue
            i = wv_idx(w_tup, v_tup)
            if codes["g1"][i] != g1 or codes["b1"][i] != b1 or codes["f1"][i] != f1:
                continue
            key = (-pr, i)
            if best is None or key < best[0]:
                best = (key, (w_tup, v_tup))
        return best[1] if best else None

    def decode2(g0, g2, b2, f2):
        best = None
        for (w_tup, u_tup), pr in prior_wu.items():
            if codes["g0"][w_idx(w_tup)] != g0:
                continue
            i = wu_idx(w_tup, u_tup)
            if codes["g2"][i] != g2 or codes["b2"][i] != b2 or codes["f2"][i] != f2:
                continue
            key = (-pr, i)
            if best is None or key < best[0]:
                best = (key, (w_tup, u_tup))
        return best[1] if best else None

    total_cells = (num_bins["g0"] * num_bins["g1"] * num_bins["g2"]
                   * num_bins["b1"] * num_bins["b2"])
    sw1 = sw2 = 0.0
    for g0 in range(num_bins["g0"]):
        for g1 in range(num_bins["g1"]):
            for g2 in range(num_bins["g2"]):
                gflat = (g0 * num_bins["g1"] + g1) * num_bins["g2"] + g2
                for b1 in range(num_bins["b1"]):
                    for b2 in range(num_bins["b2"]):
                        members = [(w, v, u, pr) for (w, v, u, pr) in tuples
                                   if codes["g0"][w_idx(w)] == g0
                                   and codes["g1"][wv_idx(w, v)] == g1
                                   and codes["b1"][wv_idx(w, v)] == b1
                                   and codes["g2"][wu_idx(w, u)] == g2
                                   and codes["b2"][wu_idx(w, u)] == b2]
                        z = sum(pr for *_, pr in members)
                        if z <= 0:
                            first_in = tuple([0] * n)
                            y1law = chan_seq(chan1, [0] * n, nw * nv)
                            y2law = chan_seq(chan2, [0] * n, nw * nu)
                            joint[gflat] += np.outer(y1law, y2law) / total_cells
                            continue
                        for (w, v, u, pr) in members:
                            if pr <= 0:
                                continue
                            f1 = codes["f1"][wv_idx(w, v)]
                            f2 = codes["f2"][wu_idx(w, u)]
                            d1 = decode1(g0, g1, b1, f1)
                            d2 = decode2(g0, g2, b2, f2)
                            in1 = [wi * nv + vi for wi, vi in zip(*d1)]
                            in2 = [wi * nu + ui for wi, ui in zip(*d2)]
                            y1law = chan_seq(chan1, in1, nw * nv)
                            y2law = chan_seq(chan2, in2, nw * nu)
                            joint[gflat] += (pr / z) * np.outer(y1law, y2law) / total_cells
                            sw1 += (pr / z) / total_cells if d1 == (w, v) else 0.0
                            sw2 += (pr / z) / total_cells if d2 == (w, u) else 0.0
    return joint, (sw1, sw2)


# ---------------------------------------------------------------------------
# The one-restart-at-a-time coordinate descent that the library's batched
# core replaced, kept as it was: one line search per call, its own grids.

def _line_candidates_loop(row: np.ndarray, k: int, coarse: int = 9):
    """Step sizes t for row <- (1-t)*row + t*e_k, t in [t_min, 1]."""
    rk = row[k]
    t_min = -rk / (1.0 - rk) if rk < 1.0 else 0.0
    ts = np.linspace(t_min, 1.0, coarse)
    return ts[np.abs(ts) > 1e-15]


def _apply_loop(row: np.ndarray, k: int, ts: np.ndarray) -> np.ndarray:
    out = (1.0 - ts)[:, None] * row[None, :]
    out[:, k] += ts
    np.clip(out, 0.0, None, out=out)
    return out / out.sum(axis=1, keepdims=True)


def coordinate_descent_sequential(objective, blocks, *, max_iters: int = 5000,
                       stall_limit: int = 50, tol: float = 1e-9,
                       good_enough: float | None = None):
    """Minimize ``objective`` by cyclic coordinate line searches.

    objective(list of arrays with a leading batch axis) -> (B,) values.
    Returns (blocks, value, iterations).  One iteration is one coordinate
    (block, row, vertex) examined; the search stops when ``stall_limit``
    consecutive iterations improve by less than ``tol``.
    """
    blocks = [np.array(b, dtype=float) for b in blocks]
    value = float(objective([b[None] for b in blocks])[0])
    iters = 0
    stalled = 0
    while iters < max_iters:
        improved_this_sweep = False
        for bi, blk in enumerate(blocks):
            rows, cols = blk.shape
            for r in range(rows):
                for k in range(cols):
                    iters += 1
                    ts = _line_candidates_loop(blk[r], k)
                    if ts.size == 0:
                        continue
                    cand = _apply_loop(blk[r], k, ts)
                    # refine around the coarse grid in the same batch
                    vals = _score_loop(objective, blocks, bi, r, cand)
                    j = int(np.argmin(vals))
                    best_v, best_row = float(vals[j]), cand[j]
                    step = (ts[-1] - ts[0]) / max(len(ts) - 1, 1)
                    t2 = np.linspace(max(ts[0], ts[j] - step), min(1.0, ts[j] + step), 7)
                    t2 = t2[np.abs(t2) > 1e-15]
                    if t2.size:
                        cand2 = _apply_loop(blk[r], k, t2)
                        vals2 = _score_loop(objective, blocks, bi, r, cand2)
                        j2 = int(np.argmin(vals2))
                        if vals2[j2] < best_v:
                            best_v, best_row = float(vals2[j2]), cand2[j2]
                    if best_v < value - tol:
                        blk[r] = best_row
                        value = best_v
                        stalled = 0
                        improved_this_sweep = True
                    else:
                        stalled += 1
                    if good_enough is not None and value <= good_enough:
                        return blocks, value, iters
                    if stalled >= stall_limit or iters >= max_iters:
                        return blocks, value, iters
        if not improved_this_sweep:
            break
    return blocks, value, iters


def _score_loop(objective, blocks, bi, r, cand_rows):
    B = cand_rows.shape[0]
    batch = []
    for j, blk in enumerate(blocks):
        rep = np.repeat(blk[None], B, axis=0)
        if j == bi:
            rep[:, r, :] = cand_rows
        batch.append(rep)
    return objective(batch)
