"""Fourier-Motzkin elimination over affine inequality systems in named
rate variables, redundancy removal, and an exact equivalence test for
upward-closed systems by vertex enumeration.

The headline experiment: instantiate the three binning-rate constraint
sets at a coupling, project out the three auxiliary rates, and check the
result against the four direct rate inequalities of the inner bound.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain, combinations, permutations
from typing import Sequence

import numpy as np

# entropy stays bound here: perfbench/tracer.py wraps it at every module that binds it
from .information import entropy, subset_entropies  # noqa: F401
from .pmf import JointPmf
from .region import INNER_AXES, INNER_SUBSETS, _batch, inner_rhs_from_joint

log = logging.getLogger(__name__)

SNAP = 1e-9
MEMBER_TOL = 1e-9
BASIS_CHUNK = 4096      # vertex-enumeration bases solved per batch
PAIR_CHUNK = 1 << 16    # (row, row, entry) triples compared per batch when pruning rows

RATE_VARS = ("Rt0", "Rt1", "Rt2", "Rb1", "Rb2", "Rf1", "Rf2")
PROJECTED_VARS = ("Rb1", "Rb2", "Rf1", "Rf2")
TILDE_VARS = ("Rt0", "Rt1", "Rt2")


@dataclass(frozen=True)
class LinearSystem:
    """Rows a.x <= b (strict[i] marks a.x < b), over named variables.  A
    batch of couplings shares ``a`` and has (rows, couplings) arrays ``b``
    and ``strict``; a lone system, with vectors, is the batch of one."""

    variables: tuple[str, ...]
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    strict: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        a = np.where(np.abs(a) < SNAP, 0.0, a)
        b, strict = (x if x.ndim == 2 else x.ravel()
                     for x in (np.asarray(self.b, dtype=float), np.asarray(self.strict, dtype=bool)))
        if a.shape[0] == 0:
            a = a.reshape(0, len(self.variables))
        if a.shape[1] != len(self.variables) or len(b) != a.shape[0] or strict.shape != b.shape:
            raise ValueError("inconsistent system dimensions")
        if not np.isfinite(b).all() or not np.isfinite(a).all():
            raise ValueError("coefficients and constants must be finite")
        for name, arr in (("a", a), ("b", b), ("strict", strict)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def columns(self) -> list["LinearSystem"]:
        """The lone systems of a batch, one per coupling."""
        return [self] if self.b.ndim == 1 else [LinearSystem(self.variables, self.a, b, st)
                                                for b, st in zip(self.b.T, self.strict.T)]

    @staticmethod
    def stack(systems: Sequence["LinearSystem"]) -> "LinearSystem":
        """The batch of lone ``systems`` that share variables and coefficients."""
        s0 = systems[0]
        if any(s.variables != s0.variables or not np.array_equal(s.a, s0.a) for s in systems):
            raise ValueError("a batch shares its variables and coefficient matrix")
        return LinearSystem(s0.variables, s0.a, np.stack([s.b for s in systems], 1),
                            np.stack([s.strict for s in systems], 1))

    @staticmethod
    def from_rows(variables: Sequence[str], rows) -> "LinearSystem":
        """rows: iterables of (coeff dict or vector, relation '<='|'<', const)."""
        variables = tuple(variables)
        a, b, s = [], [], []
        for coeffs, rel, const in rows:
            if isinstance(coeffs, dict):
                unknown = set(coeffs) - set(variables)
                if unknown:
                    raise ValueError(f"unknown variables {sorted(unknown)}")
                vec = [float(coeffs.get(v, 0.0)) for v in variables]
            else:
                vec = list(np.asarray(coeffs, dtype=float))
            if rel not in ("<=", "<"):
                raise ValueError(f"relation must be '<=' or '<', got {rel!r}")
            a.append(vec)
            b.append(float(const))
            s.append(rel == "<")
        return LinearSystem(variables, np.array(a).reshape(len(b), len(variables)),
                            np.array(b), np.array(s, dtype=bool))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Closure membership: strict rows are treated as their closures and
        every row is given ``MEMBER_TOL`` of leeway."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts @ self.a.T <= self.b[None, :] + MEMBER_TOL).all(axis=1)

    def to_text(self) -> str:
        lines = ["vars: " + " ".join(self.variables)]
        for i in range(self.nrows):
            terms = [f"{self.a[i, j]:.17g}*{v}" for j, v in enumerate(self.variables)
                     if self.a[i, j] != 0.0]
            lhs = " + ".join(terms) if terms else "0"
            rel = "<" if self.strict[i] else "<="
            lines.append(f"{lhs} {rel} {self.b[i]:.17g}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "LinearSystem":
        lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
        if not lines or not lines[0].startswith("vars:"):
            raise ValueError("system text must start with a 'vars:' header")
        variables = tuple(lines[0][len("vars:"):].split())
        rows = []
        for ln in lines[1:]:
            if " <= " in ln:
                lhs, const = ln.split(" <= ")
                rel = "<="
            elif " < " in ln:
                lhs, const = ln.split(" < ")
                rel = "<"
            else:
                raise ValueError(f"row without relation: {ln!r}")
            coeffs = {}
            if lhs.strip() != "0":
                for term in lhs.split(" + "):
                    c, v = term.split("*")
                    coeffs[v.strip()] = coeffs.get(v.strip(), 0.0) + float(c)
            rows.append((coeffs, rel, float(const)))
        return LinearSystem.from_rows(variables, rows)


def fme_eliminate(s: LinearSystem, var: str) -> LinearSystem:
    """Project out ``var`` by pairing its upper and lower bounding rows, for a whole batch.

    A derived row is strict exactly when either parent is strict; rows not
    involving ``var`` carry over unchanged (minus the column) and come
    first, then one row per (upper, lower) pair in row order.
    """
    if var not in s.variables:
        raise ValueError(f"unknown variable {var!r}")
    col = s.variables.index(var)
    c = s.a[:, col]
    pos, neg, zero = c > 0, c < 0, c == 0
    up = np.delete(s.a[pos] / c[pos, None], col, axis=1)
    lo = np.delete(s.a[neg] / -c[neg, None], col, axis=1)
    a = (up[:, None, :] + lo[None, :, :]).reshape(len(up) * len(lo), up.shape[1])
    cb, rows = c.reshape((-1,) + (1,) * (s.b.ndim - 1)), (-1,) + s.b.shape[1:]  # c along b's axes
    b = (s.b[pos] / cb[pos])[:, None] + (s.b[neg] / -cb[neg])[None, :]
    strict = s.strict[pos][:, None] | s.strict[neg][None, :]
    return LinearSystem(tuple(v for v in s.variables if v != var),
                        np.vstack([np.delete(s.a[zero], col, axis=1), a]),
                        np.concatenate([s.b[zero], b.reshape(rows)]),
                        np.concatenate([s.strict[zero], strict.reshape(rows)]))


def simplify(s: LinearSystem) -> LinearSystem:
    """Cheap syntactic cleanup: drop trivially-true rows (0 <= c, c >= 0)
    and collapse rows with equal coefficient vectors (rounded to 12
    decimals) to one row, placed where the group first occurs.

    Tie rule: the row keeps the least constant of its group, and is strict
    when any row of the group whose constant lies within ``SNAP`` of that
    least one is strict.  A batch applies the rule in each coupling's
    column and drops a trivial row only when it is trivial in every one.
    """
    trivial = ~s.a.any(axis=1) & (s.b >= np.where(s.strict, SNAP, 0.0)).all(axis=tuple(range(1, s.b.ndim)))
    keys = np.round(s.a[~trivial], 12)
    b, strict = s.b[~trivial], s.strict[~trivial]
    # stable, so each group's earliest row leads it; with no variables every row is one group
    ranked = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
    starts = np.ones(len(ranked), dtype=bool)
    starts[1:] = (keys[ranked[1:]] != keys[ranked[:-1]]).any(axis=1)
    heads = np.flatnonzero(starts)
    b, strict = b[ranked], strict[ranked]
    bmin = np.minimum.reduceat(b, heads)
    tight = np.logical_or.reduceat(strict & (b - bmin[np.cumsum(starts) - 1] <= SNAP), heads)
    first = ranked[heads]
    order = np.argsort(first, kind="stable")
    return LinearSystem(s.variables, keys[first[order]], bmin[order], tight[order])


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: importing
    scipy.optimize costs most of the package's start-up time and memory,
    and only ``remove_redundant`` needs it."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def remove_redundant(s: LinearSystem) -> LinearSystem:
    """Drop rows whose left side cannot beat their constant under the rest.

    Each subproblem max a_i.x s.t. remaining rows (closed) is solved as an
    LP; unbounded subproblems are flagged and the row kept conservatively.
    Strictness is immaterial here because redundancy is judged on closures.
    """
    s = simplify(s)
    kept = list(range(s.nrows))
    i = 0
    while i < len(kept):
        ridx = kept[i]
        rest = [j for j in kept if j != ridx]
        if not rest:
            i += 1
            continue
        res = linprog(-s.a[ridx], A_ub=s.a[rest], b_ub=s.b[rest],
                      bounds=[(None, None)] * len(s.variables), method="highs")
        if res.status == 3:
            log.warning("remove_redundant: unbounded subproblem, keeping row %d", ridx)
            i += 1
        elif res.status == 2:
            kept.pop(i)  # remaining system already empty; row adds nothing
        elif res.status == 0 and -res.fun <= s.b[ridx] + MEMBER_TOL:
            kept.pop(i)
        else:
            i += 1
    return LinearSystem(s.variables, s.a[kept], s.b[kept], s.strict[kept])


@dataclass
class EquivalenceReport:
    agree: bool
    vertices: int
    counterexample: np.ndarray | None


def _lower_form(s: LinearSystem) -> tuple[np.ndarray, np.ndarray]:
    """The rows of an upward-closed ``s`` as alpha.x >= beta with alpha >= 0,
    followed by the rows x >= 0; beta is (rows, couplings), one column for a lone system."""
    if (s.a > 0).any():
        raise ValueError("exact comparison needs upward-closed systems (no positive coefficient)")
    n, b = s.a.shape[1], s.b if s.b.ndim == 2 else s.b[:, None]
    return np.vstack([-s.a, np.eye(n)]), np.vstack([-b, np.zeros((n, b.shape[1]))])


def _bases(rows: int, n: int) -> np.ndarray:
    """The n-row bases of ``rows`` rows in lexicographic order."""
    return np.fromiter(chain.from_iterable(combinations(range(rows), n)), np.intp).reshape(-1, n)


def _vertices(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct vertices of {x : alpha.x >= beta[:, k]} for every column
    k of the (rows, K) ``beta``, whose last n rows are x >= 0, and the column
    of each, in the order first found.  Rows join lazily, shared by the
    columns: from x >= 0 on, each vertex of the rows so far (over all n-row
    bases in lexicographic order, ``BASIS_CHUNK`` bases × columns at a time,
    singular ones skipped) that violates a row of its column adds its most
    violated one.  When none does, the rows so far describe each column's
    system, since both are their vertex hull plus x >= 0."""
    m, n = alpha.shape
    rows, step = np.arange(m - n, m), max(1, BASIS_CHUNK // beta.shape[1])
    while True:
        a, b = alpha[rows], beta[rows]
        bases = _bases(len(rows), n)
        found = [(np.empty((0, n)), np.empty(0, np.intp))]   # (vertices, their columns)
        for chunk in np.split(bases, range(step, len(bases), step)):
            ok = np.abs(np.linalg.det(a[chunk])) > SNAP     # one det per basis: a is shared
            x = np.linalg.solve(a[chunk[ok]], b[chunk[ok]]).transpose(0, 2, 1)
            feasible = (x @ a.T >= b.T - MEMBER_TOL).all(axis=2)
            found.append((x[feasible], np.nonzero(feasible)[1]))
        v, col = (np.concatenate(f) for f in zip(*found))
        slack = v @ alpha.T - beta.T[col]
        slack[:, rows] = 0.0    # these hold by the mask above, so each added row is new
        bad = (slack < -MEMBER_TOL).any(axis=1)
        if not bad.any():
            break
        rows = np.union1d(rows, slack[bad].argmin(axis=1))
    first = np.sort(np.unique(np.column_stack([col, np.round(v, 9)]), axis=0, return_index=True)[1])
    return v[first], col[first]


def systems_equivalent(sys_a: LinearSystem | list[LinearSystem], sys_b: LinearSystem):
    """Exact comparison of the closures of two upward-closed systems (no
    positive coefficient), both taken within x >= 0.

    Such a system is its vertex hull plus the nonnegative orthant
    (Minkowski-Weyl), so the two are equal exactly when every vertex of
    each satisfies the other within ``MEMBER_TOL``.  The report counts the
    vertices of both; the counterexample is the first vertex, of ``sys_a``
    and then of ``sys_b``, that fails the other system.  Batches give a
    report per coupling, each side enumerated once for all of them; a list
    ``sys_a`` gives a list of those, with ``sys_b`` enumerated once.
    """
    alpha_b, beta_b = _lower_form(sys_b)
    (verts_b, col_b), k, out = _vertices(alpha_b, beta_b), beta_b.shape[1], []
    for s in sys_a if isinstance(sys_a, list) else [sys_a]:
        if set(s.variables) != set(sys_b.variables) or s.b.shape[1:] != sys_b.b.shape[1:]:
            raise ValueError("systems must share a variable set and a batch shape")
        perm = [sys_b.variables.index(v) for v in s.variables]
        (alpha_a, beta_a), vb = _lower_form(s), verts_b[:, perm]
        va, col_a = _vertices(alpha_a, beta_a)
        fail_a = ~(va @ alpha_b[:, perm].T >= beta_b.T[col_a] - MEMBER_TOL).all(axis=1)
        fail_b = ~(vb @ alpha_a.T >= beta_a.T[col_b] - MEMBER_TOL).all(axis=1)
        cols, first = np.unique(np.concatenate([col_a[fail_a], col_b[fail_b]]), return_index=True)
        x = dict(zip(cols.tolist(), np.concatenate([va[fail_a], vb[fail_b]])[first]))
        counts = np.bincount(col_a, minlength=k) + np.bincount(col_b, minlength=k)
        reports = [EquivalenceReport(c not in x, int(counts[c]), x.get(c)) for c in range(k)]
        out.append(reports if s.b.ndim == 2 else reports[0])
    return out if isinstance(sys_a, list) else out[0]


# ---------------------------------------------------------------------------
# Rate-constraint systems for a coupling over (U, V, W, Y1, Y2).

def binning_constraint_system(j: JointPmf) -> LinearSystem:
    """The three strict/SW constraint families over the seven rate
    variables, instantiated with the coupling's entropies, plus
    nonnegativity rows."""
    hw, hy, hwy, hwu, hwv, hwvu, hall, hwvy, hwuy = subset_entropies(_batch(j, INNER_AXES),
                                                                      INNER_SUBSETS)[0]
    hv_w = hwv - hw
    hu_w = hwu - hw
    rows = [
        # binning uniformity (strict upper bounds)
        ({"Rt0": 1}, "<", hw),
        ({"Rt0": 1, "Rt1": 1, "Rb1": 1}, "<", hwv),
        ({"Rt0": 1, "Rt2": 1, "Rb2": 1}, "<", hwu),
        ({"Rt0": 1, "Rt1": 1, "Rt2": 1, "Rb1": 1, "Rb2": 1}, "<", hwvu),
        # decoding (lower bounds, negated into <= form)
        ({"Rt1": -1, "Rb1": -1, "Rf1": -1}, "<=", -hv_w),
        ({"Rt0": -1, "Rt1": -1, "Rb1": -1, "Rf1": -1}, "<=", -hwv),
        ({"Rt2": -1, "Rb2": -1, "Rf2": -1}, "<=", -hu_w),
        ({"Rt0": -1, "Rt2": -1, "Rb2": -1, "Rf2": -1}, "<=", -hwu),
        # shared-index independence from the outputs (strict upper bounds)
        ({"Rt0": 1}, "<", hwy - hy),
        ({"Rt0": 1, "Rt1": 1}, "<", hwvy - hy),
        ({"Rt0": 1, "Rt2": 1}, "<", hwuy - hy),
        ({"Rt0": 1, "Rt1": 1, "Rt2": 1}, "<", hall - hy),
    ]
    rows += [({v: -1}, "<=", 0.0) for v in RATE_VARS]
    return LinearSystem.from_rows(RATE_VARS, rows)


def theorem_rate_system(j: JointPmf) -> LinearSystem:
    """The four direct rate inequalities over (Rb1, Rb2, Rf1, Rf2), plus
    nonnegativity."""
    b = inner_rhs_from_joint(j)
    rows = [
        ({"Rb1": -1, "Rf1": -1, "Rb2": -1, "Rf2": -1}, "<=", -b[0]),
        ({"Rb1": -1, "Rf1": -1}, "<=", -b[1]),
        ({"Rb2": -1, "Rf2": -1}, "<=", -b[2]),
        ({"Rf1": -1, "Rf2": -1}, "<=", -b[3]),
    ]
    rows += [({v: -1}, "<=", 0.0) for v in PROJECTED_VARS]
    return LinearSystem.from_rows(PROJECTED_VARS, rows)


def project_binning_system(s: LinearSystem, order: Sequence[str] = TILDE_VARS) -> LinearSystem:
    """Eliminate the auxiliary binning rates in ``order`` with syntactic
    cleanup after each step, once for a whole batch of couplings: their
    coefficients are the same, and ``simplify`` keeps one row per
    coefficient vector, so no step exceeds 61 rows and none needs LP
    cleanup.  Any ``order`` but a permutation of ``TILDE_VARS`` is a ValueError."""
    if sorted(order) != sorted(TILDE_VARS):
        raise ValueError(f"order must be a permutation of {TILDE_VARS}, got {tuple(order)}")
    for var in order:
        s = simplify(fme_eliminate(s, var))
    # normalize column order for downstream comparisons
    perm = [s.variables.index(v) for v in PROJECTED_VARS]
    return LinearSystem(PROJECTED_VARS, s.a[:, perm], s.b, s.strict)


def _drop_dominated(s: LinearSystem) -> LinearSystem:
    """Drop each row j that one other row i implies over the nonnegative
    orthant: a_j <= a_i and b_j >= b_i, with b_i < b_j or i strict if j is.
    After ``simplify`` no two rows imply each other.  The rows -z <= 0 and
    y - x <= 0, which carry the orthant, stay.  A batch drops a row only
    when one row implies it in every coupling's column."""
    a = s.a
    b, strict = (x if x.ndim == 2 else x[:, None] for x in (s.b, s.strict))
    nonzero = np.count_nonzero(a, axis=1)
    carrier = (((b == 0) & ~strict).any(axis=1) & (a.min(axis=1) == -1)
               & ((nonzero == 1) | ((nonzero == 2) & (a.max(axis=1) == 1))))
    # [i, j]: key_j >= key_i entrywise, for key -a beside the constants' dense ranks doubled,
    # plus 1 if loose, in every coupling; ``PAIR_CHUNK`` (i, j, entry) triples at a time
    rank = 2 * np.unique(b.ravel(), return_inverse=True)[1].reshape(b.shape) + ~strict
    key, step = np.hstack([-a, rank]), max(1, PAIR_CHUNK // (len(a) * (a.shape[1] + b.shape[1])))
    implies = np.vstack([(key[None, :] >= key[lo:lo + step, None]).all(axis=2)
                         for lo in range(0, len(a), step)])
    np.fill_diagonal(implies, False)
    keep = carrier | ~implies.any(axis=0)
    return LinearSystem(s.variables, a[keep], s.b[keep], s.strict[keep])


def upward_closure(s: LinearSystem) -> LinearSystem:
    """The set of points dominating some nonnegative solution of ``s``:
    {x : exists y with 0 <= y <= x and y in s}, computed by eliminating an
    auxiliary copy of every variable.

    Rate regions are increasing sets (a link may carry fewer bits than its
    capacity), so this is the operational reading of a projected
    constraint system.  A batch is closed once for all couplings, so a
    column may keep rows that only another coupling needs.
    """
    xv = tuple(s.variables)
    yv = tuple("_lo_" + v for v in xv)
    n = len(xv)
    eye, zero = np.eye(n), np.zeros((n, n))
    # rows y_k - x_k <= 0 and -y_k <= 0, in that order for each k
    links = np.stack([np.hstack([eye, -eye]), np.hstack([-eye, zero])], 1).reshape(2 * n, -1)
    zeros = np.zeros((2 * n,) + s.b.shape[1:])
    t = LinearSystem(yv + xv, np.vstack([np.hstack([s.a, np.zeros_like(s.a)]), links]),
                     np.concatenate([s.b, zeros]), np.concatenate([s.strict, zeros > 0]))
    for y in yv:
        t = _drop_dominated(simplify(fme_eliminate(t, y)))
    perm = [t.variables.index(v) for v in xv]
    return LinearSystem(xv, t.a[:, perm], t.b, t.strict)


def projection_matches_rate_system(base: LinearSystem, direct: LinearSystem, orders=None):
    """For each elimination order, project the binning system ``base``,
    close the result upward and compare it exactly with the direct rate
    system ``direct``: a list of (order, report).  Batches give one list
    per coupling, projecting once per order for all of them.

    The raw projection also carries upper caps on the rates (binning above
    the source entropy breaks the uniformity constraints), which the
    direct system deliberately omits because extra link capacity can
    always go unused.
    """
    orders = [tuple(o) for o in (permutations(TILDE_VARS) if orders is None else orders)]
    reports = systems_equivalent([upward_closure(project_binning_system(base, order))
                                  for order in orders], direct)
    return [list(zip(orders, r)) for r in zip(*reports)] if base.b.ndim == 2 else list(zip(orders, reports))
