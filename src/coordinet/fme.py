"""Fourier-Motzkin elimination over affine inequality systems in named
rate variables, redundancy removal, and sampling-based equivalence tests.

The headline experiment: instantiate the three binning-rate constraint
sets at a coupling, project out the three auxiliary rates, and check the
result against the four direct rate inequalities of the inner bound.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import permutations
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .information import entropy
from .pmf import JointPmf
from .region import inner_rhs_from_joint

log = logging.getLogger(__name__)

SNAP = 1e-9
MEMBER_TOL = 1e-9

RATE_VARS = ("Rt0", "Rt1", "Rt2", "Rb1", "Rb2", "Rf1", "Rf2")
PROJECTED_VARS = ("Rb1", "Rb2", "Rf1", "Rf2")
TILDE_VARS = ("Rt0", "Rt1", "Rt2")


def _snap(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return np.where(np.abs(a) < SNAP, 0.0, a)


@dataclass(frozen=True)
class LinearSystem:
    """Rows a.x <= b (strict[i] marks a.x < b), over named variables."""

    variables: tuple[str, ...]
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    strict: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        a = _snap(np.atleast_2d(np.asarray(self.a, dtype=float)))
        b = np.asarray(self.b, dtype=float).ravel()
        strict = np.asarray(self.strict, dtype=bool).ravel()
        if a.shape[0] == 0:
            a = a.reshape(0, len(self.variables))
        if a.shape[1] != len(self.variables) or len(b) != a.shape[0] or len(strict) != a.shape[0]:
            raise ValueError("inconsistent system dimensions")
        if not np.isfinite(b).all() or not np.isfinite(a).all():
            raise ValueError("coefficients and constants must be finite")
        for arr in (a, b, strict):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "strict", strict)

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

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

    def contains(self, points: np.ndarray, tol: float = MEMBER_TOL) -> np.ndarray:
        """Closure membership: strict rows are treated as their closures and
        every row is given ``tol`` of leeway."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts @ self.a.T <= self.b[None, :] + tol).all(axis=1)

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
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
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
    """Project out ``var`` by pairing its upper and lower bounding rows.

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
    b = (s.b[pos] / c[pos])[:, None] + (s.b[neg] / -c[neg])[None, :]
    strict = s.strict[pos][:, None] | s.strict[neg][None, :]
    return LinearSystem(tuple(v for v in s.variables if v != var),
                        np.vstack([np.delete(s.a[zero], col, axis=1), a]),
                        np.concatenate([s.b[zero], b.ravel()]),
                        np.concatenate([s.strict[zero], strict.ravel()]))


def simplify(s: LinearSystem) -> LinearSystem:
    """Cheap syntactic cleanup: drop trivially-true rows (0 <= c, c >= 0)
    and collapse rows with equal coefficient vectors (rounded to 12
    decimals) to one row, placed where the group first occurs.

    Tie rule: the row keeps the least constant of its group, and is strict
    when any row of the group whose constant lies within ``SNAP`` of that
    least one is strict.
    """
    trivial = ~s.a.any(axis=1) & (s.b >= np.where(s.strict, SNAP, 0.0))
    keys = np.round(s.a[~trivial], 12)
    b, strict = s.b[~trivial], s.strict[~trivial]
    _, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    group = group.ravel()   # numpy 2.0.0 returns it with shape (n, 1)
    bmin = np.full(len(first), np.inf)
    np.minimum.at(bmin, group, b)
    tight = np.zeros(len(first), dtype=bool)
    np.logical_or.at(tight, group, strict & (b - bmin[group] <= SNAP))
    order = np.argsort(first, kind="stable")
    return LinearSystem(s.variables, keys[first[order]], bmin[order], tight[order])


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
    samples_tested: int
    counterexample: np.ndarray | None
    method: str = "sampling"


def _facet_candidates(a_all: np.ndarray, b_all: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Projections of the box center onto each facet hyperplane and onto
    every pairwise facet intersection (vectorized normal equations)."""
    norms = (a_all ** 2).sum(axis=1)
    ok = norms > SNAP
    a1 = a_all[ok]
    b1 = b_all[ok]
    n1 = norms[ok]
    single = center[None, :] + ((b1 - a1 @ center) / n1)[:, None] * a1
    m = len(a1)
    if m < 2:
        return single
    ii, jj = np.triu_indices(m, k=1)
    g11 = n1[ii]
    g22 = n1[jj]
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


def systems_equivalent(sys_a: LinearSystem, sys_b: LinearSystem, box,
                       n_samples: int = 1000, seed: int = 0) -> EquivalenceReport:
    """Compare closure membership over uniform samples in ``box`` plus facet
    intersection candidates; strict rows are compared as closures."""
    if set(sys_a.variables) != set(sys_b.variables):
        raise ValueError("systems must share a variable set")
    if sys_b.variables != sys_a.variables:
        perm = [sys_b.variables.index(v) for v in sys_a.variables]
        sys_b = LinearSystem(sys_a.variables, sys_b.a[:, perm], sys_b.b, sys_b.strict)
    box = np.asarray(box, dtype=float).reshape(len(sys_a.variables), 2)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(box[:, 0], box[:, 1], size=(n_samples, len(sys_a.variables)))
    center = box.mean(axis=1)
    a_all = np.vstack([sys_a.a, sys_b.a])
    b_all = np.concatenate([sys_a.b, sys_b.b])
    if a_all.shape[0]:
        cand = _facet_candidates(a_all, b_all, center)
        inside_box = ((cand >= box[:, 0] - MEMBER_TOL) & (cand <= box[:, 1] + MEMBER_TOL)).all(axis=1)
        pts = np.vstack([pts, cand[inside_box]])
    in_a = sys_a.contains(pts)
    in_b = sys_b.contains(pts)
    diff = np.flatnonzero(in_a != in_b)
    if diff.size:
        x = pts[diff[0]]
        if bool(sys_a.contains(x[None])[0]) == bool(sys_b.contains(x[None])[0]):
            raise RuntimeError(f"{diff.size} sample points differed in batch but the first "
                               "agrees when re-checked alone; membership test is unstable")
        return EquivalenceReport(False, len(pts), x)
    return EquivalenceReport(True, len(pts), None)


# ---------------------------------------------------------------------------
# Rate-constraint systems for a coupling over (U, V, W, Y1, Y2).

def binning_constraint_system(j: JointPmf) -> LinearSystem:
    """The three strict/SW constraint families over the seven rate
    variables, instantiated with the coupling's entropies, plus
    nonnegativity rows."""
    hw = entropy(j, ("W",))
    hwv = entropy(j, ("W", "V"))
    hwu = entropy(j, ("W", "U"))
    hwvu = entropy(j, ("W", "V", "U"))
    hy = entropy(j, ("Y1", "Y2"))
    hw_y = entropy(j, ("W", "Y1", "Y2")) - hy
    hwv_y = entropy(j, ("W", "V", "Y1", "Y2")) - hy
    hwu_y = entropy(j, ("W", "U", "Y1", "Y2")) - hy
    hwvu_y = entropy(j) - hy
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
        ({"Rt0": 1}, "<", hw_y),
        ({"Rt0": 1, "Rt1": 1}, "<", hwv_y),
        ({"Rt0": 1, "Rt2": 1}, "<", hwu_y),
        ({"Rt0": 1, "Rt1": 1, "Rt2": 1}, "<", hwvu_y),
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


def project_binning_system(s: LinearSystem, order: Sequence[str] = TILDE_VARS,
                           lp_cleanup_above: int = 150) -> LinearSystem:
    """Eliminate the auxiliary binning rates in ``order`` with syntactic
    cleanup after each step (LP cleanup once a step gets large)."""
    for var in order:
        s = simplify(fme_eliminate(s, var))
        if s.nrows > lp_cleanup_above:
            s = remove_redundant(s)
    # normalize column order for downstream comparisons
    perm = [s.variables.index(v) for v in PROJECTED_VARS]
    return LinearSystem(PROJECTED_VARS, s.a[:, perm], s.b, s.strict)


def upward_closure(s: LinearSystem) -> LinearSystem:
    """The set of points dominating some nonnegative solution of ``s``:
    {x : exists y with 0 <= y <= x and y in s}, computed by eliminating an
    auxiliary copy of every variable.

    Rate regions are increasing sets (a link may carry fewer bits than its
    capacity), so this is the operational reading of a projected
    constraint system.
    """
    xv = tuple(s.variables)
    yv = tuple("_lo_" + v for v in xv)
    rows = []
    for i in range(s.nrows):
        rows.append((dict(zip(yv, s.a[i])), "<" if s.strict[i] else "<=", float(s.b[i])))
    for y, x in zip(yv, xv):
        rows.append(({y: 1.0, x: -1.0}, "<=", 0.0))
        rows.append(({y: -1.0}, "<=", 0.0))
    t = LinearSystem.from_rows(yv + xv, rows)
    for y in yv:
        t = simplify(fme_eliminate(t, y))
    perm = [t.variables.index(v) for v in xv]
    return LinearSystem(xv, t.a[:, perm], t.b, t.strict)


def projection_matches_rate_system(j: JointPmf, orders=None, n_samples: int = 1000,
                                   seed: int = 0, monotone: bool = True
                                   ) -> list[tuple[tuple[str, ...], EquivalenceReport]]:
    """For each elimination order, project the binning system and compare
    with the direct rate system on sampled points.

    With ``monotone`` (the default) the projection is closed upward before
    comparing.  The raw projection also carries upper caps on the rates
    (binning above the source entropy breaks the uniformity constraints),
    which the direct system deliberately omits because extra link capacity
    can always go unused.
    """
    direct = theorem_rate_system(j)
    base = binning_constraint_system(j)
    hi = entropy(j, ("W", "V", "U")) + 1.0
    box = [(0.0, hi)] * len(PROJECTED_VARS)
    if orders is None:
        orders = list(permutations(TILDE_VARS))
    out = []
    for order in orders:
        projected = project_binning_system(base, order)
        if monotone:
            projected = upward_closure(projected)
        rep = systems_equivalent(projected, direct, box, n_samples=n_samples, seed=seed)
        out.append((tuple(order), rep))
    return out
