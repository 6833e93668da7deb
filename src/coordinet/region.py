"""Inner and outer bounds on the relay coordination rate region.

The inner bound is evaluated on couplings factored as
p(u,v,w) * p(y2|u,w) * p(y1|v,w), which carries the long Markov chain
Y2 - UW - VW - Y1 by construction; membership searches only have to
drive the (Y1,Y2)-marginal onto the target.  The outer bound is evaluated
on couplings q(y1,y2) * p(u|y1,y2) * p(v|y1,y2), each channel scored as in
Wyner's problem, with the two short chains Y2 - U - Y1 and Y2 - V - Y1
enforced by penalty.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .information import (PENALTY, POLISH_PENALTY, _support_channel, _wyner_eval,
                          mutual_information, subset_entropies)
# coordinate_descent stays bound here: perfbench/tracer.py wraps it at every module that binds it
from .optimize import _descend, coordinate_descent, dirichlet_rows  # noqa: F401
from .pmf import Alphabet, ConditionalPmf, JointPmf

# The joint entropies the inner bounds and the binning system's constants
# (fme) are linear forms of, as axis subsets of a joint over INNER_AXES.
INNER_AXES = ("U", "V", "W", "Y1", "Y2")
INNER_SUBSETS = tuple(tuple(map(INNER_AXES.index, s.split())) for s in (
    "W", "Y1 Y2", "W Y1 Y2", "U W", "V W", "U V W", "U V W Y1 Y2", "V W Y1 Y2", "U W Y1 Y2"))

# Stand-in for infinite rates inside smooth objectives; comparisons and
# reported slacks use true math.inf.
_BIG = 1e6

# What counts as a witness, and the descent budget of one restart.  The
# bounds are fixed inequality sets, so these are part of what a verdict
# means; callers trade time against the restart count instead.
TV_TOL = 1e-4           # inner: largest TV from the witness's marginal to q
MARKOV_TOL = 1e-4       # outer: largest Markov slack of a witness
MARKOV_FREE = 1e-6      # outer: Markov slack the objective leaves unpenalized
SLACK_TOL = 1e-6        # smallest minimum slack still read as feasible
OUTSIDE_MARGIN = 1e-3   # outer: a best slack below -this is "outside-heuristic"
MAX_ITERS = 3000
STALL_LIMIT = 60


@dataclass(frozen=True)
class RateTuple:
    """Link rates in bits/symbol; +inf is a first-class value."""

    rf1: float
    rb1: float
    rf2: float
    rb2: float

    def __post_init__(self):
        for name in ("rf1", "rb1", "rf2", "rb2"):
            v = float(getattr(self, name))
            if math.isnan(v) or v < 0:
                raise ValueError(f"rate {name} must be >= 0, got {v}")
            object.__setattr__(self, name, v)

    @property
    def sums(self) -> np.ndarray:
        """Rate sums matched to the four inner-bound rows:
        total, rb1+rf1, rb2+rf2, rf1+rf2."""
        return np.array([self.rb1 + self.rf1 + self.rb2 + self.rf2,
                         self.rb1 + self.rf1,
                         self.rb2 + self.rf2,
                         self.rf1 + self.rf2])


@dataclass(frozen=True)
class InnerCoupling:
    """Auxiliary coupling for the inner bound, in constructive form."""

    p_uvw: JointPmf                 # over (U, V, W)
    chan_y2: ConditionalPmf         # (U, W) -> Y2
    chan_y1: ConditionalPmf         # (V, W) -> Y1

    @property
    def caps(self) -> tuple[int, int, int]:
        return self.p_uvw.sizes

    def joint(self) -> JointPmf:
        """Induced joint over (U, V, W, Y1, Y2)."""
        t = _joint_tables(*(x.table[None] for x in (self.p_uvw, self.chan_y2, self.chan_y1)))[0]
        return JointPmf(self.p_uvw.alphabets + self.chan_y1.target + self.chan_y2.target, t)


@dataclass(frozen=True)
class OuterCoupling:
    """Auxiliary coupling for the outer bound: q with p(u|y1,y2) and p(v|y1,y2).
    Its bounds read only the (Y, U) and (Y, V) marginals, so U and V are
    taken independent given Y = (Y1, Y2)."""

    q: JointPmf                     # over (Y1, Y2)
    chan_u: ConditionalPmf          # (Y1, Y2) -> U
    chan_v: ConditionalPmf          # (Y1, Y2) -> V

    @property
    def caps(self) -> tuple[int, int]:
        return self.chan_u.target[0].size, self.chan_v.target[0].size

    def joint(self) -> JointPmf:
        """q(y1,y2) * p(u|y1,y2) * p(v|y1,y2) over (Y1, Y2, U, V)."""
        return self.q.attach(self.chan_u).attach(self.chan_v)


@dataclass
class RegionDecision:
    verdict: str                    # "inside" | "outside" | "outside-heuristic" | "inconclusive"
    witness: object | None
    best_slack: float
    restarts_used: int
    certificate: str | None = None  # the closed-form condition an "outside" point breaks


@dataclass
class SearchConfig:
    restarts: int = 10
    seed: int = 0


def _check_caps(caps, k: int) -> None:
    """Raise ValueError naming ``caps`` unless it holds ``k`` ints >= 1 (a bool is not one)."""
    if not (isinstance(caps, (tuple, list)) and len(caps) == k and all(
            isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 1 for c in caps)):
        raise ValueError(f"caps must be {k} ints >= 1, got {caps!r}")


def _batch(j: JointPmf, names: Sequence[str]) -> np.ndarray:
    """The table of ``j``, axes in the order of ``names``, as a batch of one."""
    return j.table.transpose(j.axes(names))[None]


# ---------------------------------------------------------------------------
# Closed-form certificates: rate-sum floors that every coupling obeys.

def _floor_certificate(q: JointPmf, r: RateTuple) -> tuple[str, float]:
    """The floor that ``r`` misses by the most, as (name, margin), among
    rf1+rf2 >= I(Y1;Y2) and, per link, rb+rf >= I(Y1;Y2)."""
    i_y = mutual_information(q, ("Y1",), ("Y2",))
    margins = {"rf1+rf2 >= I(Y1;Y2)": r.rf1 + r.rf2 - i_y,
               "rb1+rf1 >= I(Y1;Y2)": r.rb1 + r.rf1 - i_y,
               "rb2+rf2 >= I(Y1;Y2)": r.rb2 + r.rf2 - i_y}
    name = min(margins, key=margins.get)
    return name, margins[name]


def _mi_continuity(n1: int, n2: int, delta: float) -> float:
    """Largest change of I(Y1;Y2) between two pmfs on an n1 x n2 alphabet
    whose total-variation distance is at most ``delta``.

    TV does not grow under marginalization, so each of H(Y1), H(Y2) and
    H(Y1Y2) moves between pmfs at most delta apart.  By the Fannes-Audenaert
    bound, two pmfs on d points at TV distance T <= 1 - 1/d have entropies
    within T*log2(d-1) + h2(T), and that bound increases with T there, so
    delta <= 1/2 may stand in for T.  I = H(Y1) + H(Y2) - H(Y1Y2) then moves
    by at most delta*[log2(n1-1) + log2(n2-1) + log2(n1*n2-1)] + 3*h2(delta),
    with log2(0) read as 0 (a one-point alphabet has no entropy to move).
    Beyond delta = 1/2 no finite allowance is claimed.
    """
    if delta <= 0.0:
        return 0.0
    if delta > 0.5:
        return math.inf
    h2 = -delta * math.log2(delta) - (1.0 - delta) * math.log2(1.0 - delta)
    logs = sum(math.log2(d - 1) for d in (n1, n2, n1 * n2) if d > 1)
    return delta * logs + 3.0 * h2


# ---------------------------------------------------------------------------
# Inner bound.

def inner_rhs_from_joint(j: JointPmf) -> np.ndarray:
    """The four right-hand sides of the inner-bound inequalities, from a
    joint over (U, V, W, Y1, Y2)."""
    return _inner_bounds(subset_entropies(_batch(j, INNER_AXES), INNER_SUBSETS))[0]


def _per_table(t: np.ndarray) -> np.ndarray:
    """Each table of a (K, ...) batch divided by its sum, summed in memory
    order as a JointPmf sums its table."""
    return t / t.reshape(len(t), -1).sum(axis=1).reshape((-1,) + (1,) * (t.ndim - 1))


def _joint_tables(p: np.ndarray, c2: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """The (K, U, V, W, Y1, Y2) joints of K couplings, from (K, ...) blocks
    of their pmf tables p(u,v,w), p(y2|u,w) and p(y1|v,w): the two products
    ``JointPmf.attach`` forms, each divided by its sum as attach divides it.
    The result is a non-contiguous view not yet divided by its own sum: a
    JointPmf of it, or ``_per_table`` of a contiguous copy, divides it as
    ``reorder`` did."""
    j = _per_table(p[:, :, :, :, None] * c2[:, :, None])        # (K, U, V, W, Y2)
    return _per_table(j[..., None] * c1[:, None, :, :, None]).swapaxes(4, 5)


def _canonical_tables(q: JointPmf) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The tables p(u,v,w), p(y2|u,w), p(y1|v,w) of each canonical coupling,
    at its smallest workable sizes; each has exact target marginal."""
    n1, n2 = q.sizes
    qt = q.table
    q1 = qt.sum(axis=1)
    q2 = qt.sum(axis=0)
    e1, e2 = np.eye(n1), np.eye(n2)

    def cond(t, marg):  # rows t[w] / marg[w], uniform where marg[w] is 0
        return np.where(marg[:, None] > 0, t / np.where(marg > 0, marg, 1.0)[:, None],
                        1.0 / t.shape[1])[None]

    return {
        # constants + independent product channels (exact iff q is a product)
        "const": (np.ones((1, 1, 1)), q2.reshape(1, 1, n2), q1.reshape(1, 1, n1)),
        # W carries the full pair (y1, y2)
        "copy-w": (qt.reshape(1, 1, -1), np.tile(e2, (n1, 1))[None], np.repeat(e1, n2, axis=0)[None]),
        # W = Y1, node 2 draws Y2 from the conditional
        "w-from-y1": (q1.reshape(1, 1, n1), cond(qt, q1), e1[None]),
        # W = Y2, node 1 draws Y1 from the conditional
        "w-from-y2": (q2.reshape(1, 1, n2), e2[None], cond(qt.T, q2)),
        # U = Y2 and V = Y1 with constant W
        "uv-copy": (qt.T.reshape(n2, n1, 1), e2[:, None], e1[:, None]),
    }


COUPLING_NAMES = ("const", "copy-w", "w-from-y1", "w-from-y2", "uv-copy")  # what canonical_couplings builds


def canonical_couplings(q: JointPmf,
                        caps: tuple[int, int, int] | None = None) -> dict[str, InnerCoupling]:
    """Named reference couplings with exact target marginal, used as search
    seeds and as builtins.  Their auxiliary alphabets are padded to ``caps``
    (couplings that do not fit are left out), or take the smallest workable
    sizes when ``caps`` is None."""
    out: dict[str, InnerCoupling] = {}
    for name, tables in _canonical_tables(q).items():
        size = tables[0].shape if caps is None else caps
        blocks = _pad_inner(tables, size)
        if blocks is not None:
            out[name] = _blocks_to_coupling(blocks, size, *q.sizes)
    return out


def _inner_bounds(h: np.ndarray) -> np.ndarray:
    """(B, 4) right-hand sides total, link1, link2, forward of a batch of
    joints over INNER_AXES, from their (B, 9) entropies on INNER_SUBSETS;
    Y stands for (Y1, Y2):
    I(Y;UVW) + I(U;V|W) + I(W;Y), I(Y;VW), I(Y;UW), I(U;V|W) + I(W;Y)."""
    hw, hy, hwy, huw, hvw, huvw, hall, hvwy, huwy = h.T
    i_uv_w = huw + hvw - hw - huvw
    i_w_y = hw + hy - hwy
    return np.stack([
        hy + huvw - hall + i_uv_w + i_w_y,
        hy + hvw - hvwy,
        hy + huw - huwy,
        i_uv_w + i_w_y,
    ], axis=1)


def _inner_eval(qt: np.ndarray, caps):
    """Evaluator of inner candidates, given as blocks p(u,v,w), p(y2|u,w),
    p(y1|v,w): the (B, 4) right-hand sides of ``_inner_bounds`` and, as the
    one violation, the (B, 1) TV from each candidate's (Y1, Y2)-marginal to q."""
    nu, nv, nw = caps
    n1, n2 = qt.shape

    def evaluate(batch):
        p = batch[0].reshape(-1, nu, nv, nw)
        c2 = batch[1].reshape(-1, nu, nw, n2)
        c1 = batch[2].reshape(-1, nv, nw, n1)
        j = (p[:, :, :, :, None, None]
             * c1[:, None, :, :, :, None]
             * c2[:, :, None, :, None, :])  # (B, U, V, W, Y1, Y2)
        tv = 0.5 * np.abs(j.sum(axis=(1, 2, 3)) - qt[None]).sum(axis=(1, 2))
        return _inner_bounds(subset_entropies(j, INNER_SUBSETS)), tv[:, None]

    return evaluate


def _blocks_to_coupling(blocks, caps, n1, n2) -> InnerCoupling:
    nu, nv, nw = caps
    return InnerCoupling(
        JointPmf((Alphabet("U", nu), Alphabet("V", nv), Alphabet("W", nw)),
                 blocks[0].reshape(nu, nv, nw)),
        ConditionalPmf((Alphabet("U", nu), Alphabet("W", nw)), (Alphabet("Y2", n2),),
                       blocks[1].reshape(nu, nw, n2)),
        ConditionalPmf((Alphabet("V", nv), Alphabet("W", nw)), (Alphabet("Y1", n1),),
                       blocks[2].reshape(nv, nw, n1)),
    )


def _pad_inner(tables, caps) -> list[np.ndarray] | None:
    """The blocks of tables p(u,v,w), p(y2|u,w), p(y1|v,w) padded up to
    ``caps``: added symbols carry no mass and uniform output rows.  None
    when the tables do not fit."""
    p_uvw, y2_map, y1_map = tables
    nu, nv, nw = p_uvw.shape
    cu, cv, cw = caps
    if nu > cu or nv > cv or nw > cw:
        return None
    n1 = y1_map.shape[-1]
    n2 = y2_map.shape[-1]
    p = np.zeros((cu, cv, cw))
    p[:nu, :nv, :nw] = p_uvw
    c2 = np.full((cu, cw, n2), 1.0 / n2)
    c2[:nu, :nw] = y2_map
    c1 = np.full((cv, cw, n1), 1.0 / n1)
    c1[:nv, :nw] = y1_map
    return [p.reshape(1, cu * cv * cw), c2.reshape(cu * cw, n2), c1.reshape(cv * cw, n1)]


def _objective(evaluate, sums, free, penalties=(PENALTY,)):
    """The descent objective of a search: minus the smallest slack of the
    rate sums (capped at ``_BIG``) over the bounds, plus the penalty of the
    row's phase times the violations in excess of ``free``, summed."""
    capped = np.minimum(sums, _BIG)
    lams = np.array(penalties)

    def objective(batch, phase=0):
        b, v = evaluate(batch)
        return -(capped - b).min(axis=1) + lams[phase] * np.maximum(0.0, v - free).sum(axis=1)

    return objective


def _search(evaluate, sums, tols, starts, penalties=(PENALTY,)):
    """The first witness of membership among the starts, else among their
    descents.  ``evaluate(batch)`` gives each candidate's bounds, one per
    entry of ``sums``, and its violations; ``tols`` is (free, accept), the
    violation the objective leaves unpenalized and the most a witness may
    have.  A witness's minimum slack is >= -``SLACK_TOL``; a candidate over
    ``accept`` has slack -inf.  One evaluator call scores all starts.  With no
    witness among them, all descend in one batch at the first of ``penalties``,
    cut after an end that is a witness (an end short of one only by its
    violations goes on at the next), and one more call scores the ends.  Returns
    (found, best blocks, their slack, restarts used): the first witness, starts
    before ends, and its start's index + 1; else the best and len(starts)."""
    free, accept = tols

    def slacks(cands):  # each candidate's slack, and its minimum slack whatever its violations
        b, v = evaluate([np.array(k) for k in zip(*cands)])
        raw = (sums - b).min(axis=1)
        return np.where((v <= accept).all(axis=1), raw, -math.inf), raw

    def on_stop(i, d):  # a witness cuts later descents; an end short only by violations polishes
        (slack,), (raw,) = slacks([d.blocks])
        return (slack < -SLACK_TOL <= raw and d.phase + 1 < len(penalties),
                i + 1 if slack >= -SLACK_TOL else None)
    scores, ends = list(slacks(starts)[0]), []
    if not any(slack >= -SLACK_TOL for slack in scores):
        ends = [d.blocks for d in _descend(_objective(evaluate, sums, free, penalties), starts,
                                           max_iters=MAX_ITERS, stall_limit=STALL_LIMIT,
                                           on_stop=on_stop)]
        scores += list(slacks(ends)[0])
    best_slack, best = -math.inf, None
    for i, (slack, cand) in enumerate(zip(scores, starts + ends)):
        if slack > best_slack:
            best_slack, best = float(slack), cand
        if slack >= -SLACK_TOL:
            return True, best, best_slack, i % len(starts) + 1
    return False, best, best_slack, len(starts)


def inner_membership(q: JointPmf, r: RateTuple, caps: tuple[int, int, int] = (4, 4, 4),
                     config: SearchConfig | None = None,
                     extra_seeds: Sequence[InnerCoupling] = ()) -> RegionDecision:
    """Search for a coupling witnessing that r is achievable.

    A witness carries the chain Y2 - UW - VW - Y1 exactly, so its bounds
    obey fwd, link1, link2 >= I(Y1;Y2) of its own marginal q', which lies
    within TV ``TV_TOL`` of q.  When a floor misses I(Y1;Y2) of q by more
    than ``SLACK_TOL`` plus ``_mi_continuity(TV_TOL)``, no acceptable witness
    exists and the point is certified "outside" with no search.  Otherwise
    "inside" takes the first start that is a witness (a canonical one has
    marginal q exactly), else the first descended end that is one: its slack
    is ``best_slack``, its start's index + 1 ``restarts_used``.  The only
    other verdict is "inconclusive", with the best minimum slack seen among
    couplings whose marginal matched the target.
    """
    _check_caps(caps, 3)
    cfg = config or SearchConfig()
    if cfg.restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {cfg.restarts!r}")
    n1, n2 = q.sizes
    name, margin = _floor_certificate(q, r)
    if margin < -(SLACK_TOL + _mi_continuity(n1, n2, TV_TOL)):
        return RegionDecision("outside", None, margin, 0, name)
    rng = np.random.default_rng(cfg.seed)

    # new tables (canonical, padded seeds) get each row divided by its sum, as a pmf does
    seeds = [((c.p_uvw.table, c.chan_y2.table, c.chan_y1.table), c.caps != tuple(caps))
             for c in extra_seeds]
    starts: list[list[np.ndarray]] = []
    for tables, new in seeds + [(t, True) for t in _canonical_tables(q).values()]:
        blocks = _pad_inner(tables, caps)
        if blocks is not None:
            starts.append([b / b.sum(axis=1, keepdims=True) for b in blocks] if new else blocks)
    nu, nv, nw = caps
    while len(starts) < cfg.restarts + len(extra_seeds):
        starts.append([dirichlet_rows(rng, 1, nu * nv * nw),
                       dirichlet_rows(rng, nu * nw, n2),
                       dirichlet_rows(rng, nv * nw, n1)])

    inside, best, slack, used = _search(_inner_eval(q.table, caps), r.sums, (TV_TOL, TV_TOL), starts)
    witness = None if best is None else _blocks_to_coupling(best, caps, n1, n2)
    return RegionDecision("inside" if inside else "inconclusive", witness, slack, used)


# ---------------------------------------------------------------------------
# Outer bound.

def outer_coupling_from_inner(c: InnerCoupling,
                              caps: tuple[int, int] | None = None) -> OuterCoupling | None:
    """The outer coupling induced by an inner one: U' = (U, W), V' = (V, W),
    each without its symbols of zero mass.

    The long chain Y2 - UW - VW - Y1 gives both short chains Y2 - U' - Y1
    and Y2 - V' - Y1, so every inner witness converts to an outer witness.
    Returns None when the used support does not fit under ``caps``.
    """
    j = c.joint()
    q = j.marginal(("Y1", "Y2"))
    on = q.table.ravel() > 0
    chans = []
    for name, cap in zip("UV", caps or (on.size + 1, on.size + 1)):
        # p(aux, w, y1, y2) as rows over the support cells, columns aux * |W| + w
        t = j.marginal((name, "W", "Y1", "Y2")).table.reshape(-1, on.size).T[on]
        t = t[:, t.sum(axis=0) > 0]
        if t.shape[1] > cap:
            return None
        chans.append(_support_channel(q, name, np.pad(t / t.sum(axis=1, keepdims=True),
                                                      ((0, 0), (0, cap - t.shape[1])))))
    return OuterCoupling(q, *chans)


def _canonical_outer_channels(q: JointPmf, caps) -> list[list[np.ndarray]]:
    """Deterministic starts, U and V as maps of q's support cells: the pairs
    (cell, cell), (y2, y1), (y1, y2) and (constant, constant) that fit ``caps``."""
    cells = np.flatnonzero(q.table.ravel() > 0)
    n2 = q.sizes[1]
    cell, y1, y2, const = np.arange(len(cells)), cells // n2, cells % n2, 0 * cells
    eye_u, eye_v = np.eye(caps[0]), np.eye(caps[1])
    return [[eye_u[u], eye_v[v]] for u, v in ((cell, cell), (y2, y1), (y1, y2), (const, const))
            if u.max() < caps[0] and v.max() < caps[1]]


def _outer_eval(qt: np.ndarray):
    """Evaluator of outer candidates, given as the rows of p(u|y1,y2) and
    p(v|y1,y2) on q's support cells: the ``_wyner_eval`` terms of each channel
    make the (B, 3) bounds I(Y1Y2;V), I(Y1Y2;U), max(I(U;Y1), I(V;Y2)) and
    the (B, 2) Markov slacks I(Y1;Y2|U), I(Y1;Y2|V), clamped at 0."""
    terms = _wyner_eval(qt, np.flatnonzero(qt.ravel() > 0))

    def evaluate(batch):  # U rows, then V rows, in one call; added columns are symbols of no mass
        n, cells = batch[0].shape[:2]
        rows = np.zeros((2 * n, cells, max(b.shape[2] for b in batch)))
        rows[:n, :, :batch[0].shape[2]], rows[n:, :, :batch[1].shape[2]] = batch
        i_y, slack, i_1, i_2 = terms(rows, sides=True)
        return (np.stack([i_y[n:], i_y[:n], np.maximum(i_1[:n], i_2[n:])], axis=1),
                np.stack([slack[:n], slack[n:]], axis=1))

    return evaluate


def _outer_rows(c: OuterCoupling, q: JointPmf) -> list[np.ndarray]:
    """The rows of c's channels on the support cells of q: outer search blocks."""
    on = q.table.ravel() > 0
    return [chan.table.reshape(on.size, -1)[on] for chan in (c.chan_u, c.chan_v)]


def _outer_terms(c: OuterCoupling) -> tuple[np.ndarray, np.ndarray]:
    """The (3,) bounds and (2,) Markov slacks of one coupling."""
    bounds, slacks = _outer_eval(c.q.table)([b[None] for b in _outer_rows(c, c.q)])
    return bounds[0], slacks[0]


def outer_membership(q: JointPmf, r: RateTuple, config: SearchConfig | None = None,
                     caps: tuple[int, int] | None = None,
                     extra_seeds: Sequence[OuterCoupling] = ()) -> RegionDecision:
    """Membership in the outer region.

    "inside" requires a witness with both Markov slacks <= ``MARKOV_TOL`` and
    minimum slack >= -``SLACK_TOL``.  Before any search, the closed-form floors
    decide: the chains give I(U;Y1) >= I(Y1;Y2) - I(Y1;Y2|U), hence
    rf1+rf2 >= I(Y1;Y2), and, per link, I(Y1Y2;V) >= I(Y1;Y2) - I(Y1;Y2|V).
    A point missing a floor by more than ``MARKOV_TOL + SLACK_TOL`` is
    certified "outside".  Otherwise "inside" takes the first start that is a
    witness, else the first descended end that is one (an end short of one
    only by its Markov slacks goes on at ``POLISH_PENALTY``): its slack is
    ``best_slack``, its start's index + 1 ``restarts_used``.  "outside-heuristic"
    is declared when no restart finds a valid coupling within ``OUTSIDE_MARGIN``
    of feasibility, and global optimality is not certified.
    """
    if caps is not None:
        _check_caps(caps, 2)
    cfg = config or SearchConfig()
    if cfg.restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {cfg.restarts!r}")
    name, margin = _floor_certificate(q, r)
    if margin < -(MARKOV_TOL + SLACK_TOL):
        return RegionDecision("outside", None, margin, 0, name)
    cu, cv = caps = caps or (q.table.size + 1, q.table.size + 1)
    rng = np.random.default_rng(cfg.seed)

    # a seed's rows get zero columns up to the caps: added symbols carry no mass
    starts = [[np.pad(b, ((0, 0), (0, cap - b.shape[1])))
               for b, cap in zip(_outer_rows(c, q), caps)]
              for c in extra_seeds if c.caps[0] <= cu and c.caps[1] <= cv]
    starts += _canonical_outer_channels(q, caps)
    cells = int(np.count_nonzero(q.table))
    while len(starts) < cfg.restarts + len(extra_seeds):
        starts.append([dirichlet_rows(rng, cells, cu), dirichlet_rows(rng, cells, cv)])

    inside, best, slack, used = _search(_outer_eval(q.table), r.sums[1:],
                                        (MARKOV_FREE, MARKOV_TOL), starts,
                                        (PENALTY, POLISH_PENALTY))
    # rows off q's support are uniform, as in the common-information witness
    witness = None if best is None else OuterCoupling(
        q, _support_channel(q, "U", best[0]), _support_channel(q, "V", best[1]))
    verdict = ("inside" if inside else "outside-heuristic" if slack < -OUTSIDE_MARGIN
               else "inconclusive")
    return RegionDecision(verdict, witness, slack, used)


# ---------------------------------------------------------------------------
# Frontier tracing.

@dataclass
class FrontierPoint:
    rates: RateTuple
    inner: RegionDecision
    outer: RegionDecision


def frontier(q: JointPmf, fixed: dict[str, float], axes: tuple[str, str],
             grid: tuple[tuple[float, float, int], tuple[float, float, int]],
             caps: tuple[int, int, int] = (4, 4, 4),
             config: SearchConfig | None = None) -> list[FrontierPoint]:
    """Run both membership tests on a rectangular grid over two rate axes.

    Witnesses found at dominated grid points are reused as seeds, which
    also guarantees membership is monotone along the grid.
    """
    _check_caps(caps, 3)
    cfg = config or SearchConfig()
    names = {"rf1", "rb1", "rf2", "rb2"}
    ax1, ax2 = axes
    if set(fixed) | {ax1, ax2} != names or ax1 == ax2:
        raise ValueError(f"fixed={sorted(fixed)} and axes={axes} must cover {sorted(names)}")
    v1 = np.linspace(*grid[0][:2], grid[0][2])
    v2 = np.linspace(*grid[1][:2], grid[1][2])
    inner_wit: dict[tuple[int, int], InnerCoupling] = {}
    outer_wit: dict[tuple[int, int], OuterCoupling] = {}
    points = []
    for i, a in enumerate(v1):
        for jdx, b in enumerate(v2):
            kw = dict(fixed)
            kw[ax1] = float(a)
            kw[ax2] = float(b)
            r = RateTuple(**kw)
            seeds_i = [inner_wit[k] for k in ((i - 1, jdx), (i, jdx - 1)) if k in inner_wit]
            seeds_o = [outer_wit[k] for k in ((i - 1, jdx), (i, jdx - 1)) if k in outer_wit]
            din = inner_membership(q, r, caps, cfg, extra_seeds=seeds_i)
            if din.verdict == "inside":
                derived = outer_coupling_from_inner(din.witness)
                if derived is not None:
                    seeds_o.append(derived)
            dout = outer_membership(q, r, cfg, extra_seeds=seeds_o)
            if din.verdict == "inside":
                inner_wit[(i, jdx)] = din.witness
            if dout.verdict == "inside":
                outer_wit[(i, jdx)] = dout.witness
            points.append(FrontierPoint(r, din, dout))
    return points


def _random_blocks(rng: np.random.Generator, sizes) -> list[np.ndarray]:
    nu, nv, nw, n1, n2 = sizes
    return [dirichlet_rows(rng, 1, nu * nv * nw), dirichlet_rows(rng, nu * nw, n2),
            dirichlet_rows(rng, nv * nw, n1)]


def random_inner_coupling(rng: np.random.Generator,
                          sizes: tuple[int, int, int, int, int] = (2, 2, 2, 2, 2)) -> InnerCoupling:
    """A random coupling (Dirichlet tables); handy for property tests."""
    return _blocks_to_coupling(_random_blocks(rng, sizes), sizes[:3], *sizes[3:])


def random_inner_joints(rng: np.random.Generator, k: int) -> np.ndarray:
    """The (k, U, V, W, Y1, Y2) joints of k binary couplings drawn as k calls
    of ``random_inner_coupling`` draw them, each equal to its coupling's
    ``joint().table``, with no pmf object built."""
    p, c2, c1 = (np.stack(b).reshape(k, 2, 2, 2) for b in
                 zip(*(_random_blocks(rng, (2, 2, 2, 2, 2)) for _ in range(k))))
    # the divisions the coupling's JointPmf and ConditionalPmfs make
    c2, c1 = (c / c.sum(axis=-1, keepdims=True) for c in (c2, c1))
    return _per_table(np.ascontiguousarray(_joint_tables(_per_table(p), c2, c1)))
