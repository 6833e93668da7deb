"""Entropic quantities on joint pmfs, plus a common-information solver.

All values are in bits (log base 2) and 0*log(0) = 0 throughout.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .optimize import _descend, coordinate_descent, dirichlet_rows
from .pmf import Alphabet, ConditionalPmf, JointPmf, UnknownVariable

# The common-information solver's acceptance rule and per-restart descent
# budget; callers trade time against the restart count instead.  A Markov
# slack I(Y1;Y2|W) up to MARKOV_TARGET counts as exact; one up to
# ACCEPT_MARKOV is kept only when no exact witness is found.
MARKOV_TARGET = 1e-6
ACCEPT_MARKOV = 1e-4
POLISH_PENALTY = 5e4    # penalty for polishing restarts above MARKOV_TARGET
MAX_ITERS = 5000
STALL_LIMIT = 50
MERGE_TOL = 1e-9        # a greedy merge keeps the chain exact up to rounding noise


class OptimizerFailed(Exception):
    """No restart produced a witness with acceptable Markov slack."""


@functools.lru_cache(maxsize=256)
def _marginal_plan(shape: tuple[int, ...], subsets: tuple[tuple[int, ...], ...]):
    """For a table with non-batch ``shape``: steps ``(src, axes)`` that sum
    marginal ``src`` (0 is the table) over ``axes`` into the next one, each
    from the smallest marginal already formed that contains it; then the
    marginal of each subset and where its segment starts."""
    full = tuple(range(len(shape)))
    keyed = [tuple(sorted(set(s))) for s in subsets]
    if not keyed or any(not s or s[0] < 0 or s[-1] >= len(shape) for s in keyed):
        raise ValueError(f"subsets must be nonempty sets of axes in {full}, got {subsets}")

    def cells(s):
        return math.prod(shape[a] for a in s)

    formed, steps = [full], []
    for s in sorted(set(keyed) - {full}, key=lambda s: (-cells(s), -len(s), s)):
        src = min((i for i, f in enumerate(formed) if set(s) <= set(f)),
                  key=lambda i: cells(formed[i]))
        steps.append((src, tuple(1 + k for k, a in enumerate(formed[src]) if a not in s)))
        formed.append(s)
    offsets = np.cumsum([0] + [cells(s) for s in keyed[:-1]])
    offsets.setflags(write=False)   # cached: shared by every call
    return tuple(steps), tuple(formed.index(s) for s in keyed), offsets


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """p * log2(p) in place, with 0 * log2(0) = 0; returns p."""
    p *= np.log2(np.where(p > 0, p, 1.0))
    return p


def subset_entropies(table: np.ndarray, subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """(B, len(subsets)) entropies in bits of the marginals of a (B, *axes)
    batch of tables on subsets of the non-batch axes (0-based, any order).

    Sums run in the table's memory order, so a lone subset gives exactly
    what summing its marginal directly gives.
    """
    t = np.asarray(table, dtype=float)
    subsets = tuple(tuple(int(a) for a in s) for s in subsets)
    if not t.flags.c_contiguous:
        perm = sorted(range(1, t.ndim), key=lambda k: -t.strides[k])
        t = t.transpose(0, *perm)
        subsets = tuple(tuple(perm.index(a + 1) for a in s) for s in subsets)
    steps, picks, offsets = _marginal_plan(t.shape[1:], subsets)
    margs = [t]
    for src, axes in steps:
        margs.append(margs[src].sum(axis=axes))
    flat = _xlog2x(np.concatenate([margs[i].reshape(len(t), -1) for i in picks], axis=1))
    # reduceat adds each segment in sequence; a lone subset goes through
    # ndarray.sum, whose pairwise order is the one a direct sum uses
    return -(flat.sum(axis=1, keepdims=True) if len(picks) == 1
             else np.add.reduceat(flat, offsets, axis=1))


def entropy(p: JointPmf, vars: Sequence[str] | None = None) -> float:
    """Shannon entropy of the marginal on ``vars`` (all variables if None)."""
    if vars is not None and not vars:
        raise UnknownVariable("entropy needs a nonempty variable set")
    axes = range(p.table.ndim) if vars is None else p.axes(vars)
    return max(0.0, float(subset_entropies(p.table[None], (axes,))[0, 0]))


def conditional_entropy(p: JointPmf, left: Sequence[str], given: Sequence[str] = ()) -> float:
    if not given:
        return entropy(p, left)
    return entropy(p, tuple(left) + tuple(given)) - entropy(p, given)


def mutual_information(p: JointPmf, left: Sequence[str], right: Sequence[str],
                       given: Sequence[str] = ()) -> float:
    """I(left; right | given), clamped at 0 against rounding noise."""
    left, right, given = tuple(left), tuple(right), tuple(given)
    for a, b in ((left, right), (left, given), (right, given)):
        if set(a) & set(b):
            raise UnknownVariable(f"variable sets overlap: {set(a) & set(b)}")
    p.axes(left + right + given)
    val = conditional_entropy(p, left, given) - conditional_entropy(p, left, right + given)
    return max(0.0, val)


def markov_slack(p: JointPmf, a: Sequence[str], b: Sequence[str], c: Sequence[str]) -> float:
    """I(a; c | b): zero exactly when the chain a - b - c holds."""
    return mutual_information(p, a, c, given=b)


# ---------------------------------------------------------------------------
# Common-information solver: minimize I(Y1Y2;W) over p(w|y1,y2) subject to
# Y1 - W - Y2, by penalized multi-start coordinate search on simplex rows.

@dataclass
class WynerConfig:
    restarts: int = 64
    penalty: float = 100.0
    seed: int = 0


@dataclass
class WynerSolution:
    value: float
    witness: ConditionalPmf
    w_cardinality: int
    trace: list = field(default_factory=list)
    markov_slack: float = 0.0
    lower_bound: float = 0.0        # certified: I(Y1;Y2), or the closed form on a DSBS (Wyner 1975)


def _wyner_eval(q2: np.ndarray, support: np.ndarray):
    """I(Y1Y2;W) and I(Y1;Y2|W), each (B,), as a function of a (B, |support|, W)
    batch of conditionals p(w|y1,y2) on the flat cells ``support`` of q2; with
    ``sides``, I(W;Y1) and I(W;Y2) follow.

    One product with the q-weighted indicators of the cells gives p(w),
    p(y1,w) and p(y2,w); H(W|Y1Y2) = sum_c q_c H(r_c) comes from the rows
    and H(Y1Y2), H(Y1), H(Y2) are constants, so no (Y1, Y2, W) table is formed."""
    n1, n2 = q2.shape
    qs = q2.ravel()[support]
    # row 0 sums the cells into p(w), the next n1 rows by Y1 into p(y1,w), the rest by Y2
    weights = qs * np.vstack([np.ones(len(qs)), np.eye(n1)[support // n2].T,
                              np.eye(n2)[support % n2].T])
    h_y, h_1, h_2 = (-_xlog2x(m.copy()).sum() for m in (qs, q2.sum(axis=1), q2.sum(axis=0)))

    def terms(r, sides=False):  # the Wyner objective asks for no sides and skips their cost
        x = _xlog2x(weights @ r)
        h_w = -x[:, 0].sum(axis=1)
        h_w_given_y = -(_xlog2x(r.copy()) * qs[:, None]).sum(axis=(1, 2))
        out = (np.maximum(0.0, h_w - h_w_given_y),
               np.maximum(0.0, -x[:, 1:].sum(axis=(1, 2)) - h_w - h_y - h_w_given_y))
        return out if not sides else out + (
            np.maximum(0.0, h_w + h_1 + x[:, 1:n1 + 1].sum(axis=(1, 2))),
            np.maximum(0.0, h_w + h_2 + x[:, n1 + 1:].sum(axis=(1, 2))))
    return terms


def _support_channel(q: JointPmf, name: str, rows: np.ndarray) -> ConditionalPmf:
    """The channel from q's variables to ``name``: ``rows`` on q's support, uniform off it."""
    full = np.full((q.table.size, rows.shape[1]), 1.0 / rows.shape[1])
    full[q.table.ravel() > 0] = rows
    return ConditionalPmf(q.alphabets, (Alphabet(name, rows.shape[1]),), full)


def _greedy_merge_map(terms, ms: int) -> np.ndarray:
    """Greedy agglomeration of the ``ms`` support cells into W-bins that
    keeps Y1 _|_ Y2 | W exact, scored by a ``_wyner_eval`` ``terms``; each
    merge strictly lowers I(Y1Y2;W).  Returns the final cell -> bin map
    (good deterministic witnesses for structured sources)."""
    assign = np.arange(ms)
    while assign.max() > 0:
        bins = np.unique(assign)
        best = None
        for i, x in enumerate(bins):
            for y in bins[i + 1:]:
                trial = np.where(assign == y, x, assign)
                trial = np.unique(trial, return_inverse=True)[1]
                i_val, slack = (float(t[0]) for t in terms(np.eye(len(bins) - 1)[trial][None]))
                if slack <= MERGE_TOL and (best is None or i_val < best[0]):
                    best = (i_val, trial)
        if best is None:
            break
        assign = best[1]
    return assign


def wyner_common_information(q: JointPmf, w_cap: int | None = None,
                             config: WynerConfig | None = None) -> WynerSolution:
    """Best upper bound found for Wyner's common information of a 2-variable pmf,
    with the certified lower bound I(Y1;Y2) beside it.

    Runs local searches from the structured seeds (the merge map when it
    fits, cell copy, constant W; all of them always run, even when
    ``config.restarts`` is smaller) and Dirichlet restarts up to
    ``config.restarts`` in all, on the penalized objective I(Y1Y2;W) +
    penalty * I(Y1;Y2|W).  A restart whose conditional-independence slack
    is above ``MARKOV_TARGET`` when it stops is polished under a large penalty.
    """
    cfg = config or WynerConfig()
    if len(q.alphabets) != 2:
        raise UnknownVariable("common information is defined for a pmf over two variables")
    n1, n2 = q.sizes
    if w_cap is None:
        w_cap = n1 * n2
    if not isinstance(w_cap, (int, np.integer)) or isinstance(w_cap, bool) or w_cap < 1:
        raise ValueError(f"w_cap must be an int >= 1, got {w_cap!r}")
    if not (math.isfinite(cfg.penalty) and cfg.penalty >= 0):
        raise ValueError(f"penalty must be finite and >= 0, got {cfg.penalty!r}")
    if cfg.restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {cfg.restarts!r}")
    q2 = q.table
    support = np.flatnonzero(q2.ravel() > 0)
    ms = len(support)
    wyner = _wyner_eval(q2, support)

    lams = np.array([cfg.penalty, POLISH_PENALTY, 10.0 * POLISH_PENALTY])   # per phase

    def objective(batch, phase):
        i_joint, slack = wyner(batch[0])
        return i_joint + lams[phase] * slack

    rng = np.random.default_rng(cfg.seed)
    # deterministic W: the merge map when it fits, cell-index copy (always feasible), constant
    maps = [np.arange(ms) % w_cap, np.zeros(ms, dtype=int)]
    merged = _greedy_merge_map(wyner, ms)
    if merged.max() < w_cap:
        maps.insert(0, merged)
    starts = [np.eye(w_cap)[m] for m in maps]
    while len(starts) < cfg.restarts:
        starts.append(dirichlet_rows(rng, ms, w_cap))

    def terms(rows):  # (I(Y1Y2;W), Markov slack) of each row set, in one call
        i_val, slack = wyner(np.stack(rows))
        return list(zip(i_val.tolist(), slack.tolist()))

    def polish(i, d):  # a restart above MARKOV_TARGET after phase 0 goes on at POLISH_PENALTY
        return d.phase == 0 and terms(d.blocks)[0][1] > MARKOV_TARGET, None

    kw = dict(max_iters=MAX_ITERS, stall_limit=STALL_LIMIT)
    ends = [d.blocks[0] for d in _descend(objective, [[s] for s in starts], on_stop=polish, **kw)]
    found = terms(ends)
    trace = [(i, v if slack <= ACCEPT_MARKOV else math.inf) for i, (v, slack) in enumerate(found)]
    entries = [(v, ends[i].copy(), slack) for i, (v, slack) in enumerate(found)]
    exact = [e for e in entries if e[2] <= MARKOV_TARGET]
    loose = [e for e in entries if MARKOV_TARGET < e[2] <= ACCEPT_MARKOV]
    # the first end of least I(Y1Y2;W) of each kind
    polished, fallback = (min(es, key=lambda e: e[0], default=None) for es in (exact, loose))
    if fallback is not None and (polished is None or fallback[0] < polished[0] - 1e-9):
        # a looser witness looks better; give it one aggressive polish pass
        blocks, _, _ = coordinate_descent(lambda batch: objective(batch, 2), [fallback[1]], **kw)
        ((i_val, slack),) = terms(blocks)
        if slack <= MARKOV_TARGET and (polished is None or i_val < polished[0]):
            polished = (i_val, blocks[0].copy(), slack)
    best = polished if polished is not None else fallback
    if best is None:
        raise OptimizerFailed(f"no restart reached Markov slack <= {ACCEPT_MARKOV}")

    i_val, rows, slack = best
    witness = _support_channel(q, "W", rows)
    lower = mutual_information(q, q.names[:1], q.names[1:])
    if q2.shape == (2, 2) and q2[0, 0] == q2[1, 1] and q2[0, 1] == q2[1, 0]:
        # a doubly symmetric binary source: Wyner's closed form 1 + h(p) - 2 h(a), with
        # (1 - 2a)^2 = 1 - 2p for the crossover p (or 1 - p, its mirror, above 1/2)
        p = min(2 * q2[0, 1], 2 * q2[0, 0])
        a = (1 - math.sqrt(1 - 2 * p)) / 2
        h_p, h_a = subset_entropies(np.array([[p, 1 - p], [a, 1 - a]]), ((0,),))[:, 0]
        lower = 1 + h_p - 2 * h_a
    return WynerSolution(value=i_val, witness=witness, w_cardinality=w_cap,
                         trace=trace, markov_slack=slack, lower_bound=lower)
