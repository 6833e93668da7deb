"""Multi-start local search over blocks of simplex rows.

Parameters are lists of row-stochastic matrices.  One coordinate move
slides a single row toward one vertex of its simplex, with the step
chosen by a two-level grid line search; objectives must accept a stacked
batch of parameter sets so all step candidates are scored in one call.
Restarts run in lockstep: every restart examines the same coordinate at
the same iteration, so one call scores the candidates of all of them.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np


def dirichlet_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = rng.gamma(1.0, size=(rows, cols))
    g = np.maximum(g, 1e-300)
    return g / g.sum(axis=1, keepdims=True)


class Descent(NamedTuple):
    blocks: list
    value: float
    iters: int
    evals: int      # objective rows scored, the starting point included
    reason: str     # "stall" | "max_iters" | "no_improvement"


def _grid(lo: np.ndarray, hi: np.ndarray, num: int) -> np.ndarray:
    """Row i is np.linspace(lo[i], hi[i], num), with linspace's rounding."""
    g = np.arange(num) * ((hi - lo) / (num - 1))[:, None]
    g += lo[:, None]
    g[:, -1] = hi
    return g


def _apply(rows: np.ndarray, k: int, ts: np.ndarray) -> np.ndarray:
    """(A, C, n): each row of ``rows`` moved toward vertex k by each step of its row of ``ts``."""
    out = (1.0 - ts)[:, :, None] * rows[:, None, :]
    out[:, :, k] += ts
    np.clip(out, 0.0, None, out=out)
    return out / out.sum(axis=2, keepdims=True)


def _descend(objective, starts, *, max_iters: int = 5000, stall_limit: int = 50,
             tol: float = 1e-9) -> list[Descent]:
    """Coordinate descent from each start (a list of blocks, the same shapes
    for every start), all restarts in lockstep; one Descent per start.

    Each restart's trajectory is what it would be alone: step grids are
    formed per restart, and the objective must score each batch row by
    itself, whatever else shares the batch.
    """
    R = len(starts)
    blocks = [np.array([s[i] for s in starts], dtype=float) for i in range(len(starts[0]))]
    value = objective(blocks).astype(float)
    evals, stalled, iters = np.ones(R, dtype=int), np.zeros(R, dtype=int), np.zeros(R, dtype=int)
    reason = np.full(R, "max_iters", dtype=object)   # kept by a restart the budget stops
    act = np.arange(R if max_iters > 0 else 0)       # the restarts still descending
    coords = [(bi, r, k) for bi, b in enumerate(blocks)
              for r in range(b.shape[1]) for k in range(b.shape[2])]
    it = 0

    def score(bi, r, cand, keep):
        """Objective at the kept candidates, +inf elsewhere; (A, C)."""
        ai, ci = np.nonzero(keep)
        batch = [b[act[ai]] for b in blocks]
        batch[bi][:, r] = cand[ai, ci]
        out = np.full(keep.shape, np.inf)
        out[ai, ci] = objective(batch)
        evals[act] += keep.sum(axis=1)
        return out

    while act.size:
        improved = np.zeros(R, dtype=bool)
        for bi, r, k in coords:
            it += 1
            rows = blocks[bi][act, r]
            rk = rows[:, k]
            below = rk < 1.0
            ts = _grid(np.where(below, -rk / np.where(below, 1.0 - rk, 1.0), 0.0),
                       np.ones(act.size), 9)
            keep = np.abs(ts) > 1e-15
            cand = _apply(rows, k, ts)
            vals = score(bi, r, cand, keep)
            ar = np.arange(act.size)
            first = keep.argmax(axis=1)
            j = vals.argmin(axis=1)
            # a dropped step wins only a tie among infinities: the first kept one is the argmin
            j = np.where(keep[ar, j], j, first)
            best_v, best_row = vals[ar, j], cand[ar, j]
            # refine around the coarse minimum; every grid ends at t = 1
            step = (ts[:, -1] - ts[ar, first]) / np.maximum(keep.sum(axis=1) - 1, 1)
            t2 = _grid(np.maximum(ts[ar, first], ts[ar, j] - step),
                       np.minimum(1.0, ts[ar, j] + step), 7)
            cand2 = _apply(rows, k, t2)
            vals2 = score(bi, r, cand2, np.abs(t2) > 1e-15)
            j2 = vals2.argmin(axis=1)
            better = vals2[ar, j2] < best_v
            best_v = np.where(better, vals2[ar, j2], best_v)
            best_row = np.where(better[:, None], cand2[ar, j2], best_row)
            up = best_v < value[act] - tol
            blocks[bi][act[up], r] = best_row[up]
            value[act[up]] = best_v[up]
            stalled[act] = np.where(up, 0, stalled[act] + 1)
            improved[act[up]] = True
            iters[act] = it
            stall = stalled[act] >= stall_limit
            reason[act[stall]] = "stall"
            act = act[~stall] if it < max_iters else act[:0]
            if not act.size:
                break
        else:
            reason[act[~improved[act]]] = "no_improvement"
            act = act[improved[act]]
    return [Descent([b[i] for b in blocks], float(value[i]), int(iters[i]), int(evals[i]),
                    str(reason[i])) for i in range(R)]


def coordinate_descent(objective, blocks, *, max_iters: int = 5000,
                       stall_limit: int = 50, tol: float = 1e-9):
    """Minimize ``objective`` by cyclic coordinate line searches.

    objective(list of arrays with a leading batch axis) -> (B,) values.
    Returns (blocks, value, iterations).  One iteration is one coordinate
    (block, row, vertex) examined; the search stops when ``stall_limit``
    consecutive iterations improve by less than ``tol``, after
    ``max_iters`` iterations, or after a sweep over every coordinate
    that improves none.
    """
    d = _descend(objective, [blocks], max_iters=max_iters, stall_limit=stall_limit, tol=tol)[0]
    return d.blocks, d.value, d.iters
