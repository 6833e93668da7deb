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

# A move that lowers the objective by this or less is rounding noise, not
# progress: it is not taken and counts toward the stall limit.
IMPROVE_TOL = 1e-9


def dirichlet_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = rng.gamma(1.0, size=(rows, cols))
    g = np.maximum(g, 1e-300)
    return g / g.sum(axis=1, keepdims=True)


class Descent(NamedTuple):
    blocks: list
    value: float
    iters: int
    evals: int      # objective rows scored, the starting point included
    reason: str     # "stall" | "max_iters" | "no_improvement" | "cut"
    phase: int = 0


def _grid(lo: np.ndarray, hi, num: int) -> np.ndarray:
    """Row i is np.linspace(lo[i], hi[i], num), with linspace's rounding; ``hi`` may be a scalar."""
    g = np.arange(num) * ((hi - lo) / (num - 1))[:, None]
    g += lo[:, None]
    g[:, -1] = hi
    return g


def _apply(rows: np.ndarray, k: int, ts: np.ndarray) -> np.ndarray:
    """(A, C, n): each row of ``rows`` moved toward vertex k by each step of its row of ``ts``."""
    out = (1.0 - ts)[:, :, None] * rows[:, None, :]
    out[:, :, k] += ts
    np.maximum(out, 0.0, out=out)
    return out / out.sum(axis=2, keepdims=True)


def _descend(objective, starts, *, max_iters: int = 5000, stall_limit: int = 50,
             on_stop=None) -> list[Descent]:
    """Coordinate descent from each start (a list of blocks, the same shapes
    for every start), all restarts in lockstep; one Descent per start.

    An iteration examines one coordinate (block, row, vertex); a restart stops
    after ``stall_limit`` iterations in a row that improve by ``IMPROVE_TOL``
    or less, after ``max_iters``, or after a sweep that improves none.
    ``objective(batch, phase)`` scores row b of a batch in phase ``phase[b]``;
    restarts begin in phase 0.  ``on_stop(i, d)`` sees restart i's Descent as
    it stops and returns (again, cut): with ``again``, restart i goes on from
    d in phase d.phase + 1 at the next sweep start, with its own budget, stall
    count and rows (its Descent is its last phase); every restart from ``cut``
    (> i, or None) on ends now, with reason "cut".  Each restart's trajectory,
    phase by phase, is what it would be alone: grids are formed per restart,
    and the objective must score each batch row by itself.
    """
    blocks = [np.empty((0, *np.shape(b))) for b in starts[0]]
    # per restart descending: index, phase, first iteration, rows scored, stall count, improved
    # this sweep; one that stops leaves, and re-enters at a sweep start for a next phase
    state, value = np.empty((0, 6), dtype=int), np.empty(0)
    done, pending = [None] * len(starts), [(i, s, 0) for i, s in enumerate(starts)]
    coords = [(bi, r, k) for bi, b in enumerate(blocks)
              for r in range(b.shape[1]) for k in range(b.shape[2])]
    it, ar, deadline = 0, None, None

    def take(rows, st, val):  # new working arrays, and what depends on them alone
        nonlocal state, value, ar, deadline
        blocks[:], state, value = rows, st, val
        ar, deadline = np.arange(len(st)), min(st[:, 2], default=np.inf) + max_iters

    def retire(out, reason):
        cut = len(starts)
        for i in np.argsort(state[:, 0]):   # in restart order: a hook may cut the later ones
            (idx, phase, begin, scored), ended = state[i, :4].tolist(), bool(out[i])
            if ended or idx >= cut:
                d = done[idx] = Descent([b[i] for b in blocks], float(value[i]), it - begin, scored,
                                        reason if ended else "cut", phase)
                again, last = on_stop(idx, d) if on_stop and ended and idx < cut else (False, None)
                if again:
                    pending.append((idx, d.blocks, d.phase + 1))
                cut = cut if last is None else min(cut, last)
        pending[:] = [p for p in pending if p[0] < cut]
        keep = ~out & (state[:, 0] < cut)
        take([b[keep] for b in blocks], state[keep], value[keep])

    def score(bi, r, cand, ts):
        """Objective at the candidates of the steps |t| > 1e-15, +inf at the others: (A, C)
        values, the mask of steps kept and their count per restart."""
        keep = np.abs(ts) > 1e-15
        ai, ci = np.nonzero(keep)
        batch = [b[ai] for b in blocks]
        batch[bi][:, r] = cand[ai, ci]
        out, kept = np.full(keep.shape, np.inf), keep.sum(axis=1)
        out[ai, ci] = objective(batch, state[ai, 1])
        state[:, 3] += kept
        return out, keep, kept

    while pending or len(state):
        if pending:   # a sweep start: restarts entering a phase are scored where they stand
            new = [np.array([p[1][bi] for p in pending], dtype=float) for bi in range(len(blocks))]
            st, pending[:] = np.array([(i, ph, it, 1, 0, 0) for i, _, ph in pending]), []
            take([np.concatenate(x) for x in zip(blocks, new)], np.concatenate([state, st]),
                 np.concatenate([value, objective(new, st[:, 1]).astype(float)]))
            if max_iters <= 0:
                retire(state[:, 2] == it, "max_iters")
                continue
        state[:, 5] = 0
        for bi, r, k in coords:
            it += 1
            rows = blocks[bi][:, r]
            rk = rows[:, k]
            below = rk < 1.0
            ts = _grid(np.where(below, -rk / np.where(below, 1.0 - rk, 1.0), 0.0), 1.0, 9)
            cand = _apply(rows, k, ts)
            vals, keep, kept = score(bi, r, cand, ts)
            first, j = keep.argmax(axis=1), vals.argmin(axis=1)
            # a dropped step wins only a tie among infinities: the first kept one is the argmin
            j, lo = np.where(keep[ar, j], j, first), ts[ar, first]
            # refine around the coarse minimum; every grid ends at t = 1
            tj, step = ts[ar, j], (1.0 - lo) / np.maximum(kept - 1, 1)
            t2 = _grid(np.maximum(lo, tj - step), np.minimum(1.0, tj + step), 7)
            cand2 = _apply(rows, k, t2)
            vals2 = score(bi, r, cand2, t2)[0]
            j2 = vals2.argmin(axis=1)
            best_v, v2 = vals[ar, j], vals2[ar, j2]
            better = v2 < best_v
            best_v = np.where(better, v2, best_v)
            up = best_v < value - IMPROVE_TOL
            state[:, 4] += 1
            if up.any():
                blocks[bi][up, r] = np.where(better[:, None], cand2[ar, j2], cand[ar, j])[up]
                value[up], state[up, 4], state[up, 5] = best_v[up], 0, 1
            if state[:, 4].max() >= stall_limit:
                retire(state[:, 4] >= stall_limit, "stall")
            if it >= deadline:
                retire(it - state[:, 2] >= max_iters, "max_iters")
            if not len(state):
                break
        else:
            retire(state[:, 5] == 0, "no_improvement")
    return done


def coordinate_descent(objective, blocks, *, max_iters: int = 5000, stall_limit: int = 50):
    """``_descend`` from one start, in one phase, for a one-argument
    ``objective(batch)``; returns (blocks, value, iterations).  Kept as the
    name perfbench/tracer.py wraps at every module that binds it."""
    d = _descend(lambda batch, _: objective(batch), [blocks], max_iters=max_iters,
                 stall_limit=stall_limit)[0]
    return d.blocks, d.value, d.iters
