"""The lockstep coordinate descent against the one-restart-at-a-time loop.

Every restart of ``_descend`` must follow the trajectory the sequential
oracle follows from the same start, to the last bit: the same blocks, the
same value, the same iteration count and the same number of rows scored.
"""
import numpy as np
import pytest

from coordinet.information import (WynerConfig, _greedy_merge_map, _wyner_terms,
                                   wyner_common_information)
from coordinet.optimize import _descend, coordinate_descent, dirichlet_rows
from coordinet.region import RateTuple, SearchConfig, _inner_objective, _outer_objective
from coordinet.sources import dsbs, triple_abc

from oracles import coordinate_descent_sequential


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def assert_matches_oracle(objective, starts, **kw):
    """Run the batch and the oracle on each start; returns the batch's Descents."""
    got = _descend(objective, starts, **kw)
    assert len(got) == len(starts)
    for start, d in zip(starts, got):
        rows = [0]

        def counted(batch):
            rows[0] += len(batch[0])
            return objective(batch)

        blocks, value, iters = coordinate_descent_sequential(counted, start, **kw)
        assert [b.shape for b in d.blocks] == [b.shape for b in blocks]
        assert [bits(b) for b in d.blocks] == [bits(b) for b in blocks]
        assert bits(d.value) == bits(value)
        assert (d.iters, d.evals) == (iters, rows[0])
        assert d.reason in ("stall", "max_iters", "no_improvement")
    return got


def wyner_objective(q, w_cap, lam):
    """The penalized Wyner objective on the rows of q's support, as the solver builds it."""
    q2 = q.table
    support = np.flatnonzero(q2.ravel() > 0)

    def objective(batch):
        full = np.repeat(np.full((q2.size, w_cap), 1.0 / w_cap)[None], len(batch[0]), axis=0)
        full[:, support] = batch[0]
        i_joint, slack = _wyner_terms(q2, full)
        return i_joint + lam * slack

    return objective, len(support)


@pytest.mark.parametrize("q, w_cap", [(triple_abc(), 5), (dsbs(0.1), 4)],
                         ids=["triple-abc", "dsbs-0.1"])
def test_wyner_objective_matches_oracle(q, w_cap):
    objective, ms = wyner_objective(q, w_cap, 100.0)
    rng = np.random.default_rng(4)
    starts = [[dirichlet_rows(rng, ms, w_cap)] for _ in range(4)]
    assert_matches_oracle(objective, starts, max_iters=5000, stall_limit=50, tol=1e-9)


def wyner_seeds(q, w_cap, rng):
    """The merge-map, cell-copy and constant-W starts, and two Dirichlet ones."""
    support = np.flatnonzero(q.table.ravel() > 0)
    ms = len(support)
    eye = np.eye(w_cap)
    return [[eye[_greedy_merge_map(q.table, support)]], [eye[np.arange(ms) % w_cap]],
            [eye[np.zeros(ms, dtype=int)]], [dirichlet_rows(rng, ms, w_cap)],
            [dirichlet_rows(rng, ms, w_cap)]]


def test_restarts_of_very_different_lengths():
    objective, _ = wyner_objective(triple_abc(), 5, 100.0)
    starts = wyner_seeds(triple_abc(), 5, np.random.default_rng(5))
    got = assert_matches_oracle(objective, starts, max_iters=5000, stall_limit=50, tol=1e-9)
    iters = [d.iters for d in got]
    assert max(iters) > 10 * min(iters)


def test_every_stop_reason_in_one_batch():
    objective, _ = wyner_objective(triple_abc(), 5, 100.0)
    starts = wyner_seeds(triple_abc(), 5, np.random.default_rng(5))
    got = assert_matches_oracle(objective, starts, max_iters=300, stall_limit=50, tol=1e-9)
    assert {d.reason for d in got} == {"stall", "max_iters", "no_improvement"}


def test_max_iters_cut():
    objective, ms = wyner_objective(dsbs(0.1), 4, 100.0)
    rng = np.random.default_rng(6)
    starts = [[dirichlet_rows(rng, ms, 4)] for _ in range(3)]
    got = assert_matches_oracle(objective, starts, max_iters=37, stall_limit=50, tol=1e-9)
    assert [(d.iters, d.reason) for d in got] == [(37, "max_iters")] * 3


def test_inner_objective_matches_oracle():
    q = dsbs(0.1)
    caps = (2, 2, 2)
    objective = _inner_objective(q.table, RateTuple(0.3, 0.2, 0.35, 0.15).sums, caps,
                                 SearchConfig())
    rng = np.random.default_rng(7)
    starts = [[dirichlet_rows(rng, 1, 8), dirichlet_rows(rng, 4, 2), dirichlet_rows(rng, 4, 2)]
              for _ in range(3)]
    assert_matches_oracle(objective, starts, max_iters=400, stall_limit=60, tol=1e-9)


def test_outer_objective_matches_oracle():
    q = dsbs(0.1)
    caps = (3, 3)
    objective = _outer_objective(q.table, np.array([0.6, 0.6, 0.45]), caps, SearchConfig())
    rng = np.random.default_rng(8)
    starts = [[dirichlet_rows(rng, 4, 9)] for _ in range(3)]
    assert_matches_oracle(objective, starts, max_iters=300, stall_limit=60, tol=1e-9)


def test_one_restart_and_the_public_entry_point():
    objective, ms = wyner_objective(dsbs(0.1), 4, 100.0)
    start = [dirichlet_rows(np.random.default_rng(9), ms, 4)]
    (d,) = assert_matches_oracle(objective, [start], max_iters=5000, stall_limit=50, tol=1e-9)
    blocks, value, iters = coordinate_descent(objective, start)
    assert [bits(b) for b in blocks] == [bits(b) for b in d.blocks]
    assert (bits(value), iters) == (bits(d.value), d.iters)


def linear(weights):
    """-<weights, row>: its minimum over the simplex is the vertex of the largest weight."""
    return lambda batch: -(batch[0] * weights).sum(axis=(1, 2))


@pytest.mark.parametrize("start, kw, expected", [
    # at the optimum: every line search stalls
    (np.eye(8)[:1], dict(stall_limit=3), (3, "stall")),
    # at the optimum, with a stall limit longer than a sweep
    (np.eye(8)[:1], dict(stall_limit=50), (8, "no_improvement")),
    # the first coordinate jumps to the optimum, then the budget runs out
    (np.full((1, 8), 1 / 8), dict(max_iters=5), (5, "max_iters")),
    # one improving sweep, then a sweep with none
    (np.full((1, 8), 1 / 8), dict(stall_limit=50), (16, "no_improvement")),
])
def test_each_stop_reason(start, kw, expected):
    objective = linear(np.arange(8.0)[::-1])
    (d,) = assert_matches_oracle(objective, [[start]], **kw)
    assert (d.iters, d.reason) == expected
    assert d.value == -7.0


def test_coarse_grid_scoring_only_infinities():
    """Every coarse step scores +inf, so the refinement is centred on the
    first step the grid kept (t = 1/8; t = 0 is dropped), where it finds
    the only finite values."""
    def objective(batch):
        x = batch[0][:, 0, 0]
        return np.where(x == 0, 0.0, np.where((x > 0.13) & (x < 0.24), -x, np.inf))

    (d,) = assert_matches_oracle(objective, [[np.array([[0.0, 1.0]])]], stall_limit=4)
    assert 0.13 < d.blocks[0][0, 0] < 0.24


def test_no_budget_returns_the_start():
    objective = linear(np.arange(3.0))
    (d,) = assert_matches_oracle(objective, [[np.full((2, 3), 1 / 3)]], max_iters=0)
    assert (d.iters, d.evals, d.reason) == (0, 1, "max_iters")


def test_structured_wyner_seeds_always_run():
    # restarts=1 still runs the merge-map, cell-copy and constant-W seeds
    sol = wyner_common_information(triple_abc(), w_cap=5, config=WynerConfig(restarts=1))
    assert [i for i, _ in sol.trace] == [0, 1, 2]
    assert sol.value == pytest.approx(1.0, abs=1e-9)
