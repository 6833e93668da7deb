"""The lockstep coordinate descent against the one-restart-at-a-time loop.

Every restart of ``_descend`` must follow the trajectory the sequential
oracle follows from the same start, to the last bit: the same blocks, the
same value, the same iteration count and the same number of rows scored.
"""
import numpy as np
import pytest

from coordinet import information
from coordinet.information import (MARKOV_TARGET, MAX_ITERS, PENALTY, POLISH_PENALTY,
                                   STALL_LIMIT, WynerConfig, _greedy_merge_map, _wyner_eval,
                                   wyner_common_information)
from coordinet.optimize import IMPROVE_TOL, _descend, coordinate_descent, dirichlet_rows
from coordinet.pmf import make_joint
from coordinet.region import (MARKOV_FREE, TV_TOL, RateTuple, _inner_eval, _objective,
                              _outer_eval)
from coordinet.sources import dsbs, identical_uniform, independent_bits, triple_abc

from oracles import coordinate_descent_sequential


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def assert_matches_oracle(objective, starts, **kw):
    """Run the batch, every restart in phase 0, and the oracle on each start;
    returns the batch's Descents."""
    got = _descend(lambda batch, _: objective(batch), starts, **kw)
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


def wyner_objective(q, lam):
    """The penalized Wyner objective on the rows of q's support, as the solver builds it."""
    support = np.flatnonzero(q.table.ravel() > 0)
    wyner = _wyner_eval(q.table, support)

    def objective(batch):
        i_joint, slack = wyner(batch[0])
        return i_joint + lam * slack

    return objective, len(support)


@pytest.mark.parametrize("q, w_cap", [(triple_abc(), 5), (dsbs(0.1), 4)],
                         ids=["triple-abc", "dsbs-0.1"])
def test_wyner_objective_matches_oracle(q, w_cap):
    objective, ms = wyner_objective(q, 100.0)
    rng = np.random.default_rng(4)
    starts = [[dirichlet_rows(rng, ms, w_cap)] for _ in range(4)]
    assert_matches_oracle(objective, starts, max_iters=5000, stall_limit=50)


def wyner_seeds(q, w_cap, rng):
    """The merge-map, cell-copy and constant-W starts, and two Dirichlet ones."""
    support = np.flatnonzero(q.table.ravel() > 0)
    ms = len(support)
    eye = np.eye(w_cap)
    merged = _greedy_merge_map(_wyner_eval(q.table, support), ms)
    return [[eye[merged]], [eye[np.arange(ms) % w_cap]],
            [eye[np.zeros(ms, dtype=int)]], [dirichlet_rows(rng, ms, w_cap)],
            [dirichlet_rows(rng, ms, w_cap)]]


def test_restarts_of_very_different_lengths():
    objective, _ = wyner_objective(triple_abc(), 100.0)
    starts = wyner_seeds(triple_abc(), 5, np.random.default_rng(5))
    got = assert_matches_oracle(objective, starts, max_iters=5000, stall_limit=50)
    iters = [d.iters for d in got]
    assert max(iters) > 10 * min(iters)


def test_every_stop_reason_in_one_batch():
    objective, _ = wyner_objective(triple_abc(), 100.0)
    starts = wyner_seeds(triple_abc(), 5, np.random.default_rng(5))
    got = assert_matches_oracle(objective, starts, max_iters=300, stall_limit=50)
    assert {d.reason for d in got} == {"stall", "max_iters", "no_improvement"}


def test_max_iters_cut():
    objective, ms = wyner_objective(dsbs(0.1), 100.0)
    rng = np.random.default_rng(6)
    starts = [[dirichlet_rows(rng, ms, 4)] for _ in range(3)]
    got = assert_matches_oracle(objective, starts, max_iters=37, stall_limit=50)
    assert [(d.iters, d.reason) for d in got] == [(37, "max_iters")] * 3


def test_inner_objective_matches_oracle():
    q = dsbs(0.1)
    caps = (2, 2, 2)
    objective = _objective(_inner_eval(q.table, caps), RateTuple(0.3, 0.2, 0.35, 0.15).sums, TV_TOL)
    rng = np.random.default_rng(7)
    starts = [[dirichlet_rows(rng, 1, 8), dirichlet_rows(rng, 4, 2), dirichlet_rows(rng, 4, 2)]
              for _ in range(3)]
    assert_matches_oracle(objective, starts, max_iters=400, stall_limit=60)


def test_outer_objective_matches_oracle():
    q = dsbs(0.1)
    caps = (3, 3)
    objective = _objective(_outer_eval(q.table), np.array([0.6, 0.6, 0.45]), MARKOV_FREE)
    rng = np.random.default_rng(8)
    starts = [[dirichlet_rows(rng, 4, caps[0]), dirichlet_rows(rng, 4, caps[1])]
              for _ in range(3)]
    assert_matches_oracle(objective, starts, max_iters=300, stall_limit=60)


def test_one_restart_and_the_public_entry_point():
    objective, ms = wyner_objective(dsbs(0.1), 100.0)
    start = [dirichlet_rows(np.random.default_rng(9), ms, 4)]
    (d,) = assert_matches_oracle(objective, [start], max_iters=5000, stall_limit=50)
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


def test_stall_and_max_iters_on_the_same_iteration():
    # the restart at the optimum stalls at iteration 3, when the budget stops the other one:
    # each keeps its own reason
    objective = linear(np.arange(8.0)[::-1])
    starts = [[np.eye(8)[:1]], [np.full((1, 8), 1 / 8)]]
    got = assert_matches_oracle(objective, starts, max_iters=3, stall_limit=3)
    assert [(d.iters, d.reason) for d in got] == [(3, "stall"), (3, "max_iters")]


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
    # restarts=1 still scores the merge-map, cell-copy and constant-W seeds
    sol = wyner_common_information(triple_abc(), w_cap=5, config=WynerConfig(restarts=1))
    assert [i for i, _ in sol.trace] == [0, 1, 2]
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_a_stop_hook_cuts_the_later_restarts():
    # restart 1 starts at the optimum and stops first, after a sweep with no improvement;
    # its hook cuts restart 2 there, while restart 0, before it, runs to its own end
    objective = linear(np.arange(8.0)[::-1])
    at_optimum, uniform = np.eye(8)[:1], np.full((1, 8), 1 / 8)
    stops = []

    def on_stop(i, d):
        stops.append(i)
        return False, i + 1

    got = _descend(lambda batch, _: objective(batch), [[uniform], [at_optimum], [uniform]],
                   on_stop=on_stop)
    assert [(d.iters, d.reason) for d in got] == [(16, "no_improvement"), (8, "no_improvement"),
                                                  (8, "cut")]
    assert stops == [1, 0]


def spy_wyner_descent(monkeypatch):
    """Run the solver's one descent as it is, recording the objective calls,
    the starts and every phase's Descent of each restart."""
    seen = {"calls": 0, "phases": {}}

    def spy(objective, starts, *, on_stop, **kw):
        def counted(batch, phase):
            seen["calls"] += 1
            return objective(batch, phase)

        def recorded(i, d):
            seen["phases"].setdefault(i, []).append(d)
            return on_stop(i, d)

        seen["starts"] = starts
        seen["ends"] = _descend(counted, starts, on_stop=recorded, **kw)
        return seen["ends"]

    monkeypatch.setattr(information, "_descend", spy)
    return seen


def block_product(seed, shapes):
    """A block-diagonal source: block k has weight pi_k and, inside it, independent
    Y1 and Y2 of the given shape, so C = H(block) = I(Y1;Y2)."""
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(len(shapes)))
    t = np.zeros((sum(a for a, _ in shapes), sum(b for _, b in shapes)))
    r = c = 0
    for w, (a, b) in zip(pi, shapes):
        t[r:r + a, c:c + b] = w * np.outer(rng.dirichlet(np.ones(a)), rng.dirichlet(np.ones(b)))
        r, c = r + a, c + b
    return make_joint([("Y1", len(t)), ("Y2", t.shape[1])], t)


CLOSED = {**{f"identical-uniform-{k}": identical_uniform(k) for k in (2, 3, 4)},
          "independent": independent_bits(), "triple-abc": triple_abc(),
          "blocks-2x1-1x2": block_product(0, [(2, 1), (1, 2)]),
          "blocks-2x2-1x1": block_product(1, [(2, 2), (1, 1)]),
          "blocks-1x2-2x1-1x1": block_product(2, [(1, 2), (2, 1), (1, 1)])}


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_a_start_at_the_lower_end_stops_before_any_descent(monkeypatch, name):
    q = CLOSED[name]
    seen = spy_wyner_descent(monkeypatch)
    sol = wyner_common_information(q, config=WynerConfig(restarts=12, seed=0))
    assert "starts" not in seen and seen["calls"] == 0
    assert sol.lower_bound - 1e-12 <= sol.value <= sol.lower_bound + IMPROVE_TOL
    assert sol.markov_slack <= MARKOV_TARGET
    rows = sol.witness.table.reshape(q.table.size, -1)[q.table.ravel() > 0]
    assert set(rows.ravel().tolist()) <= {0.0, 1.0}
    assert [i for i, _ in sol.trace] == [0, 1, 2]


# the first np.random.default_rng(3).dirichlet(np.ones(9)) table: its Wyner interval stays
# open, so every restart descends, and seven of them wait mid-sweep at w_cap 4
RANDOM_3X3 = make_joint([("Y1", 3), ("Y2", 3)], [
    [0.01763399431628701, 0.06245710851691908, 0.2243288580885056],
    [0.3526561384923663, 0.055057750019720686, 0.04132779975449621],
    [0.06965235473906316, 0.016444414135607658, 0.16044158193703437]])


@pytest.mark.parametrize("q, w_cap, restarts, waiting",
                         [(RANDOM_3X3, 4, 12, 7), (dsbs(0.1), 4, 16, 0)],
                         ids=["random-3x3", "dsbs-0.1"])
def test_wyner_phases_are_chained_oracle_runs(monkeypatch, q, w_cap, restarts, waiting):
    """Each restart of the solver's one descent is the oracle run at the
    search penalty, then, when its slack is above MARKOV_TARGET, a fresh
    oracle run at POLISH_PENALTY from its end: blocks, value, iterations and
    rows, phase by phase.  ``waiting`` restarts stop their first phase
    mid-sweep, and wait for the next sweep start to polish."""
    seen = spy_wyner_descent(monkeypatch)
    cfg = WynerConfig(restarts=restarts, seed=0)
    wyner_common_information(q, w_cap, cfg)
    support = np.flatnonzero(q.table.ravel() > 0)
    wyner = _wyner_eval(q.table, support)
    sweep = len(support) * w_cap
    waited = 0
    for i, start in enumerate(seen["starts"]):
        phases, blocks = seen["phases"][i], start
        for phase, lam in enumerate((PENALTY, POLISH_PENALTY)):
            objective, rows = wyner_objective(q, lam)[0], [0]

            def counted(batch):
                rows[0] += len(batch[0])
                return objective(batch)

            blocks, value, iters = coordinate_descent_sequential(
                counted, blocks, max_iters=MAX_ITERS, stall_limit=STALL_LIMIT)
            d = phases[phase]
            assert [bits(b) for b in d.blocks] == [bits(b) for b in blocks]
            assert (bits(d.value), d.iters, d.evals) == (bits(value), iters, rows[0])
            assert d.phase == phase
            if wyner(blocks[0][None])[1][0] <= MARKOV_TARGET:
                break
        assert len(phases) == phase + 1 and seen["ends"][i] is phases[-1]
        waited += len(phases) == 2 and phases[0].iters % sweep != 0
    assert waited == waiting


@pytest.mark.parametrize("q, w_cap", [(dsbs(0.1), 4), (RANDOM_3X3, 4)],
                         ids=["dsbs-0.1", "random-3x3"])
def test_an_open_interval_runs_every_restart(monkeypatch, q, w_cap):
    seen = spy_wyner_descent(monkeypatch)
    sol = wyner_common_information(q, w_cap, WynerConfig(restarts=12, seed=0))
    assert len(seen["starts"]) == 12 and seen["calls"] > 0
    assert [i for i, _ in sol.trace] == list(range(12))
    assert sol.value > sol.lower_bound + IMPROVE_TOL


def test_bench_wyner_job_objective_calls(monkeypatch):
    # triple-abc, w_cap 5, 12 restarts, seed 0: 2,548 calls when the polish waited for
    # the slowest first phase, 1,671 with each restart polishing after its own, and none
    # since the merge-map start scores I(Y1;Y2) before any descent
    seen = spy_wyner_descent(monkeypatch)
    sol = wyner_common_information(triple_abc(), 5, WynerConfig(restarts=12, seed=0))
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert seen["calls"] == 0


def test_the_fallback_polish_runs_at_ten_times_the_polish_penalty(monkeypatch):
    # with MARKOV_TARGET at 1e-9, the best end of dsbs-0.2 at w_cap 4 is a loose witness, so
    # it gets one more descent; that descent scores its start at 10 * POLISH_PENALTY
    monkeypatch.setattr(information, "MARKOV_TARGET", 1e-9)
    q = dsbs(0.2)
    wyner, seen = _wyner_eval(q.table, np.flatnonzero(q.table.ravel() > 0)), []
    descend = information.coordinate_descent

    def spy(objective, blocks, **kw):
        i_joint, slack = wyner(blocks[0][None])
        expected = i_joint + 10 * POLISH_PENALTY * slack
        seen.append(bits(objective([blocks[0][None]])) == bits(expected))
        return descend(objective, blocks, **kw)

    monkeypatch.setattr(information, "coordinate_descent", spy)
    sol = wyner_common_information(q, 4, WynerConfig(restarts=6, seed=0))
    assert seen == [True]
    assert sol.markov_slack <= 1e-9 and sol.value == pytest.approx(1.0, abs=1e-9)
