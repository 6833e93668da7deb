"""Inner/outer bound evaluators and membership searches."""
import itertools
import math

import numpy as np
import pytest

from coordinet import region
from coordinet.fme import binning_constraint_system
from coordinet.information import mutual_information
from coordinet.pmf import Alphabet, ConditionalPmf, JointPmf, make_joint
from coordinet.region import (OuterCoupling, RateTuple, SearchConfig, _inner_eval,
                              _mi_continuity, _objective, _outer_eval, _outer_terms, _pad_inner,
                              canonical_couplings, frontier, inner_membership,
                              inner_rhs_from_joint, outer_coupling_from_inner,
                              outer_membership, random_inner_coupling)
from coordinet.sources import dsbs, identical_uniform, independent_bits, triple_abc

from oracles import (binning_constants_direct, cond_mi_direct, coordinate_descent_sequential,
                     dsbs_wyner_witness, inner_rhs_direct, outer_bounds_direct, tv_direct)

INF = math.inf
FAST = SearchConfig(restarts=6, seed=0)
I_DSBS = 0.5310044064107188
FWD_FLOOR = "rf1+rf2 >= I(Y1;Y2)"


def channel(name, rows, n1=2, n2=2):
    """A channel (Y1, Y2) -> ``name``, one row per (y1, y2) cell."""
    rows = np.asarray(rows, dtype=float)
    return ConditionalPmf((Alphabet("Y1", n1), Alphabet("Y2", n2)),
                          (Alphabet(name, rows.shape[-1]),), rows)


def const_coupling(q):
    return canonical_couplings(q)["const"]


def copy_w_coupling(q):
    return canonical_couplings(q)["w-from-y1"]


def uv_copy_coupling(q):
    return canonical_couplings(q)["uv-copy"]


class TestRateTuple:
    def test_nonnegative(self):
        with pytest.raises(ValueError):
            RateTuple(rf1=-0.1, rb1=0, rf2=0, rb2=0)

    def test_infinite_allowed(self):
        r = RateTuple(rf1=INF, rb1=0, rf2=0, rb2=0)
        assert r.sums[3] == INF


class TestInnerRhs:
    def test_constants_independent_all_zero(self):
        q = independent_bits()
        assert np.allclose(inner_rhs_from_joint(const_coupling(q).joint()), 0.0, atol=1e-12)

    def test_copy_w_on_common_bit(self):
        q = identical_uniform(2)
        # I(W;Y1Y2) = 1 enters the total bound twice
        assert np.allclose(inner_rhs_from_joint(copy_w_coupling(q).joint()), [2.0, 1.0, 1.0, 1.0],
                           atol=1e-9)

    def test_uv_copy_forward_bound_is_mutual_information(self):
        b = inner_rhs_from_joint(uv_copy_coupling(dsbs(0.1)).joint())
        assert b[3] == pytest.approx(I_DSBS, abs=1e-9)

    def test_link_bounds_never_exceed_total(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = inner_rhs_from_joint(random_inner_coupling(rng).joint())
            assert b[1] <= b[0] + 1e-9
            assert b[2] <= b[0] + 1e-9


class TestInnerCheck:
    def test_all_infinite(self):
        q = identical_uniform(2)
        s = RateTuple(INF, INF, INF, INF).sums - inner_rhs_from_joint(copy_w_coupling(q).joint())
        assert np.all(np.isinf(s))

    def test_zero_rates_constants_independent(self):
        s = RateTuple(0, 0, 0, 0).sums - inner_rhs_from_joint(
            const_coupling(independent_bits()).joint())
        assert np.allclose(s, 0.0, atol=1e-9)

    def test_slack_pattern_copy_coupling(self):
        q = identical_uniform(2)
        s = (RateTuple(rf1=1, rb1=0, rf2=1, rb2=0).sums
             - inner_rhs_from_joint(copy_w_coupling(q).joint()))
        assert np.allclose(s, [0.0, 0.0, 0.0, 1.0], atol=1e-9)


class TestCanonicalCouplings:
    def test_exact_on_square_and_non_square_sources(self):
        q23 = make_joint([("Y1", 2), ("Y2", 3)], [[0.1, 0.2, 0.05], [0.3, 0.15, 0.2]])
        for q in (dsbs(0.1), q23):
            couplings = canonical_couplings(q)
            assert set(couplings) == {"const", "copy-w", "w-from-y1", "w-from-y2", "uv-copy"}
            for name, c in couplings.items():
                if name != "const":
                    assert c.marginal_y().tv(q) == pytest.approx(0.0, abs=1e-12), name
        # the canonical couplings seed the inner search whenever they fit the caps
        d = inner_membership(q23, RateTuple(1, 1, 1, 1), caps=(4, 4, 4),
                             config=SearchConfig(restarts=1, seed=0))
        assert d.verdict in ("inside", "inconclusive")


class TestInnerMembership:
    def test_independent_zero_rates_inside(self):
        d = inner_membership(independent_bits(), RateTuple(0, 0, 0, 0),
                             caps=(2, 2, 2), config=FAST)
        assert d.verdict == "inside"
        assert d.witness.marginal_y().tv(independent_bits()) <= 1e-4

    def test_common_bit_half_rates_with_infinite_backward(self):
        q = identical_uniform(2)
        d = inner_membership(q, RateTuple(rf1=0.5, rb1=INF, rf2=0.5, rb2=INF),
                             caps=(2, 2, 2), config=FAST)
        assert d.verdict == "inside"

    def test_common_bit_under_capacity_certified_outside(self):
        q = identical_uniform(2)
        d = inner_membership(q, RateTuple(rf1=0.4, rb1=INF, rf2=0.4, rb2=INF),
                             caps=(2, 2, 2), config=FAST)
        assert d.verdict == "outside"
        assert d.certificate == FWD_FLOOR
        assert d.best_slack < 0

    def test_inside_witness_revalidates(self):
        q = dsbs(0.1)
        d = inner_membership(q, RateTuple(rf1=1, rb1=1, rf2=1, rb2=1),
                             caps=(2, 2, 2), config=FAST)
        assert d.verdict == "inside"
        # recompute everything from the stored coupling
        assert np.min(RateTuple(1, 1, 1, 1).sums - inner_rhs_from_joint(d.witness.joint())) >= -1e-6
        assert d.witness.marginal_y().tv(q) <= 1e-4
        j = d.witness.joint()
        assert max(mutual_information(j, ("Y2",), ("V", "Y1"), given=("U", "W")),
                   mutual_information(j, ("Y1",), ("Y2", "U"), given=("V", "W"))) <= 1e-9


def sequential_search(evaluate, sums, tols, starts, penalties=(region.PENALTY,)):
    """The restart loop as it ran one restart at a time: start 1, its
    descent, start 2, ..., stopping at the first witness; a descent's end that
    misses being a witness only by its violations descends again at the next
    penalty.  Each candidate is checked alone, with the objective and witness
    test written out here."""
    free, accept = tols
    capped = np.minimum(sums, region._BIG)
    best_slack, best = -math.inf, None

    def objective(lam):
        def at(batch):
            b, v = evaluate(batch)
            return -(capped - b).min(axis=1) + lam * np.maximum(0.0, v - free).sum(axis=1)
        return at

    def slack_and_ok(blocks):
        b, v = evaluate([np.asarray(x)[None] for x in blocks])
        return float(np.min(sums - b[0])), not (v[0] > accept).any()

    def consider(blocks):
        nonlocal best_slack, best
        slack, ok = slack_and_ok(blocks)
        slack = slack if ok else -math.inf
        if slack > best_slack:
            best_slack, best = slack, blocks
        return best_slack >= -region.SLACK_TOL

    for used, start in enumerate(starts, 1):
        if consider(start):
            return True, best, best_slack, used
        blocks = start
        for lam in penalties:
            blocks, _, _ = coordinate_descent_sequential(objective(lam), blocks,
                                                         max_iters=region.MAX_ITERS,
                                                         stall_limit=region.STALL_LIMIT)
            slack, ok = slack_and_ok(blocks)
            if ok or slack < -region.SLACK_TOL:
                break
        if consider(blocks):
            return True, best, best_slack, used
    return False, best, best_slack, len(starts)


class TestRestartOrder:
    """Batched restarts give the decision the one-at-a-time loop gives."""

    @pytest.mark.parametrize("seed, rates", [
        (3, (0.45, 0.88, 0.82, 0.78)),    # inner: inside at the second restart
        (6, (0.64, 0.8, 0.28, 0.82)),     # inner: inside at the fourth restart
        (0, (0.74, 0.75, 0.51, 0.33)),    # every restart used, by both searches
    ])
    def test_decisions_match_the_sequential_loop(self, monkeypatch, seed, rates):
        q, r = dsbs(0.1), RateTuple(*rates)
        cfg = SearchConfig(restarts=3, seed=seed)
        monkeypatch.setattr(region, "MAX_ITERS", 400)

        def both():
            return (inner_membership(q, r, (2, 2, 2), cfg),
                    outer_membership(q, r, cfg, caps=(3, 3)))

        batched = both()
        monkeypatch.setattr(region, "_search", sequential_search)
        for got, want in zip(batched, both()):
            assert (got.verdict, got.restarts_used) == (want.verdict, want.restarts_used)
            assert np.float64(got.best_slack).tobytes() == np.float64(want.best_slack).tobytes()
            assert got.witness.joint().table.tobytes() == want.witness.joint().table.tobytes()

    def test_an_end_short_only_by_its_markov_slack_is_polished(self, monkeypatch):
        # at the penalty of the search, the descents from the constant and the random
        # start end with slack > 0 and a Markov slack just above MARKOV_TOL; at the
        # polish penalty the first of them is a witness
        q = make_joint([("Y1", 2), ("Y2", 3)],
                       np.random.default_rng(14).dirichlet(np.ones(6)).reshape(2, 3))
        r = RateTuple(0.8329578281868744, 0.9531246181240335,
                      0.3308446412995356, 1.0607986035784231)
        cfg = SearchConfig(restarts=4, seed=1)
        monkeypatch.setattr(region, "MAX_ITERS", 400)
        phases, descend = [], region._descend

        def spy(objective, starts, **kw):
            ends = descend(objective, starts, **kw)
            phases.extend(d.phase for d in ends)
            return ends

        monkeypatch.setattr(region, "_descend", spy)
        got = outer_membership(q, r, cfg, caps=(3, 3))
        assert (got.verdict, got.restarts_used, phases) == ("inside", 3, [0, 0, 1, 1])
        assert max(_outer_terms(got.witness)[1]) <= region.MARKOV_TOL
        monkeypatch.setattr(region, "_search", sequential_search)
        want = outer_membership(q, r, cfg, caps=(3, 3))
        assert (got.verdict, got.restarts_used) == (want.verdict, want.restarts_used)
        assert np.float64(got.best_slack).tobytes() == np.float64(want.best_slack).tobytes()
        assert got.witness.joint().table.tobytes() == want.witness.joint().table.tobytes()

    def test_later_descents_stop_once_an_earlier_end_is_a_witness(self, monkeypatch):
        """On this grid the later restarts of a batch once descended to their ends
        after an earlier end was a witness (20,883 rows scored); they are cut
        now, and every decision stays the one-at-a-time loop's."""
        monkeypatch.setattr(region, "MAX_ITERS", 600)
        rows, descend = [0], region._descend

        def counted(objective, starts, **kw):
            def scored(batch, phase):
                rows[0] += len(batch[0])
                return objective(batch, phase)
            return descend(scored, starts, **kw)

        def grid():
            return frontier(triple_abc(), {"rf1": 0.6, "rf2": 0.6}, ("rb1", "rb2"),
                            ((0.0, 0.6, 3), (0.0, 0.6, 3)), caps=(2, 2, 2),
                            config=SearchConfig(restarts=4, seed=1))

        monkeypatch.setattr(region, "_descend", counted)
        batched = grid()
        assert 0 < rows[0] < 20883
        monkeypatch.setattr(region, "_search", sequential_search)
        for got, want in zip(batched, grid()):
            for g, w in ((got.inner, want.inner), (got.outer, want.outer)):
                assert (g.verdict, g.restarts_used) == (w.verdict, w.restarts_used)
                assert np.float64(g.best_slack).tobytes() == np.float64(w.best_slack).tobytes()
                assert (g.witness is None) == (w.witness is None)
                if g.witness is not None:
                    assert g.witness.joint().table.tobytes() == w.witness.joint().table.tobytes()

    def test_a_start_that_witnesses_membership_is_not_descended(self, monkeypatch):
        descended = []

        def spy(objective, starts, **kw):
            descended.append(len(starts))
            return descend(objective, starts, **kw)

        descend = region._descend
        monkeypatch.setattr(region, "_descend", spy)
        d = inner_membership(independent_bits(), RateTuple(0, 0, 0, 0), (2, 2, 2), FAST)
        assert (d.verdict, d.restarts_used, descended) == ("inside", 1, [])
        # the second start is a witness: only the first one descends
        d = inner_membership(dsbs(0.1), RateTuple(1, 1, 1, 1), (2, 2, 2), FAST)
        assert (d.verdict, d.restarts_used, descended) == ("inside", 2, [1])


class TestOneEvaluationPerCandidate:
    """A search scores all its starts in one evaluator call and its
    descended ends in one more, and builds pmf objects only for the
    candidate it returns."""

    @staticmethod
    def spy_eval(monkeypatch, name):
        """The batch sizes scored by the evaluators ``region.<name>`` makes."""
        sizes, make = [], getattr(region, name)

        def made(*args):
            evaluate = make(*args)
            return lambda batch: sizes.append(len(batch[0])) or evaluate(batch)

        monkeypatch.setattr(region, name, made)
        return sizes

    @staticmethod
    def built(run):
        """run() and the JointPmf and ConditionalPmf objects built while it runs."""
        counts = {JointPmf: 0, ConditionalPmf: 0}
        with pytest.MonkeyPatch.context() as mp:
            for cls in counts:
                def post_init(self, cls=cls, init=cls.__post_init__):
                    counts[cls] += 1
                    init(self)
                mp.setattr(cls, "__post_init__", post_init)
            result = run()
        return result, counts[JointPmf], counts[ConditionalPmf]

    def test_outer_starts_are_scored_in_one_call(self, monkeypatch):
        sizes = self.spy_eval(monkeypatch, "_outer_eval")
        # every rate infinite: the first start, the cell copy, is a witness
        d = outer_membership(dsbs(0.1), RateTuple(INF, INF, INF, INF), FAST)
        assert (d.verdict, d.restarts_used) == ("inside", 1)
        assert sizes == [FAST.restarts]

    def test_inner_starts_are_scored_in_one_call(self, monkeypatch):
        sizes = self.spy_eval(monkeypatch, "_inner_eval")
        d = inner_membership(independent_bits(), RateTuple(0, 0, 0, 0), (2, 2, 2), FAST)
        assert (d.verdict, d.restarts_used) == ("inside", 1)
        assert sizes == [FAST.restarts]

    def test_descended_ends_are_scored_in_one_call(self, monkeypatch):
        monkeypatch.setattr(region, "MAX_ITERS", 40)
        descents = []
        descend = region._descend
        monkeypatch.setattr(region, "_descend", lambda objective, starts, **kw:
                            descents.append(len(starts)) or descend(objective, starts, **kw))
        sizes = self.spy_eval(monkeypatch, "_inner_eval")
        d = inner_membership(dsbs(0.1), RateTuple(0.74, 0.75, 0.51, 0.33), (2, 2, 2),
                             SearchConfig(restarts=3, seed=0))
        # the four canonical starts at once, the descent's own calls, every end at once
        assert (d.verdict, d.restarts_used, descents) == ("inconclusive", 4, [4])
        assert (sizes[0], sizes[-1]) == (4, 4)

    @pytest.mark.parametrize("which", ["inner", "outer"])
    def test_pmf_objects_only_for_the_answer(self, monkeypatch, which):
        monkeypatch.setattr(region, "MAX_ITERS", 40)
        q, r, cfg = dsbs(0.1), RateTuple(0.74, 0.75, 0.51, 0.33), SearchConfig(restarts=3, seed=0)
        _, floor_joints, _ = self.built(lambda: region._floor_certificate(q, r))
        if which == "inner":
            d, joints, channels = self.built(lambda: inner_membership(q, r, (2, 2, 2), cfg))
            assert (joints - floor_joints, channels) == (1, 2)
        else:
            d, joints, channels = self.built(lambda: outer_membership(q, r, cfg, caps=(3, 3)))
            assert (joints - floor_joints, channels) == (0, 2)
        assert d.restarts_used >= 3 and d.witness is not None


class TestOuterSlack:
    def test_all_rates_infinite(self):
        q = identical_uniform(2)
        c = OuterCoupling(q, channel("U", np.eye(2)[[0, 0, 1, 1]]),   # U = Y1
                          channel("V", np.eye(2)[[0, 1, 0, 1]]))      # V = Y2
        assert np.min(RateTuple(INF, INF, INF, INF).sums[1:] - _outer_terms(c)[0]) == INF

    def test_copy_everything_deficit(self):
        # U = V = Y1 = Y2 fair bit; rb1 + rf1 = 0.5 misses I(Y1Y2;V) = 1 by half
        q = identical_uniform(2)
        copy_y1 = np.eye(2)[[0, 0, 1, 1]]  # the off-diagonal rows are zero-mass
        c = OuterCoupling(q, channel("U", copy_y1), channel("V", copy_y1))
        s = np.min(RateTuple(rf1=0.25, rb1=0.25, rf2=INF, rb2=INF).sums[1:] - _outer_terms(c)[0])
        assert s == pytest.approx(-0.5, abs=1e-9)

    def test_constants_on_independent(self):
        q = independent_bits()
        c = OuterCoupling(q, channel("U", np.ones((4, 1))), channel("V", np.ones((4, 1))))
        assert max(_outer_terms(c)[1]) <= 1e-12
        s = np.min(RateTuple(0, 0, 0, 0).sums[1:] - _outer_terms(c)[0])
        assert s == pytest.approx(0.0, abs=1e-9)


class TestOuterMembership:
    def test_all_infinite_inside(self):
        d = outer_membership(identical_uniform(2), RateTuple(INF, INF, INF, INF), config=FAST)
        assert d.verdict == "inside"
        for chan in (d.witness.chan_u, d.witness.chan_v):   # uniform off the support
            off = chan.table.reshape(4, -1)[[1, 2]]
            assert np.all(off == 1.0 / off.shape[1])

    def test_common_bit_forward_deficit_outside(self):
        d = outer_membership(identical_uniform(2),
                             RateTuple(rf1=0.4, rb1=INF, rf2=0.4, rb2=INF), config=FAST)
        assert d.verdict == "outside"
        assert d.certificate == FWD_FLOOR

    def test_dsbs_sum_rate_floor(self):
        # rb2 + rf2 below I(Y1;Y2) cannot be fixed by any chain coupling
        q = dsbs(0.1)
        r = RateTuple(rf1=INF, rb1=0.0, rf2=I_DSBS - 0.1, rb2=0.0)
        d = outer_membership(q, r, config=FAST)
        assert d.verdict == "outside"
        assert d.certificate == "rb2+rf2 >= I(Y1;Y2)"

    def test_inside_witness_revalidates(self):
        q = dsbs(0.1)
        d = outer_membership(q, RateTuple(1.5, 1.5, 1.5, 1.5), config=FAST)
        assert d.verdict == "inside"
        assert max(_outer_terms(d.witness)[1]) <= 1e-4
        assert np.min(RateTuple(1.5, 1.5, 1.5, 1.5).sums[1:] - _outer_terms(d.witness)[0]) >= -1e-6

    @pytest.mark.parametrize("p, rb, rf", [(0.2, (0.2, 0.1), (0.7, 0.7)),
                                           (0.2, (0.2, 0.1), (0.9, 0.7)),
                                           (0.1, (0.0, 0.0), (0.95, 0.95)),
                                           (0.1, (0.0, 0.0), (1.1, 0.95))])
    def test_dsbs_common_bit_seed_is_a_witness(self, p, rb, rf):
        # U = V = W, the common bit of Wyner's DSBS witness: the links need C and the
        # forward sum I(W;Y1); searched alone, these points once read outside-heuristic
        c_dsbs, witness = dsbs_wyner_witness(p)
        q = dsbs(p)
        i_w_y1 = cond_mi_direct(q.table[:, :, None] * witness, (2,), (0,), ())
        r = RateTuple(rf1=rf[0], rb1=rb[0], rf2=rf[1], rb2=rb[1])
        seed = OuterCoupling(q, channel("U", witness.reshape(4, 2)),
                             channel("V", witness.reshape(4, 2)))
        d = outer_membership(q, r, SearchConfig(restarts=0, seed=0), extra_seeds=[seed])
        margin = min(r.rb1 + r.rf1 - c_dsbs, r.rb2 + r.rf2 - c_dsbs, r.rf1 + r.rf2 - i_w_y1)
        assert (d.verdict, d.restarts_used) == ("inside", 1)
        assert d.best_slack == pytest.approx(margin, abs=1e-9)
        assert margin > 0.07


class TestMonotonicityAndNesting:
    def test_witness_reuse_guarantees_monotonicity(self):
        q = dsbs(0.1)
        r0 = RateTuple(rf1=0.6, rb1=0.6, rf2=0.6, rb2=0.6)
        d0 = inner_membership(q, r0, caps=(2, 2, 2), config=FAST)
        assert d0.verdict == "inside"
        r1 = RateTuple(rf1=0.7, rb1=0.6, rf2=0.9, rb2=0.6)
        d1 = inner_membership(q, r1, caps=(2, 2, 2),
                              config=SearchConfig(restarts=0, seed=0),
                              extra_seeds=[d0.witness])
        assert d1.verdict == "inside"

    def test_no_inner_inside_that_outer_rejects(self):
        rng = np.random.default_rng(12)
        cfg = SearchConfig(restarts=4, seed=5)
        for _ in range(6):
            t = rng.gamma(1.0, size=(2, 2))
            q = make_joint([("Y1", 2), ("Y2", 2)], t / t.sum())
            rates = RateTuple(*rng.uniform(0, 1.5, size=4))
            din = inner_membership(q, rates, caps=(2, 2, 2), config=cfg)
            if din.verdict == "inside":
                dout = outer_membership(q, rates, config=cfg)
                assert dout.verdict not in ("outside", "outside-heuristic"), (q.table, rates)


def _outer_bounds(c):
    """The three outer-bound right-hand sides of a coupling: link 1, link 2,
    forward."""
    j = c.joint()
    y = ("Y1", "Y2")
    return (mutual_information(j, y, ("V",)), mutual_information(j, y, ("U",)),
            max(mutual_information(j, ("U",), ("Y1",)), mutual_information(j, ("V",), ("Y2",))))


def _random_target(rng, n1, n2, sparsity=0.0):
    t = rng.gamma(1.0, size=(n1, n2)) * (rng.random((n1, n2)) >= sparsity)
    t[0, 0] += 1e-3
    return make_joint([("Y1", n1), ("Y2", n2)], t / t.sum())


class TestCertificates:
    """Closed-form floors decide a point before any search; they must never
    rule out a coupling the search itself would accept."""

    def test_certified_decisions_skip_the_search(self):
        q = dsbs(0.1)
        r = RateTuple(rf1=0.2, rb1=INF, rf2=0.2, rb2=INF)
        for d in (inner_membership(q, r, caps=(2, 2, 2), config=FAST),
                  outer_membership(q, r, config=FAST)):
            assert d.verdict == "outside"
            assert d.restarts_used == 0 and d.witness is None
            assert d.certificate == FWD_FLOOR
            assert d.best_slack == pytest.approx(0.4 - I_DSBS, abs=1e-12)

    def test_search_verdicts_carry_no_certificate(self):
        q = dsbs(0.1)
        d = outer_membership(q, RateTuple(1.5, 1.5, 1.5, 1.5), config=FAST)
        assert d.verdict == "inside" and d.certificate is None

    def test_outer_never_rules_out_an_exact_chain_coupling(self):
        rng = np.random.default_rng(31)
        cfg = SearchConfig(restarts=0, seed=0)
        couplings = [outer_coupling_from_inner(random_inner_coupling(rng)) for _ in range(12)]
        for q in (identical_uniform(2), dsbs(0.1), _random_target(rng, 2, 2, 0.4),
                  _random_target(rng, 3, 3, 0.5)):
            # the canonical couplings put a floor exactly at I(Y1;Y2)
            couplings += [outer_coupling_from_inner(c) for c in canonical_couplings(q).values()]
        for oc in couplings:
            b1, b2, b3 = _outer_bounds(oc)
            for split in (0.0, rng.uniform(), 1.0):
                rf1 = split * b3
                r = RateTuple(rf1=rf1, rb1=max(0.0, b1 - rf1), rf2=b3 - rf1,
                              rb2=max(0.0, b2 - (b3 - rf1)))
                d = outer_membership(oc.q, r, config=cfg, extra_seeds=[oc])
                assert d.verdict == "inside", (oc.q.table, r, d)

    def test_inner_conversion_keeps_only_symbols_with_mass(self):
        # padded to caps (4, 4, 4), U' = (U, W) and V' = (V, W) have 16 symbols each,
        # of which the coupling uses 1 or 2
        q = dsbs(0.1)
        for name, caps in (("const", (1, 1)), ("uv-copy", (2, 2)), ("w-from-y1", (2, 2))):
            c = canonical_couplings(q, caps=(4, 4, 4))[name]
            oc = outer_coupling_from_inner(c, caps)
            assert oc.caps == caps and max(_outer_terms(oc)[1]) <= 1e-12
            assert np.abs(oc.joint().marginal(("Y1", "Y2")).table
                          - c.marginal_y().table).max() <= 1e-15
        assert outer_coupling_from_inner(c, (2, 1)) is None

    def test_outer_never_rules_out_a_coupling_within_markov_tol(self):
        # U and V are noisy copies of Y2 and Y1: each chain holds only up to
        # I(Y1;Y2|U) > 0, so the coupling's own forward bound lies below I(Y1;Y2)
        q = dsbs(0.1)
        cfg = SearchConfig(restarts=0, seed=0)
        for eps in (1e-6, 1e-5, 2e-5):
            flip = np.array([[1 - eps, eps], [eps, 1 - eps]])
            oc = OuterCoupling(q, channel("U", flip[[0, 1, 0, 1]]),   # U a noisy Y2
                               channel("V", flip[[0, 0, 1, 1]]))      # V a noisy Y1
            assert 0.0 < max(_outer_terms(oc)[1]) <= region.MARKOV_TOL
            b1, b2, b3 = _outer_bounds(oc)
            assert b3 < I_DSBS
            r = RateTuple(rf1=b3 / 2, rb1=b1 - b3 / 2, rf2=b3 / 2, rb2=b2 - b3 / 2)
            d = outer_membership(q, r, config=cfg, extra_seeds=[oc])
            assert d.verdict == "inside", (eps, d)

    def test_inner_never_rules_out_a_coupling_within_tv_tol(self):
        rng = np.random.default_rng(32)
        cfg = SearchConfig(restarts=0, seed=0)
        for trial in range(12):
            n1 = n2 = 2 + trial % 2
            qp = _random_target(rng, n1, n2, 0.3 if trial % 3 == 0 else 0.0)
            lam = 0.999 * region.TV_TOL   # TV(q, q') <= lam: q leans toward more I(Y1;Y2)
            q = max((make_joint([("Y1", n1), ("Y2", n2)],
                                (1.0 - lam) * qp.table + lam * np.eye(n1)[list(perm)] / n1)
                     for perm in itertools.permutations(range(n1))),
                    key=lambda m: mutual_information(m, ["Y1"], ["Y2"]))
            assert mutual_information(q, ["Y1"], ["Y2"]) > mutual_information(qp, ["Y1"], ["Y2"])
            for name in ("uv-copy", "w-from-y1", "copy-w"):
                c = canonical_couplings(qp)[name]
                assert c.marginal_y().tv(q) <= region.TV_TOL
                b_total, b_link1, b_link2, b_fwd = inner_rhs_from_joint(c.joint())
                rf1 = rng.uniform() * b_fwd
                rf2 = b_fwd - rf1
                rb1 = max(0.0, b_link1 - rf1)
                rb2 = max(0.0, b_link2 - rf2) + max(0.0, b_total - b_link1 - b_link2)
                r = RateTuple(rf1=rf1, rb1=rb1, rf2=rf2, rb2=rb2)
                d = inner_membership(q, r, caps=c.caps, config=cfg, extra_seeds=[c])
                assert d.verdict == "inside", (trial, name, d)

    def test_mi_continuity_bounds_the_change_of_mutual_information(self):
        rng = np.random.default_rng(33)
        assert _mi_continuity(2, 2, 1e-4) == pytest.approx(4.5776e-3, abs=1e-6)
        for delta in (1e-4, 1e-2, 0.2):
            for _ in range(40):
                n1, n2 = int(rng.integers(1, 4)), int(rng.integers(2, 4))
                a = _random_target(rng, n1, n2, 0.3)
                other = rng.dirichlet(np.ones(n1 * n2)).reshape(n1, n2)
                tv = 0.5 * float(np.abs(other - a.table).sum())
                lam = min(1.0, delta / tv) if tv > 0 else 0.0
                b = make_joint([("Y1", n1), ("Y2", n2)], (1 - lam) * a.table + lam * other)
                gap = abs(mutual_information(a, ["Y1"], ["Y2"]) - mutual_information(b, ["Y1"], ["Y2"]))
                assert gap <= _mi_continuity(n1, n2, delta) + 1e-12


class TestBatchedObjectives:
    """One evaluator per bound serves the batched search objective, the
    witness test and the scalar checks; each value must equal the
    plain-loop oracle of its formula."""

    def test_inner_objective_matches_oracle(self):
        rng = np.random.default_rng(11)
        caps = (2, 3, 2)
        for _ in range(8):
            q = make_joint([("Y1", 2), ("Y2", 3)], rng.dirichlet(np.ones(6)))
            r = RateTuple(*rng.uniform(0.0, 2.0, size=4))
            coups = [random_inner_coupling(rng, (*caps, 2, 3)) for _ in range(4)]
            blocks = [_pad_inner((c.p_uvw.table, c.chan_y2.table, c.chan_y1.table), caps)
                      for c in coups]
            batch = [np.stack([b[k] for b in blocks]) for k in range(3)]
            evaluate = _inner_eval(q.table, caps)
            bounds, tvs = evaluate(batch)
            vals = _objective(evaluate, r.sums, region.TV_TOL)(batch)
            for c, b_row, tv_row, v in zip(coups, bounds, tvs, vals):
                j = c.joint().table
                rhs = inner_rhs_direct(j)
                assert inner_rhs_from_joint(c.joint()) == pytest.approx(rhs, abs=1e-12)
                assert b_row == pytest.approx(rhs, abs=1e-12)
                tv = tv_direct(j.sum(axis=(0, 1, 2)), q.table)
                assert tv_row == pytest.approx([tv], abs=1e-12)
                ref = (-min(s - b for s, b in zip(r.sums, rhs))
                       + region.PENALTY * max(0.0, tv - region.TV_TOL))
                assert v == pytest.approx(ref, abs=1e-10)

    def test_outer_objective_matches_oracle(self):
        """The two-channel evaluator against the plain-sum formulas on
        q(y1,y2) p(u|y1,y2) p(v|y1,y2), with cells of q off the support."""
        rng = np.random.default_rng(12)
        n1, n2, cu, cv = 2, 3, 3, 2
        for trial in range(9):
            t = rng.dirichlet(np.ones(n1 * n2))
            t[rng.permutation(n1 * n2)[:trial % 3]] = 0.0   # up to two cells off the support
            q = make_joint([("Y1", n1), ("Y2", n2)], (t / t.sum()).reshape(n1, n2))
            on = q.table.ravel() > 0
            r = RateTuple(*rng.uniform(0.0, 2.0, size=4))
            sums3 = [r.rb1 + r.rf1, r.rb2 + r.rf2, r.rf1 + r.rf2]
            us = rng.dirichlet(np.ones(cu), size=(4, n1 * n2))
            vs = rng.dirichlet(np.ones(cv), size=(4, n1 * n2))
            us[0] = np.eye(cu)[np.arange(n1 * n2) % cu]         # deterministic U, V
            vs[0] = np.eye(cv)[np.arange(n1 * n2) % cv]
            batch = [us[:, on], vs[:, on]]
            evaluate = _outer_eval(q.table)
            bounds_b, slacks_b = evaluate(batch)
            vals = _objective(evaluate, np.array(sums3), region.MARKOV_FREE)(batch)
            for u, v, b_row, m_row, val in zip(us, vs, bounds_b, slacks_b, vals):
                c = OuterCoupling(q, channel("U", u, n1, n2), channel("V", v, n1, n2))
                j = (q.table[:, :, None, None] * u.reshape(n1, n2, cu, 1)
                     * v.reshape(n1, n2, 1, cv))
                assert np.abs(c.joint().table - j).max() <= 1e-15
                bounds, slacks = outer_bounds_direct(j)
                slack = min(s - b for s, b in zip(sums3, bounds))
                got = np.min(r.sums[1:] - _outer_terms(c)[0])
                assert got == pytest.approx(slack, abs=1e-12)
                assert _outer_terms(c)[1] == pytest.approx(slacks, abs=1e-12)
                assert b_row == pytest.approx(bounds, abs=1e-12)
                assert m_row == pytest.approx(slacks, abs=1e-12)
                pen = sum(max(0.0, m - 1e-6) for m in slacks)
                assert val == pytest.approx(-slack + region.PENALTY * pen, abs=1e-10)

    def test_binning_constants_match_oracle(self):
        rng = np.random.default_rng(13)
        for sizes in [(2, 2, 2, 2, 2), (2, 3, 2, 2, 3), (3, 2, 1, 3, 2)]:
            j = random_inner_coupling(rng, sizes).joint()
            s = binning_constraint_system(j)
            assert s.b[:12] == pytest.approx(binning_constants_direct(j.table), abs=1e-12)


class TestFrontier:
    def test_independent_grid_all_inside(self):
        pts = frontier(independent_bits(), {"rb1": 0.0, "rb2": 0.0}, ("rf1", "rf2"),
                       ((0.0, 1.0, 3), (0.0, 1.0, 3)), caps=(2, 2, 2),
                       config=SearchConfig(restarts=4, seed=0))
        assert all(p.inner.verdict == "inside" for p in pts)
        assert all(p.outer.verdict == "inside" for p in pts)

    def test_common_bit_frontier_hugs_unit_sum(self):
        q = identical_uniform(2)
        pts = frontier(q, {"rb1": INF, "rb2": INF}, ("rf1", "rf2"),
                       ((0.0, 1.25, 6), (0.0, 1.25, 6)), caps=(2, 2, 2),
                       config=SearchConfig(restarts=4, seed=0))
        step = 0.25
        for p in pts:
            s = p.rates.rf1 + p.rates.rf2
            if s >= 1.0 - 1e-9:
                assert p.inner.verdict == "inside"
                assert p.outer.verdict == "inside"
            elif s <= 1.0 - step - 1e-9:
                assert (p.inner.verdict, p.inner.certificate) == ("outside", FWD_FLOOR)
                assert (p.outer.verdict, p.outer.certificate) == ("outside", FWD_FLOOR)

    def test_zero_backward_needs_full_bit_each(self):
        q = identical_uniform(2)
        pts = frontier(q, {"rb1": 0.0, "rb2": 0.0}, ("rf1", "rf2"),
                       ((0.5, 1.0, 2), (0.5, 1.0, 2)), caps=(2, 2, 4),
                       config=SearchConfig(restarts=4, seed=0))
        for p in pts:
            inside = min(p.rates.rf1, p.rates.rf2) >= 1.0 - 1e-9
            assert (p.inner.verdict == "inside") == inside
            assert (p.outer.verdict == "inside") == inside


class TestCapsGuard:
    R = RateTuple(rf1=1, rb1=1, rf2=1, rb2=1)

    @pytest.mark.parametrize("caps", [(0, 2, 2), (2.5, 2, 2), (True, 2, 2), (2, 2), None],
                             ids=["zero", "float", "bool", "two", "none"])
    def test_inner_and_frontier_need_three_ints_of_at_least_one(self, caps):
        with pytest.raises(ValueError, match="caps"):
            inner_membership(dsbs(0.1), self.R, caps=caps, config=FAST)
        with pytest.raises(ValueError, match="caps"):
            frontier(dsbs(0.1), {"rb1": 1.0, "rb2": 1.0}, ("rf1", "rf2"),
                     ((0.5, 0.5, 1), (0.5, 0.5, 1)), caps=caps, config=FAST)

    @pytest.mark.parametrize("caps", [(0, 3), (2.5, 3), (3,), (3, 3, 3)],
                             ids=["zero", "float", "one", "three"])
    def test_outer_needs_two_ints_of_at_least_one(self, caps):
        with pytest.raises(ValueError, match="caps"):
            outer_membership(dsbs(0.1), self.R, config=FAST, caps=caps)
