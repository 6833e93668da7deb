"""Inner/outer bound evaluators and membership searches."""
import math

import numpy as np
import pytest

from coordinet.information import mutual_information
from coordinet.pmf import Alphabet, ConditionalPmf, make_joint
from coordinet.region import (OuterCoupling, RateTuple, SearchConfig, _coupling_to_blocks,
                              _inner_objective, _outer_objective,
                              canonical_couplings, frontier, inner_check,
                              inner_membership, inner_rhs, outer_membership,
                              outer_slack, random_inner_coupling)
from coordinet.sources import dsbs, identical_uniform, independent_bits

INF = math.inf
FAST = SearchConfig(restarts=6, seed=0)
I_DSBS = 0.5310044064107188


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
        assert np.allclose(inner_rhs(const_coupling(q)), 0.0, atol=1e-12)

    def test_copy_w_on_common_bit(self):
        q = identical_uniform(2)
        # I(W;Y1Y2) = 1 enters the total bound twice
        assert np.allclose(inner_rhs(copy_w_coupling(q)), [2.0, 1.0, 1.0, 1.0], atol=1e-9)

    def test_uv_copy_forward_bound_is_mutual_information(self):
        b = inner_rhs(uv_copy_coupling(dsbs(0.1)))
        assert b[3] == pytest.approx(I_DSBS, abs=1e-9)

    def test_link_bounds_never_exceed_total(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = inner_rhs(random_inner_coupling(rng))
            assert b[1] <= b[0] + 1e-9
            assert b[2] <= b[0] + 1e-9


class TestInnerCheck:
    def test_all_infinite(self):
        q = identical_uniform(2)
        s = inner_check(copy_w_coupling(q), RateTuple(INF, INF, INF, INF))
        assert np.all(np.isinf(s))

    def test_zero_rates_constants_independent(self):
        s = inner_check(const_coupling(independent_bits()), RateTuple(0, 0, 0, 0))
        assert np.allclose(s, 0.0, atol=1e-9)

    def test_slack_pattern_copy_coupling(self):
        q = identical_uniform(2)
        s = inner_check(copy_w_coupling(q), RateTuple(rf1=1, rb1=0, rf2=1, rb2=0))
        assert np.allclose(s, [0.0, 0.0, 0.0, 1.0], atol=1e-9)


class TestInnerMembership:
    def test_independent_zero_rates_inside(self):
        d = inner_membership(independent_bits(), RateTuple(0, 0, 0, 0),
                             caps=(2, 2, 2), config=FAST)
        assert d.verdict == "inside"
        assert d.witness.tv_to(independent_bits()) <= 1e-4

    def test_common_bit_half_rates_with_infinite_backward(self):
        q = identical_uniform(2)
        d = inner_membership(q, RateTuple(rf1=0.5, rb1=INF, rf2=0.5, rb2=INF),
                             caps=(2, 2, 2), config=FAST)
        assert d.verdict == "inside"

    def test_common_bit_under_capacity_inconclusive(self):
        q = identical_uniform(2)
        d = inner_membership(q, RateTuple(rf1=0.4, rb1=INF, rf2=0.4, rb2=INF),
                             caps=(2, 2, 2), config=FAST)
        assert d.verdict == "inconclusive"
        assert d.best_slack < 0

    def test_inside_witness_revalidates(self):
        q = dsbs(0.1)
        d = inner_membership(q, RateTuple(rf1=1, rb1=1, rf2=1, rb2=1),
                             caps=(2, 2, 2), config=FAST)
        assert d.verdict == "inside"
        # recompute everything from the stored coupling
        assert float(np.min(inner_check(d.witness, RateTuple(1, 1, 1, 1)))) >= -1e-6
        assert d.witness.tv_to(q) <= 1e-4
        assert max(d.witness.chain_slacks()) <= 1e-9


class TestOuterSlack:
    def test_all_rates_infinite(self):
        q = identical_uniform(2)
        c = OuterCoupling(q, ConditionalPmf(
            (Alphabet("Y1", 2), Alphabet("Y2", 2)), (Alphabet("U", 2), Alphabet("V", 2)),
            ConditionalPmf.deterministic(
                (Alphabet("Y1", 2), Alphabet("Y2", 2)), (Alphabet("U", 2), Alphabet("V", 2)),
                [0, 1, 2, 3]).table))
        assert outer_slack(c, RateTuple(INF, INF, INF, INF)) == INF

    def test_copy_everything_deficit(self):
        # U = V = Y1 = Y2 fair bit; rb1 + rf1 = 0.5 misses I(Y1Y2;V) = 1 by half
        q = identical_uniform(2)
        chan = ConditionalPmf.deterministic(
            (Alphabet("Y1", 2), Alphabet("Y2", 2)), (Alphabet("U", 2), Alphabet("V", 2)),
            [0, 0, 3, 3])  # (u,v) = (y1,y1); off-diagonal rows are zero-mass
        c = OuterCoupling(q, chan)
        s = outer_slack(c, RateTuple(rf1=0.25, rb1=0.25, rf2=INF, rb2=INF))
        assert s == pytest.approx(-0.5, abs=1e-9)

    def test_constants_on_independent(self):
        q = independent_bits()
        chan = ConditionalPmf.deterministic(
            (Alphabet("Y1", 2), Alphabet("Y2", 2)), (Alphabet("U", 1), Alphabet("V", 1)),
            [0, 0, 0, 0])
        c = OuterCoupling(q, chan)
        assert max(c.markov_slacks()) <= 1e-12
        assert outer_slack(c, RateTuple(0, 0, 0, 0)) == pytest.approx(0.0, abs=1e-9)


class TestOuterMembership:
    def test_all_infinite_inside(self):
        d = outer_membership(identical_uniform(2), RateTuple(INF, INF, INF, INF), config=FAST)
        assert d.verdict == "inside"

    def test_common_bit_forward_deficit_outside(self):
        d = outer_membership(identical_uniform(2),
                             RateTuple(rf1=0.4, rb1=INF, rf2=0.4, rb2=INF), config=FAST)
        assert d.verdict == "outside-heuristic"

    def test_dsbs_sum_rate_floor(self):
        # rb2 + rf2 below I(Y1;Y2) cannot be fixed by any chain coupling
        q = dsbs(0.1)
        r = RateTuple(rf1=INF, rb1=0.0, rf2=I_DSBS - 0.1, rb2=0.0)
        d = outer_membership(q, r, config=FAST)
        assert d.verdict == "outside-heuristic"

    def test_inside_witness_revalidates(self):
        q = dsbs(0.1)
        d = outer_membership(q, RateTuple(1.5, 1.5, 1.5, 1.5), config=FAST)
        assert d.verdict == "inside"
        assert max(d.witness.markov_slacks()) <= 1e-4
        assert outer_slack(d.witness, RateTuple(1.5, 1.5, 1.5, 1.5)) >= -1e-6


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
                assert dout.verdict != "outside-heuristic", (q.table, rates)


class TestBatchedObjectives:
    """The search objectives score a batch through subset_entropies; each
    value must equal the same quantity assembled from the scalar path."""

    def test_inner_objective_matches_scalar_path(self):
        rng = np.random.default_rng(11)
        cfg = SearchConfig()
        caps = (2, 3, 2)
        for _ in range(8):
            q = make_joint([("Y1", 2), ("Y2", 3)], rng.dirichlet(np.ones(6)))
            r = RateTuple(*rng.uniform(0.0, 2.0, size=4))
            coups = [random_inner_coupling(rng, (*caps, 2, 3)) for _ in range(4)]
            blocks = [_coupling_to_blocks(c) for c in coups]
            vals = _inner_objective(q.table, r.sums, caps, cfg)(
                [np.stack([b[k] for b in blocks]) for k in range(3)])
            for c, v in zip(coups, vals):
                ref = (-float(np.min(inner_check(c, r)))
                       + cfg.penalty * max(0.0, c.tv_to(q) - cfg.tv_tol))
                assert v == pytest.approx(ref, abs=1e-10)

    def test_outer_objective_matches_scalar_path(self):
        rng = np.random.default_rng(12)
        cfg = SearchConfig()
        n1, n2, cu, cv = 2, 3, 3, 2
        for _ in range(8):
            q = make_joint([("Y1", n1), ("Y2", n2)], rng.dirichlet(np.ones(n1 * n2)))
            r = RateTuple(*rng.uniform(0.0, 2.0, size=4))
            sums3 = np.array([r.rb1 + r.rf1, r.rb2 + r.rf2, r.rf1 + r.rf2])
            tables = rng.dirichlet(np.ones(cu * cv), size=(4, n1 * n2))
            tables[0] = np.eye(cu * cv)[np.arange(n1 * n2) % (cu * cv)]  # deterministic U, V
            vals = _outer_objective(q.table, sums3, (cu, cv), cfg)([tables])
            for t, v in zip(tables, vals):
                chan = ConditionalPmf((Alphabet("Y1", n1), Alphabet("Y2", n2)),
                                      (Alphabet("U", cu), Alphabet("V", cv)),
                                      t.reshape(n1, n2, cu, cv))
                c = OuterCoupling(q, chan)
                pen = sum(max(0.0, m - 1e-6) for m in c.markov_slacks())
                assert v == pytest.approx(-outer_slack(c, r) + cfg.penalty * pen, abs=1e-10)


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
                assert p.inner.verdict == "inconclusive"
                assert p.outer.verdict == "outside-heuristic"

    def test_zero_backward_needs_full_bit_each(self):
        q = identical_uniform(2)
        pts = frontier(q, {"rb1": 0.0, "rb2": 0.0}, ("rf1", "rf2"),
                       ((0.5, 1.0, 2), (0.5, 1.0, 2)), caps=(2, 2, 4),
                       config=SearchConfig(restarts=4, seed=0))
        for p in pts:
            inside = min(p.rates.rf1, p.rates.rf2) >= 1.0 - 1e-9
            assert (p.inner.verdict == "inside") == inside
            assert (p.outer.verdict == "inside") == inside
