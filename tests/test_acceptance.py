"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 4-6 log every membership query they issue;
criterion 10 then checks that no rate point was simultaneously accepted by
the inner bound and rejected by the outer bound.
"""
import contextlib
import math
import statistics
import time

import numpy as np
import pytest

from coordinet.information import WynerConfig, entropy, mutual_information, wyner_common_information
from coordinet.osrb import (ProtocolConfig, SequenceSpace, bins_from_rate, make_binning,
                            osrb_uniformity, run_protocol, sweep)
from coordinet.pmf import Alphabet, ConditionalPmf, JointPmf, make_joint
from coordinet.region import (InnerCoupling, RateTuple, SearchConfig, inner_membership,
                              inner_rhs_from_joint, outer_coupling_from_inner,
                              outer_membership, random_inner_coupling)
from coordinet.fme import (binning_constraint_system, projection_matches_rate_system,
                           theorem_rate_system)
from coordinet.sources import builtin_coupling, dsbs, identical_uniform, independent_bits, triple_abc

from oracles import wyner_deterministic_min

INF = math.inf
I_DSBS = 0.5310044064107188  # 1 - h(0.1), frozen from the binary entropy formula

# outer verdicts that reject a point: certified by a closed form, or by search
NEGATIVE = ("outside", "outside-heuristic")

# every membership query from criteria 4-6: (source, rates, inner verdict, outer verdict)
NESTING_LOG: list[tuple[str, RateTuple, str, str]] = []


@contextlib.contextmanager
def criterion(num, descr, budget_s):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {descr} ({time.time() - t0:.1f}s)")
        raise
    elapsed = time.time() - t0
    print(f"[criterion {num:2d}] PASS  {descr} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def both_memberships(tag, q, rates, caps=(2, 2, 2), cfg=None, inner_seeds=()):
    cfg = cfg or SearchConfig(restarts=8, seed=0)
    din = inner_membership(q, rates, caps=caps, config=cfg, extra_seeds=inner_seeds)
    outer_seeds = []
    if din.verdict == "inside":
        derived = outer_coupling_from_inner(din.witness)
        if derived is not None:
            outer_seeds.append(derived)
    dout = outer_membership(q, rates, config=cfg, extra_seeds=outer_seeds)
    NESTING_LOG.append((tag, rates, din.verdict, dout.verdict))
    return din, dout


def bisect_threshold(flag, lo, hi, steps=6):
    """Smallest x with flag(x) true, assuming monotone flag; returns the
    midpoint of the final bracket."""
    assert not flag(lo) and flag(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if flag(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def random_small_pmf(rng):
    nvars = int(rng.integers(2, 5))
    sizes = tuple(int(s) for s in rng.integers(2, 4, size=nvars))
    t = rng.gamma(1.0, size=int(np.prod(sizes)))
    return make_joint([(f"X{i}", s) for i, s in enumerate(sizes)], t / t.sum())


def test_criterion_1_information_identities():
    with criterion(1, "information identities on 200 random pmfs", 10):
        rng = np.random.default_rng(101)
        for _ in range(200):
            p = random_small_pmf(rng)
            names = list(p.names)
            k = int(rng.integers(1, len(names)))
            left, rest = names[:k], names[k:]
            # chain rule
            h_all = entropy(p)
            h_left = entropy(p, left)
            h_rest_given = entropy(p, names) - entropy(p, left)
            assert abs(h_all - (h_left + h_rest_given)) <= 1e-10
            # I = H + H - H
            mi = mutual_information(p, left, rest)
            assert abs(mi - (entropy(p, left) + entropy(p, rest) - h_all)) <= 1e-10
            # conditional MI nonnegative
            if len(names) >= 3:
                a, b, c = names[0], names[1], names[2]
                raw = ((entropy(p, (a, c)) - entropy(p, (c,)))
                       - (entropy(p, (a, b, c)) - entropy(p, (b, c))))
                assert raw >= -1e-10
                assert mutual_information(p, (a,), (b,), given=(c,)) >= 0.0


def test_criterion_2_total_variation_lemma_suite():
    with criterion(2, "total-variation channel lemma (equality, monotonicity, witness)", 10):
        rng = np.random.default_rng(202)

        def instance():
            nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            t = rng.gamma(1.0, size=nx)
            p = make_joint([("X", nx)], t / t.sum())
            t = rng.gamma(1.0, size=nx)
            q = make_joint([("X", nx)], t / t.sum())
            rows = rng.gamma(1.0, size=(nx, ny))
            rows /= rows.sum(axis=1, keepdims=True)
            w1 = ConditionalPmf((Alphabet("X", nx),), (Alphabet("Y", ny),), rows)
            rows2 = rng.gamma(1.0, size=(nx, ny))
            rows2 /= rows2.sum(axis=1, keepdims=True)
            w2 = ConditionalPmf((Alphabet("X", nx),), (Alphabet("Y", ny),), rows2)
            return p, q, w1, w2

        for _ in range(100):
            p, q, w1, w2 = instance()
            # part 1: a shared channel preserves tv exactly
            assert abs(p.attach(w1).tv(q.attach(w1)) - p.tv(q)) <= 1e-12
            # part 1: marginal tv never exceeds joint tv
            eps = p.attach(w1).tv(q.attach(w2))
            assert p.tv(q) <= eps + 1e-12
            # part 2: constructive witness
            found = False
            for x in range(p.sizes[0]):
                if p.table[x] > 0 and q.table[x] > 0:
                    row_tv = 0.5 * float(np.abs(w1.table[x] - w2.table[x]).sum())
                    if row_tv <= 2 * eps + 1e-12:
                        found = True
                        break
            assert found


def test_criterion_3_wyner_solver():
    with criterion(3, "Wyner common information against closed forms and brute force", 120):
        cfg = WynerConfig(restarts=16, seed=3)
        sol = wyner_common_information(independent_bits(), config=cfg)
        assert abs(sol.value) <= 1e-6
        for k in (2, 3, 4):
            sol = wyner_common_information(identical_uniform(k), w_cap=k + 1, config=cfg)
            assert abs(sol.value - math.log2(k)) <= 1e-3
        oracle, _ = wyner_deterministic_min(triple_abc().table, w_cap=5)
        assert abs(oracle - 1.0) <= 1e-9
        sol = wyner_common_information(triple_abc(), w_cap=5, config=cfg)
        assert abs(sol.value - oracle) <= 1e-3


def test_criterion_4_infinite_backward_regime():
    with criterion(4, "rb=inf regime: both frontiers at I(Y1;Y2) for dsbs-0.1", 300):
        q = dsbs(0.1)

        def inner_inside(s):
            din, _ = both_memberships("dsbs-0.1", q,
                                      RateTuple(rf1=s / 2, rb1=INF, rf2=s / 2, rb2=INF))
            return din.verdict == "inside"

        def outer_not_outside(s):
            _, dout = both_memberships("dsbs-0.1", q,
                                       RateTuple(rf1=s / 2, rb1=INF, rf2=s / 2, rb2=INF))
            return dout.verdict not in NEGATIVE

        t_inner = bisect_threshold(inner_inside, I_DSBS - 0.12, I_DSBS + 0.12)
        t_outer = bisect_threshold(outer_not_outside, I_DSBS - 0.12, I_DSBS + 0.12)
        assert abs(t_inner - I_DSBS) <= 2e-2, t_inner
        assert abs(t_outer - I_DSBS) <= 2e-2, t_outer


def test_criterion_5_zero_backward_regime():
    with criterion(5, "rb=0 regime: per-link floor equals the common information", 300):
        q = identical_uniform(2)
        wyner = wyner_common_information(q, w_cap=3, config=WynerConfig(restarts=12, seed=0)).value
        caps = (2, 2, 4)

        def inner_inside(t):
            din, _ = both_memberships("identical-uniform-2", q,
                                      RateTuple(rf1=t, rb1=0.0, rf2=t, rb2=0.0), caps=caps)
            return din.verdict == "inside"

        def outer_not_outside(t):
            _, dout = both_memberships("identical-uniform-2", q,
                                       RateTuple(rf1=t, rb1=0.0, rf2=t, rb2=0.0), caps=caps)
            return dout.verdict not in NEGATIVE

        t_inner = bisect_threshold(inner_inside, 0.8, 1.2)
        t_outer = bisect_threshold(outer_not_outside, 0.8, 1.2)
        assert abs(t_inner - wyner) <= 2e-2, (t_inner, wyner)
        assert abs(t_outer - wyner) <= 2e-2, (t_outer, wyner)
        # one short link cannot be bought back by the other
        din, dout = both_memberships("identical-uniform-2", q,
                                     RateTuple(rf1=1.0 - 2e-2 - 0.02, rb1=0.0, rf2=5.0, rb2=0.0),
                                     caps=caps)
        assert (din.verdict, din.certificate) == ("outside", "rb1+rf1 >= I(Y1;Y2)")
        assert (dout.verdict, dout.certificate) == ("outside", "rb1+rf1 >= I(Y1;Y2)")


def _bsc_split_coupling(a):
    """V = Y1, W constant, U a BSC(a) view of Y1 with the complementary
    crossover chosen so the induced pair is dsbs-0.1."""
    p = 0.1
    b = (p - a) / (1.0 - 2.0 * a)
    q1 = np.array([0.5, 0.5])
    p_uv = np.zeros((2, 2, 1))  # (U, V, W): p(u, v) = q(y1=v) * BSC_a(u|v)
    for v in range(2):
        for u in range(2):
            p_uv[u, v, 0] = q1[v] * (1.0 - a if u == v else a)
    chan_y2 = np.zeros((2, 1, 2))
    for u in range(2):
        chan_y2[u, 0] = [1.0 - b if y2 == u else b for y2 in range(2)]
    chan_y1 = np.zeros((2, 1, 2))
    for v in range(2):
        chan_y1[v, 0, v] = 1.0
    return InnerCoupling(
        JointPmf((Alphabet("U", 2), Alphabet("V", 2), Alphabet("W", 1)), p_uv),
        ConditionalPmf((Alphabet("U", 2), Alphabet("W", 1)), (Alphabet("Y2", 2),), chan_y2),
        ConditionalPmf((Alphabet("V", 2), Alphabet("W", 1)), (Alphabet("Y1", 2),), chan_y1))


def test_criterion_6_one_way_reduction_regime():
    with criterion(6, "rf1=0, rb1=inf regime: corner points accepted, eroded points rejected", 600):
        q = dsbs(0.1)
        eps = 0.02

        # corner from U = Y2 (found by the canonical search seeds):
        # rf2 >= I(U;Y1) = I(Y1;Y2), rf2 + rb2 >= I(Y1Y2;U) = H(Y2) = 1
        for rf2, rb2 in [(I_DSBS + eps, 1.0 - I_DSBS), (I_DSBS + 0.1, 0.5)]:
            din, _ = both_memberships("dsbs-0.1", q, RateTuple(rf1=0.0, rb1=INF, rf2=rf2, rb2=rb2))
            assert din.verdict == "inside", (rf2, rb2)

        # corner from a split auxiliary: V = Y1 witness handed to the search
        coup = _bsc_split_coupling(0.05)
        j = coup.joint()
        assert coup.marginal_y().tv(q) <= 1e-9
        rf2_star = mutual_information(j, ("U",), ("Y1",))
        sum_star = mutual_information(j, ("Y1", "Y2"), ("U",))
        r = RateTuple(rf1=0.0, rb1=INF, rf2=rf2_star + eps, rb2=sum_star - rf2_star)
        din, _ = both_memberships("dsbs-0.1", q, r, inner_seeds=[coup])
        assert din.verdict == "inside"
        assert float(np.min(r.sums - inner_rhs_from_joint(j))) >= eps - 1e-9

        # 0.05 below the frontier, in each coordinate direction; the first
        # misses the rf1+rf2 >= I(Y1;Y2) floor, the second (rb2+rf2 = 0.95)
        # only the search can reject
        din, dout = both_memberships("dsbs-0.1", q,
                                     RateTuple(rf1=0.0, rb1=INF, rf2=I_DSBS - 0.05, rb2=10.0))
        assert (dout.verdict, dout.certificate) == ("outside", "rf1+rf2 >= I(Y1;Y2)")
        assert (din.verdict, din.certificate) == ("outside", "rf1+rf2 >= I(Y1;Y2)")
        rf2 = I_DSBS + eps
        din, dout = both_memberships("dsbs-0.1", q,
                                     RateTuple(rf1=0.0, rb1=INF, rf2=rf2, rb2=1.0 - 0.05 - rf2))
        assert dout.verdict == "outside-heuristic"
        assert din.verdict != "inside"


def test_criterion_7_fme_projection_agreement():
    with criterion(7, "FME projection matches the direct system, 20 couplings x 6 orders", 60):
        rng = np.random.default_rng(7)
        for ci in range(20):
            j = random_inner_coupling(rng).joint()
            reports = projection_matches_rate_system(binning_constraint_system(j),
                                                     theorem_rate_system(j))
            assert len(reports) == 6
            for order, rep in reports:
                assert rep.agree, (ci, order, rep.counterexample)


def test_criterion_8_uniformity_trend():
    with criterion(8, "bin-law uniformity strictly improves from n=2 to n=4", 120):
        coup = builtin_coupling("w-from-y1", identical_uniform(2))
        per = coup.joint().marginal(("W", "V", "U")).reorder(("W", "V", "U"))
        rates = (0.5, 0.05, 0.05)   # margin 0.4 below H(W) on every subset sum
        groups_vars = [("W",), ("W", "V"), ("W", "U")]
        med = {}
        for n in (2, 4):
            tvs = []
            for seed in range(20):
                cell = int(np.random.SeedSequence([5, n, seed]).generate_state(1)[0])
                subs = np.random.SeedSequence(cell).generate_state(3)
                groups = []
                for gi, (gv, rate) in enumerate(zip(groups_vars, rates)):
                    nb, _ = bins_from_rate(n, rate)
                    dom = SequenceSpace(gv, tuple({"W": 2, "V": 1, "U": 1}[v] for v in gv), n)
                    groups.append((gv, make_binning(dom, nb, int(subs[gi]))))
                tvs.extend(osrb_uniformity(per, [groups], n))
            med[n] = statistics.median(tvs)
        assert med[4] < med[2], med


def test_criterion_9_protocol_exactness_and_trend():
    with criterion(9, "protocol exactness grid and block-length trend", 900):
        q = identical_uniform(2)
        coup = builtin_coupling("w-from-y1", q)
        for n in (2, 3, 4):
            for rf, rt0 in ((1.0, 0.0), (1.4, 0.5), (0.5, 0.3)):
                cfg = ProtocolConfig(q=q, coupling=coup, n=n,
                                     rates=RateTuple(rf1=rf, rb1=0.0, rf2=rf, rb2=0.0),
                                     tilde_rates=(rt0, 0.0, 0.0), seed=7)
                law = run_protocol(cfg)
                assert abs(law.raw_mass - 1.0) <= 1e-9
                two_way = np.abs(law.joint_with_g.table.sum(axis=(0, 1, 2))
                                 - law.marginal_direct).sum()
                assert two_way <= 1e-12
                assert law.tv_best_g <= 2.0 * law.tv_with_uniform_g + 1e-9
        base = ProtocolConfig(q=q, coupling=coup, n=2,
                              rates=RateTuple(rf1=1.4, rb1=0.0, rf2=1.4, rb2=0.0),
                              tilde_rates=(0.0, 0.0, 0.0), seed=0)
        recs = sweep(base, [2, 4], list(range(20)), master_seed=11)
        assert not any(r["error"] for r in recs)
        med = {n: statistics.median(r["tv_best_g"] for r in recs if r["n"] == n)
               for n in (2, 4)}
        assert med[4] <= med[2], med


def test_criterion_10_soundness_nesting():
    with criterion(10, "no rate point inner-inside and outer-outside", 10):
        assert NESTING_LOG, "criteria 4-6 must run before the nesting check"
        bad = [(tag, r) for tag, r, vin, vout in NESTING_LOG
               if vin == "inside" and vout in NEGATIVE]
        assert not bad, bad
