"""Entropy, mutual information, and Markov-slack tests."""
import itertools

import numpy as np
import pytest

from coordinet import information
from coordinet.information import (MERGE_TOL, _greedy_merge_map, _wyner_eval, entropy,
                                   mutual_information, subset_entropies)
from coordinet.pmf import UnknownVariable, make_joint
from coordinet.sources import dsbs, identical_uniform, independent_bits, triple_abc

from oracles import (binary_entropy, cond_mi_direct, entropy_direct, greedy_merge_map_loop,
                     wyner_terms_full)


def random_pmf(rng, sizes, names=None):
    names = names or [f"X{i}" for i in range(len(sizes))]
    t = rng.gamma(1.0, size=int(np.prod(sizes)))
    return make_joint([(n, s) for n, s in zip(names, sizes)], t / t.sum())


def test_entropy_fair_bit():
    p = make_joint([("X", 2)], [0.5, 0.5])
    assert entropy(p, ["X"]) == pytest.approx(1.0, abs=1e-15)


def test_entropy_point_mass():
    p = make_joint([("X", 3)], [0.0, 1.0, 0.0])
    assert entropy(p, ["X"]) == 0.0


def test_entropy_skewed():
    p = make_joint([("X", 2)], [0.25, 0.75])
    assert entropy(p, ["X"]) == pytest.approx(entropy_direct([0.25, 0.75]), abs=1e-12)
    assert entropy(p, ["X"]) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_entropy_unknown_variable():
    with pytest.raises(UnknownVariable):
        entropy(make_joint([("X", 2)], [0.5, 0.5]), ["Y"])


def test_mi_independent_zero():
    p = make_joint([("A", 2), ("B", 2)], np.outer([0.3, 0.7], [0.6, 0.4]))
    assert mutual_information(p, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-12)
    # negatives from rounding are clamped, never returned
    assert mutual_information(p, ["A"], ["B"]) >= 0.0


def test_mi_copy_is_entropy():
    p = make_joint([("Y1", 2), ("Y2", 2)], [0.5, 0, 0, 0.5])
    assert mutual_information(p, ["Y1"], ["Y2"]) == pytest.approx(1.0, abs=1e-12)


def test_mi_dsbs():
    p = make_joint([("Y1", 2), ("Y2", 2)], [0.45, 0.05, 0.05, 0.45])
    expect = 1.0 - binary_entropy(0.1)
    assert mutual_information(p, ["Y1"], ["Y2"]) == pytest.approx(expect, abs=1e-12)


def test_mi_rejects_overlap():
    p = make_joint([("A", 2), ("B", 2)], np.full(4, 0.25))
    with pytest.raises(UnknownVariable):
        mutual_information(p, ["A"], ["A"])


def test_markov_slack_independent_triple():
    rng = np.random.default_rng(0)
    a = rng.dirichlet(np.ones(2))
    b = rng.dirichlet(np.ones(2))
    c = rng.dirichlet(np.ones(3))
    t = np.einsum("i,j,k->ijk", a, b, c)
    p = make_joint([("A", 2), ("B", 2), ("C", 3)], t)
    assert mutual_information(p, ["A"], ["C"], given=["B"]) == pytest.approx(0.0, abs=1e-12)


def test_markov_slack_copy_with_independent_middle():
    # A = C a fair bit, B independent of both: I(A;C|B) = I(A;C) = 1
    t = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            t[a, b, a] = 0.25
    p = make_joint([("A", 2), ("B", 2), ("C", 2)], t)
    assert mutual_information(p, ["A"], ["C"], given=["B"]) == pytest.approx(1.0, abs=1e-12)


def test_markov_slack_constructed_chain():
    rng = np.random.default_rng(1)
    pa = rng.dirichlet(np.ones(2))
    pb_a = rng.dirichlet(np.ones(3), size=2)
    pc_b = rng.dirichlet(np.ones(2), size=3)
    t = np.einsum("a,ab,bc->abc", pa, pb_a, pc_b)
    p = make_joint([("A", 2), ("B", 3), ("C", 2)], t)
    assert mutual_information(p, ["A"], ["C"], given=["B"]) <= 1e-12


def test_chain_rule_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = random_pmf(rng, (2, 3))
        assert entropy(p, ["X0", "X1"]) == pytest.approx(
            entropy(p, ["X0"]) + entropy(p, ["X1"]) - mutual_information(p, ["X0"], ["X1"]),
            abs=1e-10)


def test_mi_three_entropy_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = random_pmf(rng, (3, 2))
        lhs = mutual_information(p, ["X0"], ["X1"])
        rhs = entropy(p, ["X0"]) + entropy(p, ["X1"]) - entropy(p, ["X0", "X1"])
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_conditional_mi_matches_direct_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        p = random_pmf(rng, (2, 2, 3))
        mine = mutual_information(p, ["X0"], ["X2"], given=["X1"])
        ref = cond_mi_direct(p.table, (0,), (2,), (1,))
        assert mine == pytest.approx(ref, abs=1e-10)


def test_data_processing_on_chains():
    rng = np.random.default_rng(5)
    for _ in range(25):
        pa = rng.dirichlet(np.ones(3))
        pb_a = rng.dirichlet(np.ones(3), size=3)
        pc_b = rng.dirichlet(np.ones(3), size=3)
        t = np.einsum("a,ab,bc->abc", pa, pb_a, pc_b)
        p = make_joint([("A", 3), ("B", 3), ("C", 3)], t)
        assert mutual_information(p, ["A"], ["C"]) <= mutual_information(p, ["A"], ["B"]) + 1e-10


def batch_with_zeros(rng, shape):
    """A (B, *axes) batch of pmfs with about a third of the cells zero."""
    t = rng.gamma(1.0, size=shape)
    t[rng.random(shape) < 0.35] = 0.0
    t.reshape(shape[0], -1)[:, 0] += 0.1
    return t / t.sum(axis=tuple(range(1, len(shape))), keepdims=True)


def test_subset_entropies_match_direct_oracle():
    rng = np.random.default_rng(6)
    for shape in [(1, 2, 3, 2), (4, 3, 1, 2, 2), (6, 2, 2, 3), (3, 5)]:
        t = batch_with_zeros(rng, shape)
        nd = t.ndim - 1
        full = tuple(range(nd))
        # unsorted, duplicated, repeated-axis and full subsets, and every single axis
        subsets = [full[::-1], (nd - 1, 0), (0, nd - 1), (0,), (0, 0)] + [(a,) for a in full]
        h = subset_entropies(t, subsets)
        assert h.shape == (len(t), len(subsets))
        for b in range(len(t)):
            for k, sub in enumerate(subsets):
                drop = tuple(a for a in full if a not in sub)
                ref = entropy_direct(t[b].sum(axis=drop).ravel())
                assert h[b, k] == pytest.approx(ref, abs=1e-12)


def test_subset_entropies_ignore_memory_layout():
    rng = np.random.default_rng(7)
    t = batch_with_zeros(rng, (3, 2, 3, 4))
    subsets = [(0,), (1, 2), (0, 2), (0, 1, 2)]
    view = t.transpose(0, 3, 1, 2)            # axis k of t is axis (k + 1) % 3 of view
    moved = [tuple((a + 1) % 3 for a in sub) for sub in subsets]
    assert np.allclose(subset_entropies(view, moved), subset_entropies(t, subsets),
                       rtol=0, atol=1e-12)


def test_lone_subset_is_the_direct_sum():
    """One subset is summed in memory order like ndarray.sum, so entropy()
    equals -sum p log2 p of the marginal to the last bit, whatever the
    table's layout."""
    rng = np.random.default_rng(8)
    for t in batch_with_zeros(rng, (5, 3, 4, 5)):
        for perm in itertools.permutations(range(3)):
            table = t.transpose(perm)
            for keep in [(0,), (0, 2), (0, 1, 2)]:
                drop = tuple(a for a in range(3) if a not in keep)
                m = table.sum(axis=drop) if drop else table
                ref = -(m * np.log2(m, out=np.zeros_like(m), where=m > 0)).sum()
                assert subset_entropies(table[None], [keep])[0, 0] == ref


# (table shape without the batch axis, subsets) as the inner and outer objectives and the
# full-table Wyner reference ask
OBJECTIVE_TABLES = {
    "wyner": ((3, 3, 5), ((0, 1), (2,), (0, 1, 2), (0, 2), (1, 2))),
    "inner": ((2, 2, 2, 2, 2), ((2,), (3, 4), (2, 3, 4), (0, 2), (1, 2), (0, 1, 2),
                                (0, 1, 2, 3, 4), (1, 2, 3, 4), (0, 2, 3, 4))),
    "outer": ((2, 2, 5, 5), ((0, 1), (2,), (3,), (0, 1, 2), (0, 1, 3), (0,), (1,),
                             (0, 2), (1, 2), (0, 3), (1, 3))),
}


@pytest.mark.parametrize("name", sorted(OBJECTIVE_TABLES))
def test_subset_entropies_are_batch_invariant(name):
    """A row's entropies do not depend on the batch it rides in: the
    lockstep optimizer scores many restarts' candidates in one call and
    must reproduce each restart's lone trajectory to the last bit."""
    shape, subsets = OBJECTIVE_TABLES[name]
    t = batch_with_zeros(np.random.default_rng(10), (107,) + shape)
    whole = subset_entropies(t, subsets)
    for size in (1, 7, 100):
        for start in sorted({0, 1, 3, 107 - size}):
            part = subset_entropies(t[start:start + size], subsets)
            assert part.tobytes() == whole[start:start + size].tobytes()


def test_log2_of_positive_part_equals_the_masked_log2():
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (3, 17), (100, 141), (5, 1000)]:
        flat = batch_with_zeros(rng, shape)
        masked = np.log2(flat, out=np.zeros_like(flat), where=flat > 0)
        assert np.log2(np.where(flat > 0, flat, 1.0)).tobytes() == masked.tobytes()
    for t in batch_with_zeros(rng, (20, 3, 4, 2)):
        p = make_joint([("A", 3), ("B", 4), ("C", 2)], t)
        flat = p.table.reshape(1, -1).copy()
        flat *= np.log2(flat, out=np.zeros_like(flat), where=flat > 0)
        assert entropy(p) == max(0.0, float(-flat.sum(axis=1, keepdims=True)[0, 0]))


def test_subset_entropies_reject_bad_subsets():
    t = np.full((1, 2, 2), 0.25)
    for bad in ([()], [(2,)], [(-1,)], []):
        with pytest.raises(ValueError):
            subset_entropies(t, bad)


def test_wyner_terms_match_mutual_information():
    """I(Y1Y2;W) and I(Y1;Y2|W) against the library's mutual information, and
    I(W;Y1), I(W;Y2) against the plain-sum oracle."""
    rng = np.random.default_rng(9)
    for n1, n2, nw in [(2, 2, 2), (2, 3, 4), (3, 3, 5)]:
        q2 = rng.dirichlet(np.ones(n1 * n2))
        q2[0] = 0.0                                   # a cell off the support
        q2 = (q2 / q2.sum()).reshape(n1, n2)
        r = rng.dirichlet(np.ones(nw), size=(4, n1 * n2))
        r[0, 1:] = np.eye(nw)[np.arange(n1 * n2 - 1) % nw]   # one deterministic W
        support = np.flatnonzero(q2.ravel() > 0)
        terms = _wyner_eval(q2, support)
        i_joint, slack, i_w1, i_w2 = terms(r[:, support], sides=True)
        assert [t.tobytes() for t in terms(r[:, support])] == [i_joint.tobytes(), slack.tobytes()]
        for b in range(len(r)):
            j = make_joint([("Y1", n1), ("Y2", n2), ("W", nw)],
                           q2[:, :, None] * r[b].reshape(n1, n2, nw))
            assert i_joint[b] == pytest.approx(
                mutual_information(j, ["Y1", "Y2"], ["W"]), abs=1e-10)
            assert slack[b] == pytest.approx(
                mutual_information(j, ["Y1"], ["Y2"], given=["W"]), abs=1e-10)
            assert i_w1[b] == pytest.approx(cond_mi_direct(j.table, (2,), (0,), ()), abs=1e-12)
            assert i_w2[b] == pytest.approx(cond_mi_direct(j.table, (2,), (1,), ()), abs=1e-12)


@pytest.mark.parametrize("nw", [1, 2, 5, 9])
def test_wyner_eval_matches_the_full_table_formula(nw):
    """The support evaluator against the former full-table formula, on
    sources with cells off the support; |W| = 9 takes numpy's pairwise sum
    along W.  Each row's terms do not depend on the batch it rides in."""
    rng = np.random.default_rng(12 + nw)
    for n1, n2 in [(2, 2), (2, 3), (3, 4)]:
        q2 = batch_with_zeros(rng, (1, n1, n2))[0]
        support = np.flatnonzero(q2.ravel() > 0)
        terms = _wyner_eval(q2, support)
        for size in (1, 100):
            r = rng.dirichlet(np.ones(nw), size=(size, len(support)))
            r[0] = np.eye(nw)[np.arange(len(support)) % nw]   # deterministic W: 0 log 0 terms
            r[-1, 0] = np.eye(nw)[-1]
            got, ref = terms(r), wyner_terms_full(q2, support, r)
            for g, f in zip(got, ref):
                assert np.abs(g - f).max() <= 1e-14
            for b in (0, size - 1):
                lone = terms(r[b:b + 1])
                assert [x.tobytes() for x in lone] == [x[b:b + 1].tobytes() for x in got]


@pytest.mark.parametrize("chunk", [None, 1, 40])
def test_greedy_merge_map_is_the_pairwise_loop(monkeypatch, chunk):
    """A round's merges scored in one call (or in chunks of ``chunk`` entries)
    pick the map that scoring them one at a time picks."""
    if chunk is not None:
        monkeypatch.setattr(information, "MERGE_CHUNK", chunk)
    rng = np.random.default_rng(61)
    tables = [q.table for q in (triple_abc(), dsbs(0.1), identical_uniform(3), independent_bits())]
    tables += [np.kron(np.eye(k), rng.random((2, 2))) for k in (2, 3)]
    # (0,0) may join (0,1) or (1,0), not both, at exactly equal cost: the first merge wins
    tables.append(np.array([[0.5, 0.25], [0.25, 0.0]]))
    # blocks a little short of independent: merging one costs a slack far above MERGE_TOL
    tables.append(np.kron(np.eye(2), [[0.2502, 0.2498], [0.2498, 0.2502]]))
    for n1, n2 in ((2, 3), (3, 3), (4, 2)):
        t = rng.random((n1, n2)) * (rng.random((n1, n2)) < 0.7)
        t[0, 0] += 0.1
        tables.append(t)
    merged = 0
    for t in tables:
        t = t / t.sum()
        support = np.flatnonzero(t.ravel() > 0)
        wyner = _wyner_eval(t, support)
        got = _greedy_merge_map(wyner, len(support))
        assert got.tolist() == greedy_merge_map_loop(wyner, len(support)).tolist()
        merged += got.max() < len(support) - 1
    assert merged >= 4


@pytest.mark.parametrize("q", [triple_abc(), dsbs(0.05), dsbs(0.1), dsbs(0.2), identical_uniform(2),
                               identical_uniform(3), identical_uniform(4), independent_bits()],
                         ids=["triple-abc", "dsbs-0.05", "dsbs-0.1", "dsbs-0.2",
                              "identical-uniform-2", "identical-uniform-3", "identical-uniform-4",
                              "independent"])
def test_greedy_merge_map_is_the_full_table_formulas(q):
    """Along the greedy path, each merge step picks the candidate that the
    plain-sum formula picks, wherever no other candidate lies within 1e-12 of
    that one and no slack within 1e-12 of MERGE_TOL, where rounding could
    flip the choice."""
    support = np.flatnonzero(q.table.ravel() > 0)
    wyner, seen = _wyner_eval(q.table, support), []

    def terms(r):   # every row of a call: a merge round scores its trials together
        got = wyner(r)
        seen.extend(zip(*(t.tolist() for t in got + wyner_terms_full(q.table, support, r))))
        return got

    def pick(cands):  # the first candidate of least I(Y1Y2;W) among those with slack <= MERGE_TOL
        ok = [(i_val, n) for n, (i_val, slack) in enumerate(cands) if slack <= MERGE_TOL]
        return min(ok)[1] if ok else None

    _greedy_merge_map(terms, len(support))
    steps, bins, clear = [], len(support), 0
    while seen:   # a step with b bins tries every one of the b(b - 1)/2 merges
        steps.append(seen[:bins * (bins - 1) // 2])
        del seen[:bins * (bins - 1) // 2]
        bins -= 1
    for step in steps:
        ref = [c[2:] for c in step]
        best = pick(ref)
        if any(abs(slack - MERGE_TOL) <= 1e-12 or (best not in (None, n) and slack <= MERGE_TOL
                                                   and abs(i_val - ref[best][0]) <= 1e-12)
               for n, (i_val, slack) in enumerate(ref)):
            continue
        assert pick([c[:2] for c in step]) == best
        clear += 1
    assert clear >= 1
