"""Tests for the dense pmf type and its core operations."""
import tracemalloc

import numpy as np
import pytest

from coordinet.pmf import (Alphabet, AlphabetMismatch, ConditionalPmf, JointPmf,
                           NegativeMass, NonFiniteMass, NotNormalized, PmfError,
                           StateSpaceTooLarge, UnknownVariable, dumps_pmf, loads_pmf, make_joint)

from oracles import iid_extend_loop, iid_extend_transpose, tv_direct


def fair_bit():
    return make_joint([("Y1", 2)], [0.5, 0.5])


def dsbs01():
    # entries (1-p)/2 and p/2 with p = 0.1
    return make_joint([("Y1", 2), ("Y2", 2)], [0.45, 0.05, 0.05, 0.45])


def random_pmf(rng, sizes, names=None):
    names = names or [f"X{i}" for i in range(len(sizes))]
    t = rng.gamma(1.0, size=int(np.prod(sizes)))
    return make_joint([(n, s) for n, s in zip(names, sizes)], t / t.sum())


def random_channel(rng, given, target):
    t = rng.gamma(1.0, size=(int(np.prod([a.size for a in given])), target[0].size))
    t = t / t.sum(axis=1, keepdims=True)
    return ConditionalPmf(given, target, t.reshape([a.size for a in given] + [target[0].size]))


class TestConstruction:
    def test_fair_bit(self):
        p = fair_bit()
        assert np.allclose(p.table, [0.5, 0.5])

    def test_dsbs_entries(self):
        p = dsbs01()
        assert np.allclose(p.table, [[0.45, 0.05], [0.05, 0.45]])
        assert p.table.sum() == pytest.approx(1.0, abs=1e-15)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            make_joint([("Y1", 2)], [0.7, 0.2])

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            make_joint([("Y1", 2)], [-0.1, 1.1])

    @pytest.mark.parametrize("table", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0],
                                       [-np.inf, 1.0]])
    def test_non_finite_rejected(self, table):
        with pytest.raises(NonFiniteMass):
            make_joint([("Y1", 2)], table)

    def test_non_finite_conditional_rejected(self):
        with pytest.raises(NonFiniteMass):
            ConditionalPmf([("X", 2)], [("Y", 2)], [[0.5, 0.5], [np.nan, np.nan]])

    def test_zero_conditional_row_rejected(self):
        # every row is a pmf, also one whose conditioning value has no mass
        with pytest.raises(NotNormalized):
            ConditionalPmf([("X", 2)], [("Y", 2)], [[0.5, 0.5], [0.0, 0.0]])

    def test_non_finite_pmf_text_rejected(self):
        with pytest.raises(NonFiniteMass):
            loads_pmf("vars: X:2\n0 nan\n1 nan\n")

    def test_tiny_negative_clipped(self):
        p = make_joint([("Y1", 2)], [1.0, -1e-14])
        assert p.table[1] == 0.0

    def test_near_one_normalized_exactly(self):
        p = make_joint([("Y1", 2)], [0.5 + 1e-7, 0.5])
        assert p.table.sum() == 1.0

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            Alphabet("Y1", 2, labels=("a",))

    def test_table_immutable(self):
        p = fair_bit()
        with pytest.raises(ValueError):
            p.table[0] = 0.9


class TestMarginal:
    def test_symmetric_source(self):
        assert np.allclose(dsbs01().marginal(["Y1"]).table, [0.5, 0.5])

    def test_independent_product(self):
        p = make_joint([("A", 2), ("B", 2)], np.outer([0.3, 0.7], [0.6, 0.4]))
        assert np.allclose(p.marginal(["A"]).table, [0.3, 0.7])

    def test_row_sums(self):
        p = make_joint([("A", 2), ("B", 2)], [0.1, 0.2, 0.3, 0.4])
        assert np.allclose(p.marginal(["A"]).table, [0.3, 0.7])

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            dsbs01().marginal(["Z"])

    def test_order_is_construction_order(self):
        p = make_joint([("A", 2), ("B", 3)], np.full(6, 1 / 6))
        m = p.marginal(["B", "A"])
        assert m.names == ("A", "B")


class TestIidExtend:
    def test_fair_bit_n3_uniform(self):
        e = fair_bit().iid_extend(3)
        assert e.sizes == (8,)
        assert np.allclose(e.table, 1 / 8)

    def test_point_mass(self):
        p = make_joint([("X", 3)], [0.0, 1.0, 0.0])
        e = p.iid_extend(4)
        idx = int(np.argmax(e.table))
        assert e.table[idx] == 1.0
        # constant sequence 1111 in base 3
        assert idx == 1 * 27 + 1 * 9 + 1 * 3 + 1

    def test_quarter_three_quarter_products(self):
        e = make_joint([("X", 2)], [0.25, 0.75]).iid_extend(2)
        assert np.allclose(e.table, [0.0625, 0.1875, 0.1875, 0.5625])

    def test_cap(self):
        with pytest.raises(StateSpaceTooLarge):
            fair_bit().iid_extend(30)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 1, 2), (4,)])
    def test_matches_the_transposed_chain_and_a_loop(self, shape):
        # byte for byte the table the outer-product chain and its transpose
        # give (normalised alike), and within 1e-15 of a loop over tuples
        p = random_pmf(np.random.default_rng(len(shape)), shape)
        for n in range(1, 6):
            e = p.iid_extend(n)
            assert e.sizes == tuple(k ** n for k in shape)
            ref = JointPmf(e.alphabets, iid_extend_transpose(p.table, n)).table
            assert e.table.tobytes() == ref.tobytes()
            assert np.abs(e.table - iid_extend_loop(p.table, n)).max() <= 1e-15

    @pytest.mark.parametrize("n", [True, 2.0, 0, "3"])
    def test_rejects_a_block_length_that_is_not_a_positive_int(self, n):
        with pytest.raises(ValueError, match="n: block length"):
            fair_bit().iid_extend(n)

    def test_normalised_without_a_copy(self):
        # (Y1, Y2)^10 is one table of 8 MiB; a normalised copy would make two
        q = make_joint([("Y1", 2), ("Y2", 2)], [0.5, 0.0, 0.0, 0.5])
        tracemalloc.start()
        try:
            e = q.iid_extend(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * 4 ** 10, f"peak {peak / (8 * 4 ** 10):.2f} tables"
        assert e.table.tobytes() == JointPmf(e.alphabets, iid_extend_transpose(q.table, 10)).table.tobytes()

    def test_commutes_with_marginal(self):
        rng = np.random.default_rng(0)
        p = random_pmf(rng, (2, 3))
        a = p.iid_extend(3).marginal(["X0"])
        b = p.marginal(["X0"]).iid_extend(3)
        assert a.names == b.names and a.sizes == b.sizes
        assert np.allclose(a.table, b.table, atol=1e-12)


class TestAdopt:
    def test_constructor_copies_and_adopt_normalises_in_place(self):
        t = np.array([0.25, 0.5, 0.25]) * (1 + 1e-9)  # within SUM_TOL of 1
        kept = t.copy()
        p = JointPmf((Alphabet("X", 3),), t)
        assert np.array_equal(t, kept) and not np.shares_memory(p.table, t)
        a = JointPmf.adopt((Alphabet("X", 3),), t)
        assert np.shares_memory(a.table, t) and not a.table.flags.writeable
        assert a.table.tobytes() == p.table.tobytes()

    @pytest.mark.parametrize("table, exc", [([0.5, -0.5, 1.0], NegativeMass),
                                            ([0.5, np.nan, 0.5], NonFiniteMass),
                                            ([0.5, 0.25, 0.0], NotNormalized)])
    def test_runs_the_constructors_checks(self, table, exc):
        with pytest.raises(exc):
            JointPmf.adopt((Alphabet("X", 3),), np.array(table))


class TestTotalVariation:
    def test_equal_is_zero(self):
        assert dsbs01().tv(dsbs01()) == 0.0

    def test_disjoint_point_masses(self):
        p = make_joint([("X", 2)], [1.0, 0.0])
        q = make_joint([("X", 2)], [0.0, 1.0])
        assert p.tv(q) == 1.0

    def test_hand_value(self):
        p = make_joint([("X", 2)], [0.5, 0.5])
        q = make_joint([("X", 2)], [0.8, 0.2])
        assert p.tv(q) == pytest.approx(0.5 * (0.3 + 0.3), abs=1e-15)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            fair_bit().tv(make_joint([("Y2", 2)], [0.5, 0.5]))

    def test_symmetry_identity_triangle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            sizes = tuple(rng.integers(2, 4, size=rng.integers(1, 3)))
            names = [f"X{i}" for i in range(len(sizes))]
            p, q, r = (random_pmf(rng, sizes, names) for _ in range(3))
            assert p.tv(q) == pytest.approx(q.tv(p), abs=1e-15)
            assert p.tv(p) == 0.0
            assert p.tv(q) <= p.tv(r) + r.tv(q) + 1e-12
            assert p.tv(q) == pytest.approx(tv_direct(p.table, q.table), abs=1e-15)


class TestChannelLemma:
    """The total-variation facts the downstream proofs lean on."""

    def _instance(self, rng, nx=3, ny=3):
        ga = (Alphabet("X", nx),)
        ta = (Alphabet("Y", ny),)
        p = random_pmf(rng, (nx,), ["X"])
        q = random_pmf(rng, (nx,), ["X"])
        w = random_channel(rng, ga, ta)
        w2 = random_channel(rng, ga, ta)
        return p, q, w, w2

    def test_shared_channel_preserves_tv_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p, q, w, _ = self._instance(rng)
            assert p.attach(w).tv(q.attach(w)) == pytest.approx(p.tv(q), abs=1e-12)

    def test_marginal_tv_bounded_by_joint_tv(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p, q, w, w2 = self._instance(rng)
            assert p.tv(q) <= p.attach(w).tv(q.attach(w2)) + 1e-12

    def test_conditional_witness_exists(self):
        # a point with both masses positive whose rows are within twice the
        # joint tv of each other
        rng = np.random.default_rng(4)
        for _ in range(100):
            p, q, w, w2 = self._instance(rng)
            eps = p.attach(w).tv(q.attach(w2))
            rows_close = [
                x for x in range(3)
                if p.table[x] > 0 and q.table[x] > 0
                and tv_direct(w.table[x], w2.table[x]) <= 2 * eps + 1e-12
            ]
            assert rows_close, f"no witness at eps={eps}"


class TestAttach:
    def test_attach_matches_by_name_not_position(self):
        rng = np.random.default_rng(5)
        p = random_pmf(rng, (2, 3), ["A", "B"])
        c = random_channel(rng, (Alphabet("B", 3), Alphabet("A", 2)), (Alphabet("C", 2),))
        j = p.attach(c)
        for a in range(2):
            for b in range(3):
                for cc in range(2):
                    assert j.table[a, b, cc] == pytest.approx(
                        p.table[a, b] * c.table[b, a, cc], abs=1e-15)


class TestSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(6)
        p = random_pmf(rng, (2, 3), ["Y1", "Y2"])
        q = loads_pmf(dumps_pmf(p))
        assert q.names == p.names and q.sizes == p.sizes
        assert np.array_equal(q.table, p.table)

    def test_labels_round_trip(self):
        p = JointPmf((Alphabet("Y1", 2, labels=("h", "t")),), np.array([0.25, 0.75]))
        q = loads_pmf(dumps_pmf(p))
        assert q.alphabets[0].labels == ("h", "t")

    def test_file_round_trip(self, tmp_path):
        from coordinet.pmf import read_pmf, write_pmf
        p = dsbs01()
        write_pmf(p, tmp_path / "q.pmf")
        assert read_pmf(tmp_path / "q.pmf").tv(p) == 0.0

    def test_bad_header(self):
        with pytest.raises(Exception):
            loads_pmf("nonsense\n0 1.0\n")

    def test_row_count_checked(self):
        text = "vars: X:2\n0 0.5\n"
        with pytest.raises(Exception):
            loads_pmf(text)

    @pytest.mark.parametrize("rows, bad", [
        ("0 0 .25\n0 1 .25\n1 0 .5\n-1 1 0\n", "-1 1 0"),      # would wrap to the last row
        ("0 0 .25\n0 1 .25\n1 0 .5\n1 0 .5\n", "1 0 .5"),      # leaves cell (1, 1) unset
        ("0 0 .25\n0 1 .25\n1 0 .5\n1 2 0\n", "1 2 0"),        # past the alphabet
    ], ids=["negative", "repeated", "too-large"])
    def test_bad_index_row_names_the_line(self, rows, bad):
        with pytest.raises(PmfError) as err:
            loads_pmf("vars: A:2 B:2\n" + rows)
        assert repr(bad) in str(err.value)

    @pytest.mark.parametrize("text, bad", [
        ("vars: A:2\nx 0.5\n1 0.5\n", "x 0.5"),
        ("vars: A:2\n0 half\n1 0.5\n", "0 half"),
        ("vars: A:two\n0 1\n", "A:two"),
        ("vars: A:0\n", "A:0"),
        ("vars: A:2:a\n0 0.5\n1 0.5\n", "A:2:a"),
        ("vars: A:2 A:2\n0 0 1\n0 1 0\n1 0 0\n1 1 0\n", "A:2"),
    ], ids=["index", "probability", "size-word", "size-zero", "label-count", "repeated-name"])
    def test_malformed_token_is_a_pmf_error_naming_it(self, text, bad):
        with pytest.raises(PmfError) as err:
            loads_pmf(text)
        assert repr(bad) in str(err.value)

    def test_indented_comment_line_is_skipped(self):
        p = loads_pmf("vars: A:2\n  # a note\n0 0.25\n\t# another\n1 0.75\n")
        assert np.array_equal(p.table, [0.25, 0.75])


class TestMultiVariableCondition:
    def test_reorder_round_trip(self):
        rng = np.random.default_rng(9)
        p = random_pmf(rng, (2, 3, 2), ["A", "B", "C"])
        r = p.reorder(["C", "A", "B"])
        assert r.names == ("C", "A", "B")
        assert np.array_equal(r.reorder(["A", "B", "C"]).table, p.table)
