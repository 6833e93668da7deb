"""Fourier-Motzkin elimination, redundancy removal, equivalence testing."""
import itertools

import numpy as np
import pytest

from coordinet.fme import (SNAP, LinearSystem, binning_constraint_system, fme_eliminate,
                           project_binning_system, projection_matches_rate_system,
                           remove_redundant, simplify, systems_equivalent,
                           upward_closure)
from coordinet.region import random_inner_coupling

from oracles import extension_interval, fme_eliminate_loop, simplify_loop


def sys_of(variables, rows):
    return LinearSystem.from_rows(variables, rows)


class TestEliminate:
    def test_textbook(self):
        s = sys_of(["x", "y"], [({"x": 1}, "<=", 1.0),
                                ({"x": -1}, "<=", 0.0),
                                ({"y": 1, "x": -1}, "<=", 0.0)])
        out = fme_eliminate(s, "x")
        assert out.variables == ("y",)
        cleaned = simplify(out)
        assert cleaned.nrows == 1
        assert np.allclose(cleaned.a, [[1.0]]) and cleaned.b[0] == pytest.approx(1.0)

    def test_variable_absent_unchanged(self):
        s = sys_of(["x", "y"], [({"y": 1}, "<=", 2.0)])
        out = fme_eliminate(s, "x")
        assert out.nrows == 1
        assert np.allclose(out.a, [[1.0]]) and out.b[0] == 2.0

    def test_strictness_propagates(self):
        s = sys_of(["x", "y"], [({"x": 1, "y": 1}, "<", 1.0),
                                ({"x": -1}, "<=", 0.0)])
        out = fme_eliminate(s, "x")
        assert bool(out.strict[0])

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            fme_eliminate(sys_of(["x"], []), "z")


class TestRemoveRedundant:
    def test_dominated_pair(self):
        s = sys_of(["y"], [({"y": 1}, "<=", 1.0), ({"y": 1}, "<=", 2.0)])
        out = remove_redundant(s)
        assert out.nrows == 1 and out.b[0] == 1.0

    def test_irredundant_triangle_unchanged(self):
        s = sys_of(["x", "y"], [({"x": -1}, "<=", 0.0),
                                ({"y": -1}, "<=", 0.0),
                                ({"x": 1, "y": 1}, "<=", 1.0)])
        assert remove_redundant(s).nrows == 3

    def test_unbounded_subproblem_keeps_row(self):
        s = sys_of(["x", "y"], [({"x": 1}, "<=", 1.0), ({"y": 1}, "<=", 1.0)])
        out = remove_redundant(s)
        assert out.nrows == 2

    def test_membership_preserved_on_samples(self):
        rng = np.random.default_rng(0)
        coup = random_inner_coupling(rng)
        s = project_binning_system(binning_constraint_system(coup.joint()))
        cleaned = remove_redundant(s)
        pts = rng.uniform(0, 3, size=(10_000, 4))
        assert np.array_equal(s.contains(pts), cleaned.contains(pts))

    def test_projected_system_cleans_to_bounds_plus_nonnegativity(self):
        rng = np.random.default_rng(1)
        coup = random_inner_coupling(rng)
        s = project_binning_system(binning_constraint_system(coup.joint()))
        cleaned = remove_redundant(upward_closure(s))
        assert cleaned.nrows == 4 + 4


class TestEquivalence:
    def test_identical_agree(self):
        s = sys_of(["y"], [({"y": 1}, "<=", 1.0)])
        rep = systems_equivalent(s, s, [(0.0, 2.0)], n_samples=200, seed=0)
        assert rep.agree and rep.counterexample is None

    def test_shifted_bound_disagrees_with_verified_counterexample(self):
        a = sys_of(["y"], [({"y": 1}, "<=", 1.0)])
        b = sys_of(["y"], [({"y": 1}, "<=", 0.9)])
        rep = systems_equivalent(a, b, [(0.0, 2.0)], n_samples=200, seed=0)
        assert not rep.agree
        x = rep.counterexample
        assert bool(a.contains(x[None])[0]) and not bool(b.contains(x[None])[0])
        assert 0.9 < x[0] <= 1.0 + 1e-9

    def test_column_order_normalized(self):
        a = sys_of(["x", "y"], [({"x": 1, "y": 2}, "<=", 1.0)])
        b = sys_of(["y", "x"], [({"x": 1, "y": 2}, "<=", 1.0)])
        rep = systems_equivalent(a, b, [(0.0, 1.0), (0.0, 1.0)], n_samples=100, seed=0)
        assert rep.agree


class TestProjectionExperiment:
    def test_projection_matches_direct_system(self):
        rng = np.random.default_rng(7)
        for ci in range(3):
            coup = random_inner_coupling(rng)
            reports = projection_matches_rate_system(coup.joint(), n_samples=500, seed=ci)
            assert len(reports) == 6
            assert all(rep.agree for _, rep in reports)

    def test_raw_projection_is_strictly_smaller(self):
        # the un-closed projection carries rate caps the direct system lacks
        rng = np.random.default_rng(7)
        coup = random_inner_coupling(rng)
        reports = projection_matches_rate_system(coup.joint(), n_samples=500, seed=0,
                                                 monotone=False)
        assert any(not rep.agree for _, rep in reports)

    def test_elimination_order_independence(self):
        rng = np.random.default_rng(3)
        base = binning_constraint_system(random_inner_coupling(rng).joint())
        projections = [project_binning_system(base, order)
                       for order in itertools.permutations(("Rt0", "Rt1", "Rt2"))]
        box = [(0.0, 3.0)] * 4
        for other in projections[1:]:
            rep = systems_equivalent(projections[0], other, box, n_samples=400, seed=0)
            assert rep.agree

    def test_projection_soundness_extensions(self):
        # points in the projection extend to a feasible eliminated value;
        # points outside admit no extension
        rng = np.random.default_rng(4)
        coup = random_inner_coupling(rng)
        s = binning_constraint_system(coup.joint())
        var = "Rt0"
        col = s.variables.index(var)
        projected = simplify(fme_eliminate(s, var))
        pts = rng.uniform(0, 2, size=(300, len(projected.variables)))
        member = projected.contains(pts)
        for x, inside in zip(pts, member):
            iv = extension_interval(s.a, s.b, s.strict, col, x)
            assert (iv is not None) == bool(inside)


def random_system(rng, nrows, nvars, offsets=(0.0,)):
    """Small integer coefficients (so elimination repeats rows), constants
    from a coarse grid plus an optional sub-SNAP offset, ~40% strict."""
    a = rng.integers(-2, 3, size=(nrows, nvars)).astype(float)
    b = rng.choice([-0.5, 0.0, 0.5, 1.0, 1.5], size=nrows) + rng.choice(offsets, size=nrows)
    return LinearSystem([f"x{k}" for k in range(nvars)], a, b, rng.random(nrows) < 0.4)


def assert_same(s, ref):
    a, b, strict = ref
    assert s.a.shape == a.shape and np.array_equal(s.a, a)
    assert np.array_equal(s.b, b) and np.array_equal(s.strict, strict)


class TestAgainstLoopOracles:
    def test_eliminate_matches_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            s = random_system(rng, int(rng.integers(0, 9)), int(rng.integers(1, 5)),
                              offsets=(0.0, 0.3e-9))
            col = int(rng.integers(0, len(s.variables)))
            assert_same(fme_eliminate(s, s.variables[col]),
                        fme_eliminate_loop(s.a, s.b, s.strict, col))

    def test_eliminate_one_sided_and_empty(self):
        up_only = sys_of(["x", "y"], [({"x": 1}, "<", 1.0), ({"x": 2, "y": 1}, "<=", 3.0),
                                      ({"y": -1}, "<=", 0.0)])
        down_only = LinearSystem(up_only.variables, -up_only.a, up_only.b, up_only.strict)
        no_zero_rows = sys_of(["x", "y"], [({"x": 1}, "<", 1.0), ({"x": 2, "y": 1}, "<=", 3.0)])
        for s in (up_only, down_only, no_zero_rows):
            out = fme_eliminate(s, "x")
            assert_same(out, fme_eliminate_loop(s.a, s.b, s.strict, 0))
        assert out.nrows == 0 and out.a.shape == (0, 1)
        assert fme_eliminate(sys_of(["x"], [({"x": 1}, "<", 1.0)]), "x").a.shape == (0, 0)

    def test_simplify_matches_loop(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            s = random_system(rng, int(rng.integers(0, 12)), int(rng.integers(1, 4)),
                              offsets=(0.0, 0.5e-9))
            s = LinearSystem(s.variables, np.where(rng.random(s.a.shape) < 0.3, 0.0, s.a),
                             s.b, s.strict)   # some all-zero rows, trivial or not
            assert_same(simplify(s), simplify_loop(s.a, s.b, s.strict))

    def test_eliminate_then_simplify_matches_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            s = random_system(rng, int(rng.integers(2, 10)), 3)
            ref = fme_eliminate_loop(s.a, s.b, s.strict, 1)
            assert_same(simplify(fme_eliminate(s, "x1")), simplify_loop(*ref))

    def test_tie_within_snap_one_strict(self):
        for rows in ([({"x": 1}, "<", 1.0), ({"x": 1}, "<=", 1.0 + 0.5 * SNAP)],
                     [({"x": 1}, "<=", 1.0 + 0.5 * SNAP), ({"x": 1}, "<", 1.0)],
                     [({"x": 1}, "<=", 1.0), ({"x": 1}, "<", 1.0 + 0.5 * SNAP)]):
            s = sys_of(["x"], rows + [({"x": 1}, "<=", 2.0)])
            out = simplify(s)
            assert_same(out, simplify_loop(s.a, s.b, s.strict))
            assert out.nrows == 1 and out.b[0] == 1.0 and bool(out.strict[0])
        s = sys_of(["x"], [({"x": 1}, "<=", 1.0), ({"x": 1}, "<", 1.0 + 2 * SNAP)])
        assert not simplify(s).strict[0]

    def test_tie_rule_ignores_row_order(self):
        """Constants 1, 1+0.8 SNAP, 1+1.6 SNAP with only the last strict:
        it lies more than SNAP above the least constant, so the kept row
        is x <= 1 in every row order."""
        rows = [({"x": 1}, "<=", 1.0), ({"x": 1}, "<=", 1.0 + 0.8 * SNAP),
                ({"x": 1}, "<", 1.0 + 1.6 * SNAP)]
        for perm in itertools.permutations(rows):
            out = simplify(sys_of(["x"], list(perm)))
            assert out.nrows == 1 and out.b[0] == 1.0 and not out.strict[0]

    def test_trivial_rows(self):
        true_rows = [({}, "<=", 0.0), ({}, "<", 1.0), ({"x": 1}, "<=", 0.0)]
        cases = [([({}, "<", 0.5 * SNAP)], 0.5 * SNAP, True),     # 0 < c with c < SNAP
                 ([({}, "<", 0.0), ({}, "<=", -1.0)], -1.0, False)]
        for extra, b0, strict0 in cases:
            s = sys_of(["x"], extra + true_rows)
            out = simplify(s)
            assert_same(out, simplify_loop(s.a, s.b, s.strict))
            assert out.nrows == 2 and list(out.b) == [b0, 0.0]
            assert list(out.strict) == [strict0, False]


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        s = binning_constraint_system(random_inner_coupling(rng).joint())
        t = LinearSystem.from_text(s.to_text())
        assert t.variables == s.variables
        assert np.allclose(t.a, s.a) and np.allclose(t.b, s.b)
        assert np.array_equal(t.strict, s.strict)

    def test_zero_row(self):
        s = sys_of(["x"], [({}, "<=", 1.0)])
        t = LinearSystem.from_text(s.to_text())
        assert t.nrows == 1 and t.a[0, 0] == 0.0
