"""Fourier-Motzkin elimination, upward closure, equivalence testing."""
import itertools

import numpy as np
import pytest

from coordinet import fme
from coordinet.fme import (PROJECTED_VARS, RATE_VARS, SNAP, LinearSystem,
                           binning_constraint_system, coupling_systems, fme_eliminate,
                           project_binning_system, projection_matches_rate_system, simplify,
                           systems_equivalent, theorem_rate_system, upward_closure)
from coordinet.information import entropy, subset_entropies
from coordinet.region import INNER_SUBSETS, random_inner_coupling, random_inner_joints

from oracles import (drop_dominated_loop, extension_interval, fme_eliminate_loop, rate_system_rows,
                     simplify_loop, systems_equivalent_sampled, vertices_bruteforce)


def sys_of(variables, rows):
    return LinearSystem.from_rows(variables, rows)


def batch_of(systems):
    """The batch whose columns are the lone ``systems``, which share variables and coefficients."""
    return LinearSystem(systems[0].variables, systems[0].a, np.stack([s.b for s in systems], 1),
                        np.stack([s.strict for s in systems], 1))


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


class TestRepeatedVariables:
    """A repeated name would give one variable two columns, each row's
    coefficient filled into both."""

    def test_from_text_refuses_a_repeated_name(self):
        with pytest.raises(ValueError, match=r"repeated variable names \['x'\]"):
            LinearSystem.from_text("vars: x x\n1*x <= 2\n-1*x <= 0\n")

    def test_from_rows_refuses_a_repeated_name(self):
        with pytest.raises(ValueError, match=r"repeated variable names \['y'\]"):
            sys_of(["x", "y", "y"], [({"x": 1, "y": 1}, "<=", 1.0)])


class TestEquivalence:
    """The sampling oracle on its own, and the exact check's handling of
    variable order."""

    def test_identical_agree(self):
        s = sys_of(["y"], [({"y": 1}, "<=", 1.0)])
        agree, _, x = systems_equivalent_sampled(s.a, s.b, s.a, s.b, [(0.0, 2.0)],
                                                 n_samples=200, seed=0)
        assert agree and x is None

    def test_shifted_bound_disagrees_with_verified_counterexample(self):
        a = sys_of(["y"], [({"y": 1}, "<=", 1.0)])
        b = sys_of(["y"], [({"y": 1}, "<=", 0.9)])
        agree, _, x = systems_equivalent_sampled(a.a, a.b, b.a, b.b, [(0.0, 2.0)],
                                                 n_samples=200, seed=0)
        assert not agree
        assert bool(a.contains(x[None])[0]) and not bool(b.contains(x[None])[0])
        assert 0.9 < x[0] <= 1.0 + 1e-9

    def test_column_order_normalized(self):
        a = sys_of(["x", "y"], [({"x": -1, "y": -2}, "<=", -1.0)])
        b = sys_of(["y", "x"], [({"x": -1, "y": -2}, "<=", -1.0)])
        rep = systems_equivalent(a, b)
        assert rep.agree and rep.vertices == 4


class TestUpwardClosure:
    def test_dominated_rows_go_and_orthant_rows_stay(self):
        s = sys_of(["x", "y"], [
            ({"x": -1, "y": -1}, "<=", -1.0),   # 0: kept, implies 1 and 2
            ({"x": -1, "y": -2}, "<=", -1.0),   # 1: smaller coefficients, same constant
            ({"x": -2, "y": -1}, "<", -0.5),    # 2: strict, but a looser constant
            ({"x": -1, "y": -3}, "<", -1.0),    # 3: strict at the same constant: kept
            ({"y": -0.5}, "<=", 0.0),           # 4: implies the unit row 5
            ({"y": -1}, "<=", 0.0),             # 5: unit row, never dropped
            ({"x": 1, "y": -1}, "<=", 0.0),     # 6: link row, never dropped
        ])
        out = fme._drop_dominated(s)
        assert out.to_text() == fme.LinearSystem(s.variables, s.a[[0, 3, 4, 5, 6]],
                                                 s.b[[0, 3, 4, 5, 6]],
                                                 s.strict[[0, 3, 4, 5, 6]]).to_text()

    def test_pruned_closure_equals_the_unpruned_one(self, monkeypatch):
        rng = np.random.default_rng(41)
        joints = [random_inner_coupling(rng).joint() for _ in range(3)]
        projections = [project_binning_system(binning_constraint_system(j), order)
                       for j in joints for order in itertools.permutations(("Rt0", "Rt1", "Rt2"))]
        pruned = [upward_closure(p) for p in projections]
        monkeypatch.setattr(fme, "_drop_dominated", lambda s: s)
        pts = rng.uniform(0, 4, size=(2000, len(PROJECTED_VARS)))
        for p, closed in zip(projections, pruned):
            full = upward_closure(p)
            assert closed.nrows < full.nrows
            assert systems_equivalent(closed, full).agree
            assert np.array_equal(closed.contains(pts), full.contains(pts))


def shifted(s, row, delta):
    b = s.b.copy()
    b[row] += delta
    return LinearSystem(s.variables, s.a, b, s.strict)


def in_exactly_one(x, s, t):
    return bool(s.contains(x[None])[0]) != bool(t.contains(x[None])[0])


class TestExactEquivalence:
    V4 = ["x1", "x2", "x3", "x4"]
    NONNEG = [({v: -1}, "<=", 0.0) for v in V4]

    def test_shifting_a_direct_row_by_a_micro_flips_the_verdict(self):
        j = random_inner_coupling(np.random.default_rng(5)).joint()
        direct = theorem_rate_system(j)
        closed = upward_closure(project_binning_system(binning_constraint_system(j)))
        assert systems_equivalent(closed, direct).agree
        for row in range(4):
            for delta in (1e-6, -1e-6):
                other = shifted(direct, row, delta)
                rep = systems_equivalent(closed, other)
                assert not rep.agree, (row, delta)
                assert in_exactly_one(rep.counterexample, closed, other)

    def test_parallel_rows_make_degenerate_bases_that_are_skipped(self):
        one = sys_of(self.V4, [({"x1": -1, "x2": -1}, "<=", -1.0)] + self.NONNEG)
        doubled = sys_of(self.V4, [({"x1": -1, "x2": -1}, "<=", -1.0),
                                   ({"x1": -2, "x2": -2}, "<=", -2.0)] + self.NONNEG)
        rep = systems_equivalent(doubled, one)
        assert rep.agree and rep.vertices == 4

    def test_repeated_row_is_kept_once(self):
        row = ({"x1": -1, "x3": -2}, "<=", -1.0)
        rep = systems_equivalent(sys_of(self.V4, [row, row] + self.NONNEG),
                                 sys_of(self.V4, [row] + self.NONNEG))
        assert rep.agree and rep.vertices == 4

    def test_degenerate_vertex_is_counted_once(self):
        # six rows are tight at (1, 0, 0, 0), so many bases yield it
        s = sys_of(self.V4, [({"x1": -1, v: -1}, "<=", -1.0) for v in self.V4[1:]]
                   + self.NONNEG)
        rep = systems_equivalent(s, s)
        assert rep.agree and rep.vertices == 4

    def test_sliver_that_sampling_misses(self):
        # b cuts a corner 1e-6 deep off a, at the vertex (1, 0, 0, 0); the cut
        # is scaled by 0.5 so that it is the last row b's enumeration takes in,
        # as the one a vertex violates by only 5e-7
        a = sys_of(self.V4, [({"x1": -1, "x2": -1}, "<=", -1.0)] + self.NONNEG)
        b = sys_of(self.V4, [({"x1": -1, "x2": -1}, "<=", -1.0),
                             ({"x1": -0.5, "x2": -500, "x3": -500, "x4": -500}, "<=",
                              -(0.5 + 0.5e-6))] + self.NONNEG)
        agree, _, _ = systems_equivalent_sampled(a.a, a.b, b.a, b.b, [(0.0, 3.0)] * 4,
                                                 n_samples=1000, seed=0)
        assert agree
        rep = systems_equivalent(a, b)
        assert not rep.agree and in_exactly_one(rep.counterexample, a, b)
        assert systems_equivalent(b, b).agree

    def test_positive_coefficient_raises(self):
        capped = sys_of(["y"], [({"y": 1}, "<=", 1.0)])
        with pytest.raises(ValueError):
            systems_equivalent(capped, capped)


class TestProjectionExperiment:
    def test_closed_projection_is_the_direct_system(self):
        # the closure of the projection is the four direct rows plus nonnegativity
        coup = random_inner_coupling(np.random.default_rng(1))
        s = project_binning_system(binning_constraint_system(coup.joint()))
        assert systems_equivalent(upward_closure(s), theorem_rate_system(coup.joint())).agree

    def test_projection_matches_direct_system(self):
        rng = np.random.default_rng(7)
        for ci in range(3):
            j = random_inner_coupling(rng).joint()
            reports = projection_matches_rate_system(binning_constraint_system(j),
                                                     theorem_rate_system(j))
            assert len(reports) == 6
            assert all(rep.agree for _, rep in reports)

    @pytest.mark.parametrize("order", [("Rt0", "Rt1"), ("Rt0", "Rt0", "Rt2"),
                                       ("Rb1", "Rt0", "Rt1"), ("Rt0", "Rt1", "Rt2", "Rt0")],
                             ids=["two-rates", "repeated", "unknown-rate", "four-rates"])
    def test_order_must_be_a_permutation_of_the_binning_rates(self, order):
        base = binning_constraint_system(random_inner_coupling(np.random.default_rng(7)).joint())
        with pytest.raises(ValueError, match="permutation"):
            project_binning_system(base, order)

    def test_raw_projection_is_strictly_smaller(self):
        # the un-closed projection carries rate caps the direct system lacks
        rng = np.random.default_rng(7)
        j = random_inner_coupling(rng).joint()
        base, direct = binning_constraint_system(j), theorem_rate_system(j)
        box = [(0.0, entropy(j, ("W", "V", "U")) + 1.0)] * len(PROJECTED_VARS)
        verdicts = []
        for order in itertools.permutations(("Rt0", "Rt1", "Rt2")):
            raw = project_binning_system(base, order)
            verdicts.append(systems_equivalent_sampled(raw.a, raw.b, direct.a, direct.b, box,
                                                       n_samples=500, seed=0)[0])
        assert not all(verdicts)

    def test_elimination_order_independence(self):
        rng = np.random.default_rng(3)
        base = binning_constraint_system(random_inner_coupling(rng).joint())
        projections = [project_binning_system(base, order)
                       for order in itertools.permutations(("Rt0", "Rt1", "Rt2"))]
        box = [(0.0, 3.0)] * 4
        first = projections[0]
        for other in projections[1:]:
            agree, _, _ = systems_equivalent_sampled(first.a, first.b, other.a, other.b, box,
                                                     n_samples=400, seed=0)
            assert agree

    def test_exact_check_agrees_with_sampling_oracle(self):
        # each coupling's direct system as is and with one row moved by 0.05,
        # which sampling can see, against all six projections
        rng = np.random.default_rng(11)
        seen = set()
        for ci in range(4):
            j = random_inner_coupling(rng).joint()
            base, direct = binning_constraint_system(j), theorem_rate_system(j)
            box = [(0.0, entropy(j, ("W", "V", "U")) + 1.0)] * len(PROJECTED_VARS)
            for other in (direct, shifted(direct, ci, 0.05 if ci % 2 else -0.05)):
                for order, rep in projection_matches_rate_system(base, other):
                    closed = upward_closure(project_binning_system(base, order))
                    agree, _, _ = systems_equivalent_sampled(closed.a, closed.b, other.a,
                                                             other.b, box, seed=ci)
                    assert rep.agree == agree, (ci, order)
                    seen.add(agree)
        assert seen == {True, False}

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

    def test_simplify_without_variables(self):
        s = fme_eliminate(sys_of(["x"], [({"x": 1}, "<", 1.0), ({"x": -1}, "<=", -2.0),
                                         ({"x": -1}, "<=", 0.0)]), "x")
        out = simplify(s)
        assert_same(out, simplify_loop(s.a, s.b, s.strict))
        assert out.a.shape == (1, 0) and out.b[0] == -1.0 and bool(out.strict[0])

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


def random_batch(rng, nrows, nvars, couplings, coeffs=(-2, 3)):
    """One coefficient matrix (small integers) with ``couplings`` columns of
    coarse-grid constants and ~40% strict flags each."""
    a = rng.integers(*coeffs, size=(nrows, nvars)).astype(float)
    a[rng.random(a.shape) < 0.3] = 0.0      # some all-zero rows, trivial in some columns only
    b = rng.choice([-0.5, 0.0, 0.5, 1.0, 1.5], size=(nrows, couplings))
    return LinearSystem([f"x{k}" for k in range(nvars)], a, b, rng.random(b.shape) < 0.4)


def row_set(a, b, strict):
    return {(tuple(r), float(c), bool(t)) for r, c, t in zip(a, b, strict)}


class TestBatch:
    """A batch shares one coefficient matrix across couplings; each column
    must describe the region its coupling's lone system describes."""

    def test_simplify_keeps_each_columns_rows_and_region(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            s = random_batch(rng, int(rng.integers(0, 12)), int(rng.integers(1, 4)), 3)
            out = simplify(s)
            assert out.b.shape == (out.nrows, 3) and out.strict.shape == out.b.shape
            pts = rng.uniform(-2, 2, size=(300, len(s.variables)))
            for k, col in enumerate(out.columns):
                ref = simplify_loop(s.a, s.b[:, k], s.strict[:, k])
                assert row_set(*ref) <= row_set(col.a, col.b, col.strict)
                assert np.array_equal(col.contains(pts), LinearSystem(s.variables, *ref).contains(pts))

    def test_drop_dominated_keeps_each_columns_rows_and_region(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            nvars = int(rng.integers(1, 4))
            s = random_batch(rng, int(rng.integers(1, 12)), nvars, 3, coeffs=(-2, 1))
            orthant = LinearSystem(s.variables, -np.eye(nvars), np.zeros((nvars, 3)),
                                   np.zeros((nvars, 3), dtype=bool))
            s = simplify(LinearSystem(s.variables, np.vstack([s.a, orthant.a]),
                                      np.vstack([s.b, orthant.b]),
                                      np.vstack([s.strict, orthant.strict])))
            out = fme._drop_dominated(s)
            pts = rng.uniform(0, 2, size=(300, nvars))
            for k, (col, before) in enumerate(zip(out.columns, s.columns)):
                keep = drop_dominated_loop(s.a, s.b[:, k], s.strict[:, k])
                assert row_set(s.a[keep], s.b[keep, k], s.strict[keep, k]) <= \
                    row_set(col.a, col.b, col.strict)
                assert np.array_equal(col.contains(pts), before.contains(pts))
                lone = fme._drop_dominated(before)
                assert row_set(lone.a, lone.b, lone.strict) == \
                    row_set(s.a[keep], s.b[keep, k], s.strict[keep, k])

    def test_drop_dominated_in_chunks_of_row_pairs(self, monkeypatch):
        rng = np.random.default_rng(35)
        batches = [random_batch(rng, int(rng.integers(2, 30)), int(rng.integers(1, 4)), 3,
                   coeffs=(-2, 1)) for _ in range(40)]

        def pruned():
            return [[x.tobytes() for x in (t.a, t.b, t.strict)]
                    for t in map(fme._drop_dominated, batches)]
        expect = pruned()
        for chunk in (1, 50):
            monkeypatch.setattr(fme, "PAIR_CHUNK", chunk)
            assert pruned() == expect
        assert sum(len(t.a) < len(s.a) for t, s in zip(map(fme._drop_dominated, batches), batches)) >= 10

    def test_closure_columns_match_lone_closures(self):
        rng = np.random.default_rng(33)
        joints = [random_inner_coupling(rng).joint() for _ in range(8)]
        lone = [(binning_constraint_system(j), theorem_rate_system(j)) for j in joints]
        base, direct = coupling_systems(np.stack([j.table for j in joints]))
        batched = projection_matches_rate_system(base, direct)
        assert len(batched) == 8
        for (b, d), reports in zip(lone, batched):
            expect = projection_matches_rate_system(b, d)
            assert [(o, r.agree, r.vertices) for o, r in reports] == \
                [(o, r.agree, r.vertices) for o, r in expect]
        for order in itertools.permutations(("Rt0", "Rt1", "Rt2")):
            closed = upward_closure(project_binning_system(base, order)).columns
            for (b, _), col in zip(lone, closed):
                assert systems_equivalent(col, upward_closure(project_binning_system(b, order))).agree

    def test_coupling_systems_match_lone_couplings_and_the_row_oracle(self):
        # each batched joint is its lone coupling's to the bit, and each column's constants are
        # those the row-by-row construction makes from that coupling's own entropies
        for seed in range(30):
            joints = random_inner_joints(np.random.default_rng(seed), 20)
            assert joints.shape == (20, 2, 2, 2, 2, 2)
            base, direct = coupling_systems(joints)
            rng = np.random.default_rng(seed)
            for k in range(20):
                j = random_inner_coupling(rng).joint().table
                assert joints[k].tobytes() == j.tobytes()
                h = subset_entropies(j[None], INNER_SUBSETS)[0].tolist()
                for batch, variables, rows in zip((base, direct), (RATE_VARS, PROJECTED_VARS),
                                                  rate_system_rows(h)):
                    want = LinearSystem.from_rows(variables, rows)
                    assert batch.variables == want.variables and np.array_equal(batch.a, want.a)
                    assert batch.b[:, k].tobytes() == want.b.tobytes()
                    assert np.array_equal(batch.strict[:, k], want.strict)

    def test_lone_system_is_the_batch_of_one(self):
        j = random_inner_coupling(np.random.default_rng(34)).joint()
        s = binning_constraint_system(j)
        one = LinearSystem(s.variables, s.a, s.b[:, None], s.strict[:, None])
        for order in itertools.permutations(("Rt0", "Rt1", "Rt2")):
            lone = upward_closure(project_binning_system(s, order))
            col, = upward_closure(project_binning_system(one, order)).columns
            assert col.to_text() == lone.to_text()

    def test_batch_constants_need_a_column_per_flag(self):
        s = sys_of(["x"], [({"x": 1}, "<=", 1.0)])
        with pytest.raises(ValueError, match="inconsistent"):
            LinearSystem(s.variables, s.a, np.ones((1, 2)), np.zeros((1, 3), dtype=bool))


def vertex_sets(s):
    """Each column's vertices from one batched enumeration of ``s``, as sets rounded to 9 digits."""
    verts, col = fme._vertices(*fme._lower_form(s))
    return [{tuple(float(c) + 0.0 for c in np.round(v, 9)) for v in verts[col == k]}
            for k in range(len(s.columns))]


def lone_oracle(s):
    """The brute-force vertex set of a lone upward-closed system within x >= 0."""
    n = s.a.shape[1]
    return vertices_bruteforce(np.vstack([-s.a, np.eye(n)]), np.concatenate([-s.b, np.zeros(n)]))


class TestVertexBatch:
    """One lazy enumeration serves every column of a batch: each column gets
    the vertices, verdict and count its lone system gets."""

    def batch(self, seed, couplings):
        return coupling_systems(random_inner_joints(np.random.default_rng(seed), couplings))

    def test_each_column_is_the_bruteforce_vertex_set(self):
        base, direct = self.batch(51, 3)
        systems = [direct] + [upward_closure(project_binning_system(base, order))
                              for order in itertools.permutations(("Rt0", "Rt1", "Rt2"))]
        for s in systems:
            got = vertex_sets(s)
            assert min(map(len, got)) > 0
            assert got == [lone_oracle(col) for col in s.columns]

    def test_degenerate_systems_are_the_bruteforce_vertex_set(self):
        v4, nonneg = TestExactEquivalence.V4, TestExactEquivalence.NONNEG
        row = ({"x1": -1, "x3": -2}, "<=", -1.0)
        systems = [
            [({"x1": -1, "x2": -1}, "<=", -1.0), ({"x1": -2, "x2": -2}, "<=", -2.0)],
            [row, row],
            [({"x1": -1, v: -1}, "<=", -1.0) for v in v4[1:]],
            [({"x1": -1, "x2": -1}, "<=", -1.0),
             ({"x1": -0.5, "x2": -500, "x3": -500, "x4": -500}, "<=", -(0.5 + 0.5e-6))],
        ]
        for rows in systems:
            s = sys_of(v4, rows + nonneg)
            assert vertex_sets(batch_of([s])) == [lone_oracle(s)]

    def test_one_shifted_column_disagrees_alone(self):
        base, direct = self.batch(52, 6)
        closed = upward_closure(project_binning_system(base))
        lone = [systems_equivalent(c, d) for c, d in zip(closed.columns, direct.columns)]
        assert all(r.agree for r in lone)
        for row in range(4):
            for delta in (1e-6, -1e-6):
                b = direct.b.copy()
                b[row, 2] += delta
                moved = LinearSystem(direct.variables, direct.a, b, direct.strict)
                reports = systems_equivalent(closed, moved)
                assert [r.agree for r in reports] == [k != 2 for k in range(6)], (row, delta)
                assert in_exactly_one(reports[2].counterexample, closed.columns[2], moved.columns[2])
                for k in (0, 1, 3, 4, 5):
                    assert (reports[k].vertices, reports[k].counterexample) == (lone[k].vertices, None)

    @pytest.mark.parametrize("chunk", [1, 13, 97])
    def test_basis_chunk_does_not_change_a_report(self, monkeypatch, chunk):
        base, direct = self.batch(53, 6)
        b = direct.b.copy()
        b[1, 4] -= 1e-6
        direct = LinearSystem(direct.variables, direct.a, b, direct.strict)

        def reports():
            return [[(o, r.agree, r.vertices, None if r.counterexample is None
                      else r.counterexample.tobytes()) for o, r in per]
                    for per in projection_matches_rate_system(base, direct)]
        expect = reports()
        monkeypatch.setattr(fme, "BASIS_CHUNK", chunk)
        assert reports() == expect
        assert sum(not r[1] for per in expect for r in per) == 6

    def test_columns_whose_lone_row_sets_differ(self, monkeypatch):
        # column 0 needs the cut row, which column 1 never takes in alone
        v4, nonneg = TestExactEquivalence.V4, TestExactEquivalence.NONNEG
        cut = {"x1": -0.5, "x2": -500, "x3": -500, "x4": -500}
        lone = [sys_of(v4, [({"x1": -1, "x2": -1}, "<=", -1.0), (cut, "<=", const)] + nonneg)
                for const in (-(0.5 + 0.5e-6), 1.0)]
        rounds = []
        bases = fme._bases
        monkeypatch.setattr(fme, "_bases", lambda rows, n: rounds.append(rows) or bases(rows, n))
        final = []
        for s in lone:
            rounds.clear()
            fme._vertices(*fme._lower_form(s))
            final.append(rounds[-1])
        assert final == [6, 5]
        for pair in (lone, lone[::-1]):   # the column that needs the cut first and last
            batch = batch_of(pair)
            assert vertex_sets(batch) == [lone_oracle(s) for s in pair]
            reports = systems_equivalent(batch, batch_of([lone[1], lone[1]]))
            expect = [systems_equivalent(s, lone[1]) for s in pair]
            assert [(r.agree, r.vertices) for r in reports] == [(r.agree, r.vertices) for r in expect]
            assert [r.agree for r in reports] == [s is lone[1] for s in pair]

    def test_batches_must_match(self):
        base, direct = self.batch(54, 2)
        closed = upward_closure(project_binning_system(base))
        with pytest.raises(ValueError, match="batch shape"):
            systems_equivalent(closed, direct.columns[0])


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

    def test_indented_comment_line_is_skipped(self):
        t = LinearSystem.from_text("vars: x y\n  # a note\n1*x + -1*y <= 2\n\t# another\n")
        assert t.variables == ("x", "y") and t.nrows == 1
        assert np.array_equal(t.a, [[1.0, -1.0]]) and np.array_equal(t.b, [2.0])

    @pytest.mark.parametrize("row, fault", [
        ("x <= 1", r"row 'x <= 1': term 'x' has no coefficient"),
        ("x*1 <= 1", r"row 'x\*1 <= 1': term 'x\*1' has 'x', not a number"),
        ("1*x <= one", r"row '1\*x <= one': constant has 'one', not a number"),
        ("1*x - 1*y <= 1", r"term '1\*x - 1\*y' is not one term; join terms by ' \+ '"),
        ("1*x <= 1 <= 2", r"row '1\*x <= 1 <= 2' has 2 relations, not one"),
    ])
    def test_a_malformed_row_is_named_with_its_fault(self, row, fault):
        with pytest.raises(ValueError, match=fault):
            LinearSystem.from_text(f"vars: x y\n{row}\n")
