"""End-to-end protocol runs: exactness, fixtures, and the slow oracle."""
import math
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from coordinet import osrb, pmf
from coordinet.osrb import (ProtocolCaps, ProtocolConfig, SequenceSpace, _mix_outputs,
                            bins_from_rate, make_binning, run_protocol, sweep)
from coordinet.pmf import StateSpaceTooLarge
from coordinet.pmf import ConditionalPmf
from coordinet.region import InnerCoupling, RateTuple, canonical_couplings
from coordinet.sources import builtin_coupling, dsbs, identical_uniform, independent_bits, load_source

from oracles import slow_protocol_law


def common_bit_config(n=2, rf=1.0, rb=0.0, rt=(0.0, 0.0, 0.0), seed=0):
    q = identical_uniform(2)
    return ProtocolConfig(q=q, coupling=builtin_coupling("w-from-y1", q), n=n,
                          rates=RateTuple(rf1=rf, rb1=rb, rf2=rf, rb2=rb),
                          tilde_rates=rt, seed=seed)


def oracle_joint(cfg):
    """The slow oracle's law for ``cfg``, with the binnings rebuilt exactly
    as run_protocol draws them."""
    coup = cfg.coupling
    nu, nv, nw = coup.p_uvw.sizes
    n = cfg.n
    rt0, rt1, rt2 = cfg.tilde_rates
    rate_map = {"g0": rt0, "g1": rt1, "b1": cfg.rates.rb1, "f1": cfg.rates.rf1,
                "g2": rt2, "b2": cfg.rates.rb2, "f2": cfg.rates.rf2}
    names = ("g0", "g1", "b1", "f1", "g2", "b2", "f2")
    seeds = np.random.SeedSequence(cfg.seed).generate_state(len(names))
    doms = {"g0": SequenceSpace(("W",), (nw,), n)}
    for k in ("g1", "b1", "f1"):
        doms[k] = SequenceSpace(("W", "V"), (nw, nv), n)
    for k in ("g2", "b2", "f2"):
        doms[k] = SequenceSpace(("W", "U"), (nw, nu), n)
    codes, num_bins = {}, {}
    for i, name in enumerate(names):
        nb, _ = bins_from_rate(n, rate_map[name])
        codes[name] = make_binning(doms[name], nb, int(seeds[i])).assignment
        num_bins[name] = nb
    p_wvu = coup.p_uvw.reorder(("W", "V", "U")).table
    chan1 = np.transpose(coup.chan_y1.table, (1, 0, 2)).reshape(nw * nv, -1)
    chan2 = np.transpose(coup.chan_y2.table, (1, 0, 2)).reshape(nw * nu, -1)
    return slow_protocol_law(p_wvu, chan1, chan2, n, codes, num_bins)


def coupling(name, q):
    """A builtin coupling; with a "-padded" suffix, its padding to (2, 2, 2),
    whose added symbols have uniform output rows, so both channels are dense."""
    if name.endswith("-padded"):
        return canonical_couplings(q, caps=(2, 2, 2))[name[:-len("-padded")]]
    return builtin_coupling(name, q)


class TestDegenerateCases:
    def test_independent_constant_coupling_exact(self):
        q = independent_bits()
        cfg = ProtocolConfig(q=q, coupling=builtin_coupling("const", q), n=2,
                             rates=RateTuple(0.5, 0.5, 0.5, 0.5),
                             tilde_rates=(0.5, 0.0, 0.0), seed=1)
        law = run_protocol(cfg)
        assert law.tv_marginal == pytest.approx(0.0, abs=1e-12)

    def test_no_information_gives_point_mass(self):
        # all rates zero: each node emits the lexicographically favored output
        for n in (2, 3):
            law = run_protocol(common_bit_config(n=n, rf=0.0))
            assert law.tv_marginal == pytest.approx(1.0 - 2.0 ** (-n), abs=1e-12)
            assert law.tv_marginal >= 0.4


class TestFixture:
    # seed picked from an exact-oracle scan; both forward binnings are
    # injective so the generous-rate run coordinates perfectly
    GOOD_SEED = 120

    def test_generous_rates_low_tv(self):
        law = run_protocol(common_bit_config(n=2, rf=1.0, seed=self.GOOD_SEED))
        assert law.tv_best_g <= 0.15

    def test_typical_seed_has_collisions(self):
        law = run_protocol(common_bit_config(n=2, rf=1.0, seed=0))
        assert law.tv_best_g >= 0.15


class TestExactnessInvariants:
    def params(self):
        for n in (2, 3):
            for rf, rt0 in ((1.0, 0.0), (1.4, 0.5), (0.5, 0.3)):
                yield common_bit_config(n=n, rf=rf, rt=(rt0, 0.0, 0.0), seed=7)

    def test_mass_and_marginal_agreement(self):
        for cfg in self.params():
            law = run_protocol(cfg)
            assert law.raw_mass == pytest.approx(1.0, abs=1e-9)
            marg_from_joint = law.joint_with_g.table.sum(axis=(0, 1, 2))
            assert np.abs(marg_from_joint - law.marginal_direct).sum() <= 1e-12

    def test_derandomization_inequality(self):
        for cfg in self.params():
            law = run_protocol(cfg)
            assert law.tv_best_g <= 2.0 * law.tv_with_uniform_g + 1e-9

    def test_seed_determinism(self):
        cfg = common_bit_config(n=3, rf=1.2, rt=(0.4, 0.0, 0.0), seed=99)
        a = run_protocol(cfg)
        b = run_protocol(cfg)
        assert np.array_equal(a.joint_with_g.table, b.joint_with_g.table)
        assert a.best_g == b.best_g and a.tv_best_g == b.tv_best_g

    def test_caps_enforced(self):
        cfg = common_bit_config(n=2)
        tight = ProtocolConfig(q=cfg.q, coupling=cfg.coupling, n=2, rates=cfg.rates,
                               tilde_rates=cfg.tilde_rates, seed=0,
                               caps=ProtocolCaps(wvu=8, y_pairs=8, with_g=8))
        with pytest.raises(StateSpaceTooLarge):
            run_protocol(tight)

    def test_caps_bound_mixing_array(self):
        # passes the wvu, y_pairs and gtot*k_y checks (k_y = 16); its 16 x 16
        # decoded (w,v), (w,u) sequence pairs exceed with_g, which must not
        # refuse the run: the live tuples are grouped, and the law is exact
        q = dsbs(0.1)
        cfg = ProtocolConfig(q=q, coupling=canonical_couplings(q, caps=(2, 2, 2))["uv-copy"],
                             n=2, rates=RateTuple(0.5, 0.5, 0.5, 0.5),
                             tilde_rates=(0.0, 0.0, 0.0), seed=0,
                             caps=ProtocolCaps(with_g=64))
        law = run_protocol(cfg)
        ref = oracle_joint(cfg)
        assert np.abs(law.joint_with_g.table.reshape(ref.shape) - ref).max() <= 1e-12

    def test_caps_bound_decoder_key_spaces(self):
        # g0 g1 b1 f1 = 16 * 16 bin keys for node 1 against with_g = 64,
        # while the joint with shared indices needs only k_y = 16 entries
        q = dsbs(0.1)
        cfg = ProtocolConfig(q=q, coupling=builtin_coupling("uv-copy", q), n=2,
                             rates=RateTuple(rf1=2.0, rb1=2.0, rf2=0.5, rb2=0.5),
                             tilde_rates=(0.0, 0.0, 0.0), seed=0, caps=ProtocolCaps(with_g=64))
        with pytest.raises(StateSpaceTooLarge, match="decoder key spaces"):
            run_protocol(cfg)
        plan = osrb._ProtocolPlan(replace(cfg, caps=ProtocolCaps(with_g=2 ** 16)))
        assert plan.n_keys == (256, 4)
        assert plan.chunk * 256 <= 2 ** 16 >> 8    # a chunk's decoder tables fit too

    def test_copy_w_n7_under_default_caps(self):
        # |W| = |Y1||Y2| = 4: 4^14 decoded (w, w) sequence pairs against
        # 4^7 live relay tuples, far past with_g for a dense mixing array
        q = dsbs(0.1)
        cfg = ProtocolConfig(q=q, coupling=builtin_coupling("copy-w", q), n=7,
                             rates=RateTuple(rf1=1.6, rb1=0.3, rf2=1.6, rb2=0.3),
                             tilde_rates=(0.0, 0.0, 0.0), seed=1)
        law = run_protocol(cfg)
        assert law.raw_mass == pytest.approx(1.0, abs=1e-9)
        marg_from_joint = law.joint_with_g.table.sum(axis=(0, 1, 2))
        assert np.abs(marg_from_joint - law.marginal_direct).sum() <= 1e-12
        assert law.tv_best_g <= 2.0 * law.tv_with_uniform_g

    def test_exact_past_n8(self):
        # uv-copy on dsbs-0.1 at n=9: 2^9 x 2^9 decoded pairs per shared index
        q = dsbs(0.1)
        cfg = ProtocolConfig(q=q, coupling=builtin_coupling("uv-copy", q), n=9,
                             rates=RateTuple(rf1=0.8, rb1=0.3, rf2=0.8, rb2=0.3),
                             tilde_rates=(0.0, 0.2, 0.0), seed=1)
        law = run_protocol(cfg)
        assert law.joint_with_g.table.shape[:3] == (1, 3, 1)
        assert law.raw_mass == pytest.approx(1.0, abs=1e-9)
        marg_from_joint = law.joint_with_g.table.sum(axis=(0, 1, 2))
        assert np.abs(marg_from_joint - law.marginal_direct).sum() <= 1e-12
        assert law.tv_best_g <= 2.0 * law.tv_with_uniform_g

    def test_rejects_infinite_rates(self):
        q = identical_uniform(2)
        with pytest.raises(ValueError):
            ProtocolConfig(q=q, coupling=builtin_coupling("w-from-y1", q), n=2,
                           rates=RateTuple(rf1=math.inf, rb1=0, rf2=1, rb2=0),
                           tilde_rates=(0, 0, 0), seed=0)


class TestMixOutputs:
    def test_dense_and_grouped_paths_agree_with_direct_sum(self):
        rng = np.random.default_rng(3)
        groups, k1, k2 = 3, 5, 4
        c1 = rng.random((k1, 3))
        c2 = rng.random((k2, 2))
        keys = rng.integers(0, groups * k1 * k2, size=60)
        w = rng.random(60)
        extra = np.array([0.5, 0.0, 0.25])  # a group with no extra mass still gets its key
        w *= 0.25 / w.sum()
        ref = np.zeros((groups, 3, 2))
        for key, wi in zip(keys, w):
            g, d = divmod(int(key), k1 * k2)
            ref[g] += wi * np.outer(c1[d // k2], c2[d % k2])
        ref += extra[:, None, None] * np.outer(c1[0], c2[0])
        # 60 terms make the dense 3 x 5 x 4 array pay; a cap of 59 entries
        # forces the grouped path
        for cap in (59, 60):
            for right_first in (True, False):
                got = _mix_outputs(keys, w, extra, c1, c2, cap, right_first)
                assert np.abs(got - ref).max() <= 1e-15

    @pytest.mark.parametrize("by_out", [(True, False), (False, True), (True, True)])
    def test_sides_keyed_by_output_agree_with_direct_sum(self, monkeypatch, by_out):
        # a side keyed by its output passes its output count; its key digit
        # is the output, as if its channel were the identity
        rng = np.random.default_rng(4)
        groups = 3
        chans = [ny if out else rng.random((k, ny)) for out, k, ny in zip(by_out, (5, 4), (3, 2))]
        rows = [np.eye(c) if np.ndim(c) == 0 else c for c in chans]
        m1, m2 = (len(r) for r in rows)
        origin = 1 * m2 + 1  # the extra mass lands at key pair (1, 1)
        keys = rng.integers(0, groups * m1 * m2, size=60)
        w = rng.random(60)
        extra = np.array([0.5, 0.0, 0.25])
        w *= 0.25 / w.sum()
        ref = np.zeros((groups, 3, 2))
        for key, wi in zip(keys, w):
            g, e = divmod(int(key), m1 * m2)
            ref[g] += wi * np.outer(rows[0][e // m2], rows[1][e % m2])
        ref += extra[:, None, None] * np.outer(rows[0][origin // m2], rows[1][origin % m2])
        grouped = []
        union1d = np.union1d  # called on the grouped path only
        monkeypatch.setattr(np, "union1d", lambda *a: grouped.append(1) or union1d(*a))
        # a cap of one entry forces the grouped path unless both sides are
        # keyed by output, where the dense array is the result itself
        for cap in (1, 10 ** 6):
            for right_first in (True, False):
                grouped.clear()
                got = _mix_outputs(keys, w, extra, *chans, cap, right_first, origin)
                assert np.abs(got - ref).max() <= 1e-15
                assert bool(grouped) == (cap == 1 and not all(by_out))


class TestAgainstSlowOracle:
    def test_exact_match_small_case(self):
        q = identical_uniform(2)
        coup = builtin_coupling("w-from-y1", q)
        for seed in (0, 3):
            cfg = ProtocolConfig(q=q, coupling=coup, n=2,
                                 rates=RateTuple(rf1=1.0, rb1=0.5, rf2=0.5, rb2=0.0),
                                 tilde_rates=(0.5, 0.0, 0.0), seed=seed)
            law = run_protocol(cfg)
            ref = oracle_joint(cfg)
            got = law.joint_with_g.table.reshape(ref.shape)
            assert np.abs(got - ref).max() <= 1e-12

    def test_exact_match_with_varying_auxiliaries(self):
        # both decoder spaces two-dimensional: exercises the grouped keys
        q = dsbs(0.1)
        cfg = ProtocolConfig(q=q, coupling=builtin_coupling("uv-copy", q), n=2,
                             rates=RateTuple(rf1=1.0, rb1=0.5, rf2=0.5, rb2=0.5),
                             tilde_rates=(0.0, 0.5, 0.0), seed=5)
        law = run_protocol(cfg)
        ref = oracle_joint(cfg)
        got = law.joint_with_g.table.reshape(ref.shape)
        assert np.abs(got - ref).max() <= 1e-12

    def test_exact_match_several_shared_indices_n3(self):
        # three g1 values and three backward bins per link: the (g, d1, d2)
        # scatter fills several shared-index slices of 8 x 8 decoded pairs
        q = dsbs(0.1)
        cfg = ProtocolConfig(q=q, coupling=builtin_coupling("uv-copy", q), n=3,
                             rates=RateTuple(rf1=1.0, rb1=0.5, rf2=0.5, rb2=0.5),
                             tilde_rates=(0.0, 0.5, 0.0), seed=5)
        law = run_protocol(cfg)
        assert law.num_bins["g1"] == 3
        ref = oracle_joint(cfg)
        got = law.joint_with_g.table.reshape(ref.shape)
        assert np.abs(got - ref).max() <= 1e-12

    # (coupling, source, forms of the (y1, y2) channels: 1 an index map, 2 a matrix)
    @pytest.mark.parametrize("name, source, forms", [
        ("uv-copy", "dsbs-0.1", (1, 1)),
        ("w-from-y1", "identical-uniform-2", (1, 1)),
        ("w-from-y1", "dsbs-0.1", (1, 2)),
        ("w-from-y2", "dsbs-0.1", (2, 1)),
        ("copy-w", "dsbs-0.1", (1, 1)),   # W = (Y1, Y2): several decoded inputs share an output
        ("const", "dsbs-0.1", (2, 2)),
        ("uv-copy-padded", "dsbs-0.1", (2, 2)),
    ])
    def test_each_channel_form_matches_oracle(self, name, source, forms):
        q = load_source(source)
        for n, seed in ((2, 5), (3, 1)):
            cfg = ProtocolConfig(q=q, coupling=coupling(name, q), n=n,
                                 rates=RateTuple(rf1=1.0, rb1=0.5, rf2=0.5, rb2=0.5),
                                 tilde_rates=(0.5, 0.5, 0.0), seed=seed)
            assert tuple(c.ndim for c in osrb._ProtocolPlan(cfg).chans) == forms
            law = run_protocol(cfg)
            ref = oracle_joint(cfg)
            assert np.abs(law.joint_with_g.table.reshape(ref.shape) - ref).max() <= 1e-12
            assert np.abs(law.marginal_direct - ref.sum(axis=0)).max() <= 1e-12

    def test_index_map_only_for_one_hot_rows(self):
        one_hot = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(osrb._sequence_channel(one_hot, 2), [3, 2, 3, 1, 0, 1, 3, 2, 3])
        # a zero row (an undefined conditional) or a split row keeps the matrix
        for rows in ([[0.0, 1.0], [0.0, 0.0]], [[0.5, 0.5], [1.0, 0.0]]):
            assert np.array_equal(osrb._sequence_channel(np.array(rows), 2),
                                  osrb.channel_matrix(np.array(rows), 2))

    def test_no_channel_matrix_for_a_one_hot_side(self, monkeypatch):
        built = []
        channel_matrix = osrb.channel_matrix
        monkeypatch.setattr(osrb, "channel_matrix",
                            lambda t, n: built.append(t.shape) or channel_matrix(t, n))
        q = dsbs(0.1)
        for name, dense in (("uv-copy", 0), ("copy-w", 0), ("w-from-y1", 1), ("w-from-y2", 1),
                            ("const", 2)):
            built.clear()
            run_protocol(ProtocolConfig(q=q, coupling=builtin_coupling(name, q), n=3,
                                        rates=RateTuple(1.0, 0.3, 1.0, 0.3),
                                        tilde_rates=(0.0, 0.0, 0.0), seed=1))
            assert len(built) == dense, name

    def test_empty_cells_land_at_the_first_inputs_outputs(self):
        # uv-copy with every output complemented: the first decoded input
        # maps to the last output sequence, where the empty cells' mass goes
        q = dsbs(0.1)
        c = builtin_coupling("uv-copy", q)
        flip = [ConditionalPmf(ch.given, ch.target, ch.table[..., ::-1]) for ch in (c.chan_y2, c.chan_y1)]
        cfg = ProtocolConfig(q=q, coupling=InnerCoupling(c.p_uvw, *flip), n=2,
                             rates=RateTuple(0.5, 0.5, 0.5, 0.5), tilde_rates=(0.0, 2.0, 0.0), seed=2)
        assert osrb._ProtocolPlan(cfg).origin == 3 * 4 + 3
        law = run_protocol(cfg)
        assert law.nocandidate_mass > 0
        ref = oracle_joint(cfg)
        assert np.abs(law.joint_with_g.table.reshape(ref.shape) - ref).max() <= 1e-12

    def test_empty_cells_fall_back(self):
        # more shared-index bins than sequences: some cells must be empty
        law = run_protocol(common_bit_config(n=2, rf=0.5, rt=(2.0, 0.0, 0.0), seed=2))
        assert law.nocandidate_mass > 0
        assert law.raw_mass == pytest.approx(1.0, abs=1e-9)


class TestSweep:
    def test_record_fields_and_trend(self):
        base = common_bit_config(n=2, rf=1.4)
        recs = sweep(base, [2, 4], list(range(10)), master_seed=11)
        assert len(recs) == 20
        for rec in recs:
            for key in ("n", "seed", "tv_marginal", "tv_best_g", "sw1_success",
                        "eff_rf1", "nocandidate_mass", "error"):
                assert key in rec
            assert not rec["error"]

    def test_constant_coupling_independent_source_all_cells_exact(self):
        q = independent_bits()
        base = ProtocolConfig(q=q, coupling=builtin_coupling("const", q), n=2,
                              rates=RateTuple(0.5, 0.5, 0.5, 0.5),
                              tilde_rates=(0.3, 0.2, 0.0), seed=0)
        recs = sweep(base, [2, 3], list(range(5)), master_seed=0)
        assert all(r["tv_marginal"] == 0.0 for r in recs)
        assert all(r["tv_with_uniform_g"] == 0.0 for r in recs)

    def test_margin_rates_median_nonincreasing(self):
        import statistics
        base = common_bit_config(n=2, rf=1.2)  # margin 0.2 inside the bounds
        recs = sweep(base, [2, 3, 4], list(range(20)), master_seed=11)
        med = {n: statistics.median(r["tv_best_g"] for r in recs if r["n"] == n)
               for n in (2, 3, 4)}
        assert med[3] <= med[2] and med[4] <= med[3], med

    def test_shared_index_rate_violation_keeps_tv_off_zero(self):
        # the coupling has H(W | Y1 Y2) = 0, so any positive shared-index
        # rate correlates g0 with the outputs; frozen floor from an exact run
        import statistics
        base = common_bit_config(n=2, rf=1.6, rt=(0.5, 0.0, 0.0))
        recs = sweep(base, [4], list(range(20)), master_seed=3)
        med = statistics.median(r["tv_with_uniform_g"] for r in recs)
        assert med >= 0.1

    def test_cell_errors_recorded_and_sweep_continues(self):
        q = identical_uniform(2)
        base = ProtocolConfig(q=q, coupling=builtin_coupling("w-from-y1", q), n=2,
                              rates=RateTuple(1.0, 0.0, 1.0, 0.0), tilde_rates=(0, 0, 0),
                              seed=0, caps=ProtocolCaps(wvu=300, y_pairs=300, with_g=2000))
        recs = sweep(base, [2, 6], [0, 1], master_seed=0)
        ok = [r for r in recs if not r["error"]]
        bad = [r for r in recs if r["error"]]
        assert len(ok) == 2 and len(bad) == 2
        assert all("StateSpaceTooLarge" in r["error"] for r in bad)


class TestSharedPlan:
    """Sweeps build the seed-independent set-up once per block length; a
    cell's record must not depend on whether a plan was shared."""

    RECORDED = ("tv_marginal", "tv_with_uniform_g", "tv_best_g", "sw1_success",
                "sw2_success", "nocandidate_mass")

    @staticmethod
    def base(name):
        # copy-w on identical-uniform-2 has relay tuples of prior 0
        q = dsbs(0.1) if name == "uv-copy" else identical_uniform(2)
        return ProtocolConfig(q=q, coupling=builtin_coupling(name, q), n=2,
                              rates=RateTuple(rf1=1.2, rb1=0.3, rf2=1.2, rb2=0.3),
                              tilde_rates=(0.3, 0.2, 0.1), seed=0)

    @pytest.mark.parametrize("name", ["uv-copy", "w-from-y1", "copy-w"])
    def test_sweep_matches_fresh_runs(self, name):
        base = self.base(name)
        one = sweep(base, [2, 3, 4, 5], [0, 1, 2], master_seed=5)
        assert sweep(base, [2, 3, 4, 5], [0, 1, 2], master_seed=5, threads=2) == one
        assert [(r["n"], r["seed"]) for r in one] == [(n, s) for n in (2, 3, 4, 5) for s in (0, 1, 2)]
        for rec in one:
            assert not rec["error"]
            law = run_protocol(replace(base, n=rec["n"], seed=rec["cell_seed"]))
            assert [rec[k] for k in self.RECORDED] == [getattr(law, k) for k in self.RECORDED]
            assert all(rec[k] == v for k, v in law.effective_rates.items())

    def test_threads_under_fast_switching(self):
        base = self.base("copy-w")
        one = sweep(base, [3, 4], list(range(6)), master_seed=2)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = sweep(base, [3, 4], list(range(6)), master_seed=2, threads=4)
        finally:
            sys.setswitchinterval(old)
        assert many == one

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_n_gives_every_cell_the_lone_error(self, threads):
        base = self.base("w-from-y1")
        recs = sweep(base, [0, 2, 11], [0, 1, 2], master_seed=0, threads=threads)
        expected = {}
        for n, exc_type in ((0, ValueError), (11, StateSpaceTooLarge)):
            with pytest.raises(exc_type) as info:
                run_protocol(replace(base, n=n))
            expected[n] = f"{exc_type.__name__}: {info.value}"
        assert [r["error"] for r in recs] == [expected[0]] * 3 + [""] * 3 + [expected[11]] * 3

    def test_no_plan_outlives_its_sweep_or_call(self, monkeypatch):
        made = []

        class Recorded(osrb._ProtocolPlan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(osrb, "_ProtocolPlan", Recorded)
        base = self.base("w-from-y1")
        sweep(base, [2, 3], [0, 1], threads=2)
        run_protocol(replace(base, n=4))
        assert len(made) == 3
        assert all(ref() is None for ref in made)


class TestBatchedSeeds:
    """A sweep runs each chunk of a block length's seeds as one batch; each
    seed's law must be the one a lone run gives, bit for bit."""

    FIELDS = ("raw_mass", "tv_marginal", "tv_with_uniform_g", "best_g", "tv_best_g",
              "sw1_success", "sw2_success", "nocandidate_mass", "effective_rates", "num_bins",
              "binning_seeds")

    # grouped: whether the mixing takes the grouped path.  Both channels of
    # uv-copy, copy-w and w-from-y1 on identical-uniform-2 are index maps,
    # so their mixing is one bincount whatever with_g is
    @pytest.mark.parametrize("name, q, n, rates, with_g, grouped", [
        ("uv-copy", dsbs(0.1), 3, (0.8, 0.3, (0.0, 0.0, 0.0)), 2 ** 24, False),
        ("uv-copy", dsbs(0.1), 4, (0.8, 0.3, (0.0, 0.5, 0.0)), 2 ** 24, False),
        ("w-from-y1", identical_uniform(2), 3, (1.2, 0.3, (0.4, 0.2, 0.1)), 2 ** 24, False),
        ("copy-w", dsbs(0.1), 2, (1.0, 0.5, (0.0, 0.5, 0.0)), 64, False),
        ("w-from-y1", dsbs(0.1), 4, (1.2, 0.3, (0.4, 0.2, 0.1)), 2 ** 24, True),
        ("w-from-y2", dsbs(0.1), 4, (1.2, 0.3, (0.4, 0.2, 0.1)), 2 ** 24, True),
        ("uv-copy-padded", dsbs(0.1), 2, (1.0, 0.5, (0.0, 0.5, 0.0)), 64, True),
    ])
    def test_batch_equals_lone_runs(self, monkeypatch, name, q, n, rates, with_g, grouped):
        rf, rb, rt = rates
        base = ProtocolConfig(q=q, coupling=coupling(name, q), n=n,
                              rates=RateTuple(rf1=rf, rb1=rb, rf2=rf, rb2=rb), tilde_rates=rt,
                              seed=0, caps=ProtocolCaps(with_g=with_g))
        grouped_calls = []
        union1d = np.union1d  # called on the grouped mixing path only
        monkeypatch.setattr(np, "union1d", lambda *a: grouped_calls.append(1) or union1d(*a))
        seeds = [3, 1, 4, 1, 5, 9, 2, 6]
        plan = osrb._ProtocolPlan(base, shared=True)
        stacked = osrb._run_seeds(plan, seeds)
        assert bool(grouped_calls) == grouped
        batch = [osrb._law(plan, stacked, s) for s in range(len(seeds))]
        for seed, law in zip(seeds, batch):
            lone = run_protocol(replace(base, seed=seed))
            assert np.array_equal(law.joint_with_g.table, lone.joint_with_g.table)
            assert np.array_equal(law.marginal_direct, lone.marginal_direct)
            assert [getattr(law, k) for k in self.FIELDS] == [getattr(lone, k) for k in self.FIELDS]
        assert plan.gtot > 1 or rt == (0.0, 0.0, 0.0)

    def test_small_cap_forces_chunks_with_the_same_records(self):
        base = common_bit_config(n=2, rf=1.4)
        small = replace(base, caps=ProtocolCaps(with_g=2 ** 17))
        assert osrb._ProtocolPlan(replace(small, n=4)).chunk == 2
        assert osrb._ProtocolPlan(replace(base, n=4)).chunk >= 7
        recs = sweep(small, [3, 4], list(range(7)), master_seed=8)
        assert recs == sweep(base, [3, 4], list(range(7)), master_seed=8)
        for rec in recs:
            law = run_protocol(replace(small, n=rec["n"], seed=rec["cell_seed"]))
            assert rec["tv_best_g"] == law.tv_best_g and rec["sw1_success"] == law.sw1_success

    def test_failing_seed_is_recorded_on_its_cell_only(self, monkeypatch):
        base = common_bit_config(n=2, rf=1.4, rt=(0.3, 0.0, 0.0))
        good = sweep(base, [3], list(range(6)), master_seed=1)
        bad_cell = good[2]["cell_seed"]
        bad_draw = int(np.random.SeedSequence(bad_cell).generate_state(7)[3])  # its f1 map
        make_binning = osrb.make_binning

        def failing(domain, num_bins, seed, *args):
            if seed == bad_draw:
                raise MemoryError(f"cannot draw {domain.size} bins")
            return make_binning(domain, num_bins, seed, *args)

        monkeypatch.setattr(osrb, "make_binning", failing)
        with pytest.raises(MemoryError) as info:
            run_protocol(replace(base, n=3, seed=bad_cell))
        recs = sweep(base, [3], list(range(6)), master_seed=1)
        assert recs[2]["error"] == f"MemoryError: {info.value}"
        assert recs[:2] + recs[3:] == good[:2] + good[3:]

    def test_failing_check_records_the_lone_error(self, monkeypatch):
        # with no normalization tolerance, a law whose mass sums to 1 only up
        # to rounding fails its check: the sweep's stacked checks must flag
        # the same cells a lone run fails, with the same error
        monkeypatch.setattr(pmf, "SUM_TOL", 0.0)
        base = common_bit_config(n=2, rf=1.4, rt=(0.3, 0.0, 0.0))
        recs = sweep(base, [3, 4], list(range(8)), master_seed=1)
        failed = 0
        for rec in recs:
            try:
                law = run_protocol(replace(base, n=rec["n"], seed=rec["cell_seed"]))
            except pmf.NotNormalized as exc:
                failed += 1
                assert rec["error"] == f"NotNormalized: {exc}"
            else:
                assert not rec["error"]
                assert [rec[k] for k in osrb.LAW_FIELDS] == [getattr(law, k) for k in osrb.LAW_FIELDS]
        assert 0 < failed < len(recs)

    def test_failing_derandomization_records_the_lone_error(self, monkeypatch):
        # a stricter derandomization test fails some cells: the sweep must
        # fail the cells a lone run fails, with the same error
        monkeypatch.setattr(osrb, "_derandomization_fails", lambda best, uniform: best > 0.9 * uniform)
        base = common_bit_config(n=2, rf=1.4, rt=(0.3, 0.0, 0.0))
        recs = sweep(base, [3, 4], list(range(8)), master_seed=1)
        failed = 0
        for rec in recs:
            try:
                run_protocol(replace(base, n=rec["n"], seed=rec["cell_seed"]))
            except RuntimeError as exc:
                failed += 1
                assert rec["error"] == f"RuntimeError: {exc}"
            else:
                assert not rec["error"]
        assert 0 < failed < len(recs)
