"""Binnings, uniformity of induced bin laws, and bin decoding."""
import math
import statistics

import numpy as np
import pytest

from coordinet import osrb
from coordinet.osrb import (BinningCode, SequenceSpace, _bin_keys, _decoder_table, bins_from_rate,
                            make_binning, merge_sequences, osrb_uniformity, split_sequences)
from coordinet.pmf import JointPmf, StateSpaceTooLarge, make_joint
from coordinet.sources import dsbs

from oracles import (binary_entropy, merge_sequences_loop, osrb_uniformity_loop,
                     split_sequences_loop, sw_decode_loop, sw_success_prob_loop)


def space(sizes, n, names=None):
    names = names or tuple(f"X{i}" for i in range(len(sizes)))
    return SequenceSpace(names, sizes, n)


def sw_success_prob(p, groups, n):
    """Probability that argmax decoding per bin key (_decoder_table, as
    each protocol node decodes) recovers the grouped variables of ``p``
    extended to n symbols from their bins (_bin_keys) plus the side
    variables, those in no group.  The extension lists the decoded
    variables first, in group order, so ties go to the first decoded tuple."""
    decoded = list(dict.fromkeys(v for vars_g, _ in groups for v in vars_g))
    ext = p.reorder(decoded + [v for v in p.names if v not in decoded]).iid_extend(n)
    combined, side, n_combo, n_side = _bin_keys(ext, groups, n)
    keys = side * n_combo + combined
    prior = ext.table.ravel()
    table = _decoder_table(prior, keys, n_side * n_combo)
    return float(prior[table[keys] == np.arange(prior.size)].sum())


class TestSequenceIndexing:
    def test_split_merge_roundtrip(self):
        idx = np.arange(6 ** 3)
        comps = split_sequences(idx, (2, 3), 3)
        assert np.array_equal(merge_sequences(comps, (2, 3), 3), idx)

    @pytest.mark.parametrize("n", [True, 2.0, 0])
    def test_rejects_a_block_length_that_is_not_a_positive_int(self, n):
        with pytest.raises(ValueError, match="n: block length"):
            SequenceSpace(("W",), (2,), n)

    def test_msb_first_convention(self):
        # sequence (1, 0) over a binary alphabet has index 2
        comps = split_sequences(np.array([2]), (2,), 2)
        assert comps[0][0] == 2

    def test_match_digit_loops(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            sizes = tuple(int(k) for k in rng.integers(1, 5, size=rng.integers(1, 4)))
            n = int(rng.integers(1, 5))
            while math.prod(sizes) ** n > 5000:
                n -= 1
            total = math.prod(sizes) ** n
            for idx in (np.arange(total), rng.integers(0, total, size=17)):
                comps = split_sequences(idx, sizes, n)
                ref = split_sequences_loop(idx, sizes, n)
                assert all(np.array_equal(c, r) for c, r in zip(comps, ref))
                assert np.array_equal(merge_sequences(comps, sizes, n),
                                      merge_sequences_loop(ref, sizes, n))


class TestMakeBinning:
    def test_single_bin(self):
        code = make_binning(space((2,), 3), 1, seed=0)
        assert np.all(code.assignment == 0)

    def test_deterministic_from_seed(self):
        a = make_binning(space((2,), 4), 5, seed=42)
        b = make_binning(space((2,), 4), 5, seed=42)
        assert np.array_equal(a.assignment, b.assignment)
        c = make_binning(space((2,), 4), 5, seed=43)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_birthday_collision_statistics(self):
        # pairs sharing a bin, 16 sequences into 16 bins, across 100 seeds
        m, k = 16, 16
        total = 0
        for seed in range(100):
            code = make_binning(space((2,), 4), k, seed=seed)
            counts = np.bincount(code.assignment, minlength=k)
            total += int((counts * (counts - 1) // 2).sum())
        mean_pairs = m * (m - 1) / 2 / k  # binomial collision model
        var_pairs = m * (m - 1) / 2 * (1 / k) * (1 - 1 / k)
        sigma = math.sqrt(var_pairs * 100)
        assert abs(total - 100 * mean_pairs) <= 3 * sigma

    def test_domain_cap(self):
        with pytest.raises(StateSpaceTooLarge):
            make_binning(space((4,), 12), 2, seed=0)

    def test_draws_the_seeded_stream_read_only(self):
        for num_bins in (1, 3):
            code = make_binning(space((2, 3), 2), num_bins, seed=9)
            rng = np.random.Generator(np.random.PCG64(9))
            assert np.array_equal(code.assignment, rng.integers(0, num_bins, size=36))
            assert code.assignment.dtype == np.int64 and not code.assignment.flags.writeable
            assert (code.domain.size, code.num_bins, code.seed) == (36, num_bins, 9)

    @pytest.mark.parametrize("num_bins, assignment", [
        (2, [0, 2, 1, 0]),    # a bin index past num_bins
        (2, [0, -1, 1, 0]),   # a negative bin index
        (2, [0, 1, 1]),       # does not cover the domain
        (0, [0, 0, 0, 0]),    # no bins
    ])
    def test_hand_built_code_is_checked(self, num_bins, assignment):
        with pytest.raises(ValueError):
            BinningCode(space((2,), 2), num_bins, np.array(assignment), seed=0)


class TestBinsFromRate:
    def test_exact_power(self):
        assert bins_from_rate(4, 0.5) == (4, pytest.approx(0.5))

    def test_rounding(self):
        num, eff = bins_from_rate(3, 0.5)
        assert num == 3
        assert eff == pytest.approx(math.log2(3) / 3, abs=1e-12)

    def test_zero_rate(self):
        assert bins_from_rate(7, 0.0) == (1, 0.0)

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            bins_from_rate(2, math.inf)

    @pytest.mark.parametrize("n", [2, 4])
    def test_rejects_bin_counts_past_int64(self, n):
        with pytest.raises(ValueError, match=f"rate 300.0 at n={n}"):
            bins_from_rate(n, 300.0)
        assert bins_from_rate(n, 62 / n)[0] == 2 ** 62


class TestUniformity:
    def test_even_split_is_uniform(self):
        p = make_joint([("X", 2)], [0.5, 0.5])
        code = BinningCode(space((2,), 1, ("X",)), 2, np.array([0, 1]), seed=0)
        assert osrb_uniformity(p, [[(("X",), code)]], 1) == [pytest.approx(0.0, abs=1e-15)]

    def test_everything_in_one_of_two_bins(self):
        p = make_joint([("X", 2)], [0.5, 0.5])
        code = BinningCode(space((2,), 1, ("X",)), 2, np.array([0, 0]), seed=0)
        assert osrb_uniformity(p, [[(("X",), code)]], 1) == [pytest.approx(0.5, abs=1e-15)]

    def test_single_bin_always_exact(self):
        rng = np.random.default_rng(0)
        t = rng.gamma(1.0, size=4)
        p = make_joint([("X", 2), ("Y", 2)], t / t.sum())
        code = make_binning(space((2,), 2, ("X",)), 1, seed=1)
        assert osrb_uniformity(p, [[(("X",), code)]], 2) == [pytest.approx(0.0, abs=1e-12)]

    def test_overlapping_groups(self):
        # composite sources sharing a component are binned independently
        p = make_joint([("W", 2), ("V", 2)], np.full(4, 0.25))
        c1 = make_binning(space((2,), 2, ("W",)), 2, seed=0)
        c2 = make_binning(space((2, 2), 2, ("W", "V")), 2, seed=1)
        [tv] = osrb_uniformity(p, [[(("W",), c1), (("W", "V"), c2)]], 2)
        assert 0.0 <= tv <= 1.0


class TestUniformityBatch:
    """One osrb_uniformity call checks a block length's seeds: each TV
    equals a lone call's bit for bit, and the extension and each group's
    sequence index are built once, not once per seed."""

    def test_batch_equals_lone_calls(self, monkeypatch):
        rng = np.random.default_rng(4)
        t = rng.gamma(1.0, size=12)
        p = make_joint([("W", 2), ("V", 3), ("U", 2)], t / t.sum())
        n = 3
        seed_groups = [[(("W",), make_binning(space((2,), n, ("W",)), 3, seed)),
                        (("W", "V"), make_binning(space((2, 3), n, ("W", "V")), 4, seed + 50))]
                       for seed in range(4)]
        # another grouping (side U alone, groups out of name order) in the same batch
        seed_groups.insert(2, [(("V", "W"), make_binning(space((3, 2), n, ("V", "W")), 5, 9))])
        lone = [tv for groups in seed_groups for tv in osrb_uniformity(p, [groups], n)]
        counts = {"iid_extend": 0, "merge_sequences": 0}

        def counted(name, fn):
            return lambda *a, **k: counts.__setitem__(name, counts[name] + 1) or fn(*a, **k)
        monkeypatch.setattr(osrb, "merge_sequences", counted("merge_sequences", osrb.merge_sequences))
        monkeypatch.setattr(JointPmf, "iid_extend", counted("iid_extend", JointPmf.iid_extend))
        assert osrb_uniformity(p, seed_groups, n) == lone
        assert counts == {"iid_extend": 1, "merge_sequences": 3}


class TestSwDecode:
    """A node's decoder table: per bin key, the input of highest prior."""

    def test_injective_binning_recovers_exactly(self):
        rng = np.random.default_rng(2)
        prior = rng.gamma(1.0, size=8)  # over a sequence space, n=3 binary
        code = BinningCode(space((2,), 3, ("X",)), 8, np.arange(8), seed=0)
        table = _decoder_table(prior / prior.sum(), code.assignment, code.num_bins)
        for target in range(8):
            assert table[target] == target

    def test_all_ones_binning_returns_peak(self):
        prior = np.full(8, 0.05)
        prior[5] = 0.65
        code = BinningCode(space((2,), 3, ("X",)), 1, np.zeros(8, dtype=int), seed=0)
        assert _decoder_table(prior, code.assignment, code.num_bins).tolist() == [5]

    def test_empty_intersection_is_no_candidate(self):
        prior = np.full(4, 0.25)
        c1 = BinningCode(space((2,), 2, ("X",)), 2, np.array([0, 0, 1, 1]), seed=0)
        c2 = BinningCode(space((2,), 2, ("X",)), 2, np.array([0, 0, 1, 1]), seed=0)
        keys = c1.assignment * c2.num_bins + c2.assignment
        table = _decoder_table(prior, keys, c1.num_bins * c2.num_bins)
        assert table[0 * c2.num_bins + 1] == -1

    def test_lexicographic_tie_break(self):
        prior = np.full(4, 0.25)
        code = BinningCode(space((2,), 2, ("X",)), 2, np.array([0, 1, 0, 1]), seed=0)
        assert _decoder_table(prior, code.assignment, code.num_bins).tolist() == [0, 1]

    @pytest.mark.parametrize("bin_index", [-1, 2, 5])
    def test_out_of_range_bin_index_raises(self, bin_index):
        # a key past the key count is a caller's error, not an empty preimage
        prior = np.full(4, 0.25)
        code = BinningCode(space((2,), 2, ("X",)), 2, np.array([0, 0, 1, 1]), seed=0)
        keys = np.r_[code.assignment[:3], bin_index]
        with pytest.raises(ValueError, match="outside"):
            _decoder_table(prior, keys, code.num_bins)


class TestSwSuccess:
    def test_injective_always_succeeds(self):
        p = make_joint([("X", 2)], [0.3, 0.7])
        code = BinningCode(space((2,), 2, ("X",)), 4, np.arange(4), seed=0)
        assert sw_success_prob(p, [(("X",), code)], 2) == pytest.approx(1.0, abs=1e-12)

    def test_single_bin_uniform_picks_first(self):
        k = 4
        p = make_joint([("X", k)], np.full(k, 1 / k))
        code = BinningCode(space((k,), 1, ("X",)), 1, np.zeros(k, dtype=int), seed=0)
        assert sw_success_prob(p, [(("X",), code)], 1) == pytest.approx(1 / k, abs=1e-12)

    def test_copy_source_with_side_information(self):
        # X = Y: decoding X^6 from any positive-rate bins plus Y^6 is exact
        p = make_joint([("X", 2), ("Y", 2)], [0.5, 0.0, 0.0, 0.5])
        num, _ = bins_from_rate(6, 0.2)
        for seed in range(20):
            code = make_binning(space((2,), 6, ("X",)), num, seed=seed)
            assert sw_success_prob(p, [(("X",), code)], 6) >= 0.99

    def test_dsbs_success_improves_with_block_length(self):
        # rate 0.7 > h(0.1): decode X^n from bins of X plus Y^n side info
        p = dsbs(0.1)
        p = make_joint([("X", 2), ("Y", 2)], p.table)
        assert 0.7 > binary_entropy(0.1)
        med = {}
        for n in (4, 8):
            num, _ = bins_from_rate(n, 0.7)
            vals = []
            for seed in range(20):
                code = make_binning(space((2,), n, ("X",)), num, seed=seed)
                vals.append(sw_success_prob(p, [(("X",), code)], n))
            med[n] = statistics.median(vals)
        assert med[8] >= med[4]


def _dyadic(rng, size, total=16):
    """A random pmf whose entries are multiples of 1/total: products and
    sums of its entries are exact, and equal entries make ties."""
    return rng.multinomial(total, np.full(size, 1 / size)) / total


def _random_groups(rng, names, sizes, n):
    """One to three groups of variables, each listed in a random order."""
    groups = []
    for _ in range(int(rng.integers(1, 4))):
        vars_g = [str(v) for v in rng.permutation(names)[:int(rng.integers(1, len(names) + 1))]]
        dom = SequenceSpace(vars_g, [sizes[names.index(v)] for v in vars_g], n)
        groups.append((vars_g, make_binning(dom, int(rng.integers(1, 6)), int(rng.integers(1 << 30)))))
    return groups


def _random_cases(seed, count=40, max_entries=512):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        names = ["A", "B", "C"][:int(rng.integers(1, 4))]
        sizes = [int(k) for k in rng.integers(1, 4, size=len(names))]
        n = 3
        while math.prod(sizes) ** n > max_entries:
            n -= 1
        yield rng, names, sizes, n, _random_groups(rng, names, sizes, n)
    # two side variables of more than one symbol each, which the side index
    # must keep apart
    dom = SequenceSpace(["B"], [2], 2)
    yield rng, ["A", "B", "C"], [2, 2, 3], 2, [(["B"], make_binning(dom, 3, int(rng.integers(1 << 30))))]


def _two_side(names, sizes, groups):
    """Whether at least two side variables have more than one symbol."""
    grouped = {v for g, _ in groups for v in g}
    return sum(k > 1 for v, k in zip(names, sizes) if v not in grouped) >= 2


class TestUniformityMatchesLoop:
    """The bin-index law's TV against a plain loop over every sequence
    tuple: side information, several groups and groups in non-name order."""

    def test_osrb_uniformity(self):
        seen = dict(side=0, two_side=0, unordered=0, several=0)
        for rng, names, sizes, n, groups in _random_cases(11):
            table = _dyadic(rng, math.prod(sizes)).reshape(sizes)
            p = make_joint(list(zip(names, sizes)), table)
            [got] = osrb_uniformity(p, [groups], n)
            ref = osrb_uniformity_loop(table, names,
                                       [(g, c.assignment, c.num_bins) for g, c in groups], n)
            assert abs(got - ref) <= 1e-12
            grouped = [v for g, _ in groups for v in g]
            seen["side"] += len(set(grouped)) < len(names)
            seen["two_side"] += _two_side(names, sizes, groups)
            seen["unordered"] += any(g != sorted(g) for g, _ in groups)
            seen["several"] += len(groups) > 1
        assert min(seen.values()) > 0, seen


class TestDecodersMatchLoops:
    """ML decoding against plain loops over every sequence tuple: ties,
    side information, several groups and groups in non-name order."""

    def test_sw_success_prob(self):
        seen = dict(side=0, two_side=0, unordered=0, several=0)
        for rng, names, sizes, n, groups in _random_cases(11):
            table = _dyadic(rng, math.prod(sizes)).reshape(sizes)
            p = make_joint(list(zip(names, sizes)), table)
            got = sw_success_prob(p, groups, n)
            ref = sw_success_prob_loop(table, names, [(g, c.assignment) for g, c in groups], n)
            assert got == ref
            grouped = [v for g, _ in groups for v in g]
            seen["side"] += len(set(grouped)) < len(names)
            seen["two_side"] += _two_side(names, sizes, groups)
            seen["unordered"] += any(g != sorted(g) for g, _ in groups)
            seen["several"] += len(groups) > 1
        assert min(seen.values()) > 0, seen

    def test_sw_decode(self):
        # the decoder table over the combined bin keys of some groups, read
        # at one bin tuple, is ML decoding within that bin intersection
        empty = 0
        for rng, names, sizes, n, groups in _random_cases(12):
            seq_sizes = [k ** n for k in sizes]
            prior = _dyadic(rng, math.prod(seq_sizes), total=8).reshape(seq_sizes)
            p = make_joint(list(zip(names, seq_sizes)), prior)
            for _ in range(4):
                if rng.random() < 0.5:  # a subset of the groups constrains
                    cons_groups = groups[:int(rng.integers(1, len(groups) + 1))]
                else:
                    cons_groups = groups
                cons = [(g, c, int(rng.integers(0, c.num_bins))) for g, c in cons_groups]
                combined, _, n_combo, _ = _bin_keys(p, cons_groups, n)
                target = 0
                for _, c, b in cons:  # first group most significant, as in _bin_keys
                    target = target * c.num_bins + b
                got = int(_decoder_table(prior.ravel(), combined, n_combo)[target])
                ref = sw_decode_loop(prior, names, sizes,
                                     [(g, c.assignment, b) for g, c, b in cons], n)
                assert got == (-1 if ref is None else np.ravel_multi_index(ref, seq_sizes))
                empty += ref is None
        assert empty > 0


def test_argmax_per_key_matches_a_loop():
    """Per key the input of highest prior, ties to the lowest index, and -1
    for a key no input has, over seed-stacked key rows."""
    rng = np.random.default_rng(13)
    for _ in range(30):
        k, seeds, n_keys = int(rng.integers(1, 40)), int(rng.integers(1, 4)), int(rng.integers(1, 8))
        prior = rng.integers(0, 3, size=k) / 7.0
        keys = rng.integers(0, n_keys, size=(seeds, k)) + np.arange(seeds)[:, None] * n_keys
        want = [-1] * (seeds * n_keys)
        for row in keys:
            for i, key in enumerate(row.tolist()):
                j = want[key]
                if j < 0 or prior[i] > prior[j]:
                    want[key] = i
        assert _decoder_table(prior, keys, seeds * n_keys).tolist() == want


class TestBinningDomainChecked:
    """A code is used only on the variables and block length it was built for."""

    p = make_joint([("X", 2)], [0.3, 0.7])
    MISMATCHED = [space((2,), 3, ("X",)),   # built for n=3, used at n=2
                  space((4,), 2, ("X",)),   # built for |X|=4, used on |X|=2
                  space((2, 2), 2, ("X", "Y"))]  # two variables for one

    @pytest.mark.parametrize("domain", MISMATCHED)
    @pytest.mark.parametrize("measure", [sw_success_prob, osrb_uniformity])
    def test_bin_laws(self, measure, domain):
        groups = [(("X",), make_binning(domain, 2, seed=0))]
        with pytest.raises(ValueError):  # osrb_uniformity takes one group list per seed
            measure(self.p, [groups] if measure is osrb_uniformity else groups, 2)

    # the bin keys a decoder table is built on, over given sequence spaces
    @pytest.mark.parametrize("domain", MISMATCHED)
    def test_sw_decode(self, domain):
        prior = self.p.iid_extend(2)
        code = make_binning(domain, 2, seed=0)
        with pytest.raises(ValueError):
            _bin_keys(prior, [(("X",), code)], 2)

    def test_sw_decode_block_length(self):
        code = make_binning(space((2,), 2, ("X",)), 2, seed=0)
        with pytest.raises(ValueError):
            _bin_keys(self.p, [(("X",), code)], 1)


class TestUniformityTrend:
    """Bin-index laws drift toward uniform as the block length grows."""

    def _medians(self, per_symbol, rates, ns, master, n_seeds=20):
        sizes = dict(zip(per_symbol.names, per_symbol.sizes))
        groups_vars = [("W",), ("W", "V"), ("W", "U")]
        out = {}
        for n in ns:
            tvs = []
            for seed in range(n_seeds):
                cell = int(np.random.SeedSequence([master, n, seed]).generate_state(1)[0])
                subs = np.random.SeedSequence(cell).generate_state(3)
                groups = []
                for gi, (gv, rate) in enumerate(zip(groups_vars, rates)):
                    nb, _ = bins_from_rate(n, rate)
                    dom = SequenceSpace(gv, tuple(sizes[v] for v in gv), n)
                    groups.append((gv, make_binning(dom, nb, int(subs[gi]))))
                tvs.extend(osrb_uniformity(per_symbol, [groups], n))
            out[n] = statistics.median(tvs)
        return out

    def test_no_side_information_trend(self):
        from coordinet.sources import builtin_coupling, identical_uniform
        coup = builtin_coupling("w-from-y1", identical_uniform(2))
        per = coup.joint().marginal(("W", "V", "U")).reorder(("W", "V", "U"))
        med = self._medians(per, (0.5, 0.05, 0.05), (2, 4, 6), master=5)
        assert med[4] <= med[2]
        assert med[6] <= med[4]

    def test_side_information_trend(self):
        # noisy coupling with H(W | Y1 Y2) > 0, bins must also decouple from Y
        from coordinet.information import entropy
        from coordinet.pmf import Alphabet, ConditionalPmf, JointPmf
        from coordinet.region import InnerCoupling
        eps = 0.3
        p_uvw = JointPmf((Alphabet("U", 1), Alphabet("V", 1), Alphabet("W", 2)),
                         [[[0.5, 0.5]]])
        bsc = [[[1 - eps, eps], [eps, 1 - eps]]]
        coup = InnerCoupling(
            p_uvw,
            ConditionalPmf((Alphabet("U", 1), Alphabet("W", 2)), (Alphabet("Y2", 2),), bsc),
            ConditionalPmf((Alphabet("V", 1), Alphabet("W", 2)), (Alphabet("Y1", 2),), bsc))
        j = coup.joint()
        h_w_given_y = entropy(j, ("W", "Y1", "Y2")) - entropy(j, ("Y1", "Y2"))
        rates = (0.4, 0.02, 0.02)
        assert sum(rates) <= h_w_given_y - 0.15  # stated margin
        per = j.marginal(("W", "V", "U", "Y1", "Y2")).reorder(("W", "V", "U", "Y1", "Y2"))
        med = self._medians(per, rates, (2, 4, 6), master=5)
        assert med[4] <= med[2]
        assert med[6] <= med[4]
