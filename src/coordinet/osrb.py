"""Exact small-block simulation of the random-binning machinery.

Uniform random binnings of sequence spaces, exact induced bin-index laws,
maximum-likelihood bin decoding, and the full two-protocol relay pipeline
producing the exact joint law of (shared indices, Y1^n, Y2^n) together
with its total-variation distance to the i.i.d. target.

Everything here is exact enumeration: randomness enters only through the
seeded binning assignments, never through Monte Carlo estimates of the
induced law.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from .pmf import Alphabet, JointPmf, StateSpaceTooLarge, _iid_power, check_block_length, mass_check
from .region import InnerCoupling, RateTuple

DOMAIN_CAP = 2 ** 22    # sequences a binning or a bin-law check may enumerate
TV_BLOCK = 2 ** 16      # (y1, y2) entries of q^n per block of the protocol's TV stage


# ---------------------------------------------------------------------------
# Sequence-space index plumbing.  A sequence over a product alphabet of
# size K is addressed by sum_i s_i * K^(n-1-i) (first symbol most
# significant), matching JointPmf.iid_extend.

@dataclass(frozen=True)
class SequenceSpace:
    """n-sequences over a product of per-symbol alphabet sizes."""

    names: tuple[str, ...]
    sizes: tuple[int, ...]
    n: int
    size: int = field(init=False, repr=False, compare=False)  # symbol_size ** n

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        check_block_length(self.n)
        if any(s < 1 for s in self.sizes):
            raise ValueError("need positive alphabet sizes")
        object.__setattr__(self, "size", self.symbol_size ** self.n)

    @property
    def symbol_size(self) -> int:
        return math.prod(self.sizes)


def _digit_sum(values: np.ndarray, base: int, n: int) -> np.ndarray:
    """sum_t values[s_t] * base^(n-1-t) for every n-sequence s over
    range(len(values)), in sequence-index order.  The one sequence-digit
    routine: each call builds its table by n - 1 outer sums, so no array
    larger than the table is made."""
    values = np.asarray(values, dtype=np.int64)
    out = values
    for _ in range(n - 1):
        out = np.add.outer(out * base, values).ravel()
    return out


def split_sequences(idx: np.ndarray, sizes: Sequence[int], n: int) -> list[np.ndarray]:
    """Per-component sequence indices from sequences over the product alphabet."""
    symbols = np.arange(math.prod(sizes))
    comps, stride = [], symbols.size
    for k in sizes:  # first component most significant
        stride //= k
        comps.append(_digit_sum(symbols // stride % k, k, n)[idx])
    return comps


def merge_sequences(comps: Sequence[np.ndarray], sizes: Sequence[int], n: int) -> np.ndarray:
    """Inverse of split_sequences: the sum over components of each one's
    share of the product-alphabet index, looked up in a k_c^n table."""
    K = stride = math.prod(sizes)
    out = np.zeros(np.shape(comps[0]), dtype=np.int64)
    for comp, k in zip(comps, sizes):  # first component most significant
        stride //= k
        out += _digit_sum(np.arange(k) * stride, K, n)[comp]
    return out


def product_law(vec: np.ndarray, n: int) -> np.ndarray:
    """The i.i.d. law over n-sequences of a per-symbol pmf vector."""
    return _iid_power(np.asarray(vec, dtype=float), n)


def channel_matrix(per_symbol: np.ndarray, n: int) -> np.ndarray:
    """Product extension of a (in_symbols, out_symbols) channel matrix."""
    return _iid_power(np.asarray(per_symbol, dtype=float), n)


def _sequence_channel(per_symbol: np.ndarray, n: int) -> np.ndarray:
    """A node's output channel over its decoded n-sequences: the index map
    d -> y of a deterministic channel (every per-symbol row one-hot), else
    the dense channel_matrix."""
    if np.isin(per_symbol, (0.0, 1.0)).all() and (per_symbol.sum(axis=1) == 1.0).all():
        return _digit_sum(per_symbol.argmax(axis=1), per_symbol.shape[1], n)
    return channel_matrix(per_symbol, n)


# ---------------------------------------------------------------------------
# Binnings.

@dataclass(frozen=True)
class BinningCode:
    """A fixed uniform random assignment of every sequence to a bin."""

    domain: SequenceSpace
    num_bins: int
    assignment: np.ndarray = field(repr=False)
    seed: int = 0

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.shape != (self.domain.size,):
            raise ValueError(f"assignment must cover all {self.domain.size} sequences")
        if self.num_bins < 1 or a.min() < 0 or a.max() >= self.num_bins:
            raise ValueError("bin indices must lie in [0, num_bins)")
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)


def make_binning(domain: SequenceSpace, num_bins: int, seed: int) -> BinningCode:
    """Assign each sequence an i.i.d. uniform bin from the seeded stream."""
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    if domain.size > DOMAIN_CAP:
        raise StateSpaceTooLarge(f"domain of {domain.size} sequences exceeds cap {DOMAIN_CAP}")
    assignment = (np.zeros(domain.size, dtype=np.int64) if num_bins == 1  # the one draw in [0, 1)
                  else np.random.Generator(np.random.PCG64(seed)).integers(0, num_bins, size=domain.size))
    assignment.setflags(write=False)
    code = object.__new__(BinningCode)  # drawn in range: no checks, unlike a hand-built code
    code.__dict__.update(domain=domain, num_bins=num_bins, assignment=assignment, seed=seed)
    return code


def bins_from_rate(n: int, rate: float) -> tuple[int, float]:
    """Bin count for a rate in bits/symbol, plus the effective rate
    log2(num_bins)/n actually realized after rounding."""
    if not math.isfinite(rate) or rate < 0:
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    if n * rate >= 63:
        raise ValueError(f"rate {rate} at n={n} asks for 2^{n * rate:g} bins, "
                         "more than an int64 bin index holds")
    num = max(1, round(2.0 ** (n * rate)))
    return num, math.log2(num) / n


def _once(memo: dict, key, make):
    """``memo[key]``, made by ``make()`` on first use."""
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _bin_keys(p: JointPmf, groups: Sequence[tuple[Sequence[str], BinningCode]], n: int,
              memo: dict | None = None):
    """Per entry of ``p``, a pmf over n-sequence spaces: the combined bin
    index of the groups (first group most significant) and the index of
    the side variables, those in no group, in ``p``'s order; then the
    bin and side counts.  Each code's domain must be its group's
    variables at block length ``n``.  ``memo`` keeps what depends on ``p``
    and the groups' variables only (the sequence indices, each group's
    index into its domain, the side index) for later calls on the same
    ``p`` and ``n``."""
    memo = {} if memo is None else memo
    seq_sizes = dict(zip(p.names, p.sizes))
    var_seqs = _once(memo, "sequences",
                     lambda: dict(zip(p.names, np.unravel_index(np.arange(p.table.size), p.sizes))))
    combined = np.zeros(p.table.size, dtype=np.int64)
    n_bins, grouped = 1, set()
    for vars_g, code in groups:
        vars_g = tuple(vars_g)
        if (code.domain.n != n or len(code.domain.sizes) != len(vars_g)
                or any(k ** n != seq_sizes.get(v) for k, v in zip(code.domain.sizes, vars_g))):
            raise ValueError(f"binning domain {code.domain} does not match variables {vars_g} at n={n}")
        g_idx = _once(memo, vars_g,
                      lambda: merge_sequences([var_seqs[v] for v in vars_g], code.domain.sizes, n))
        combined = combined * code.num_bins + code.assignment[g_idx]
        n_bins *= code.num_bins
        grouped.update(vars_g)

    def side_index():
        side = np.zeros(p.table.size, dtype=np.int64)
        n_side = 1
        for v in p.names:
            if v not in grouped:
                side = side * seq_sizes[v] + var_seqs[v]
                n_side *= seq_sizes[v]
        return side, n_side
    side, n_side = _once(memo, frozenset(grouped), side_index)
    return combined, side, n_bins, n_side


def osrb_uniformity(p: JointPmf, seed_groups: Sequence[Sequence[tuple[Sequence[str], BinningCode]]],
                    n: int) -> list[float]:
    """Per group list in ``seed_groups`` (one per seed), the exact TV
    between the induced law of (side vars, bin indices) and side-marginal
    x independent uniform bins.

    ``p`` is the per-symbol joint; each group of variables is binned as one
    composite source over its n-sequence space.  Variables not in any
    group act as side information.  The extension and every index and
    side marginal that no assignment enters are built once for all seeds;
    each seed pays for its gather, its bin law and its TV.
    """
    ext = p.iid_extend(n, max_entries=DOMAIN_CAP)
    flat = ext.table.ravel()
    memo, tvs = {}, []
    for groups in seed_groups:
        combined, side_idx, n_combo, side_card = _bin_keys(ext, groups, n, memo)
        induced = np.bincount(side_idx * n_combo + combined, weights=flat,
                              minlength=side_card * n_combo)
        side_vars = frozenset(p.names) - {v for vars_g, _ in groups for v in vars_g}
        side_marg = _once(memo, ("side marginal", side_vars),
                          lambda: np.bincount(side_idx, weights=flat, minlength=side_card))
        target = np.repeat(side_marg / n_combo, n_combo)
        tvs.append(0.5 * float(np.abs(induced - target).sum()))
    return tvs


# ---------------------------------------------------------------------------
# The relay protocol, enumerated exactly.

@dataclass(frozen=True)
class ProtocolCaps:
    """Entry-count caps checked before run_protocol allocates: ``wvu`` for
    the (w,v,u) sequence space, ``y_pairs`` for the (y1,y2) output space,
    ``with_g`` for the joint with shared indices, for each node's decoder
    key space and for the dense channel-mixing array over (shared indices,
    key pairs), where a deterministic side's key is its output sequence
    and a dense side's its decoded input; above it the mixing groups the
    live relay tuples."""

    wvu: int = 2 ** 22
    y_pairs: int = 2 ** 20
    with_g: int = 2 ** 24


@dataclass(frozen=True)
class ProtocolConfig:
    q: JointPmf                     # target over (Y1, Y2)
    coupling: InnerCoupling
    n: int
    rates: RateTuple
    tilde_rates: tuple[float, float, float]
    seed: int = 0
    caps: ProtocolCaps = field(default_factory=ProtocolCaps)

    def __post_init__(self):
        check_block_length(self.n)
        tilde = tuple(self.tilde_rates)
        if len(tilde) != 3:
            raise ValueError(f"tilde_rates: need the three rates rt0, rt1, rt2, got {tilde!r}")
        for r in (self.rates.rf1, self.rates.rb1, self.rates.rf2, self.rates.rb2, *tilde):
            if not math.isfinite(r) or r < 0:
                raise ValueError("protocol rates must be finite and >= 0")
        object.__setattr__(self, "tilde_rates", tuple(float(t) for t in tilde))


@dataclass
class InducedLaw:
    """Exact law produced by one protocol run."""

    joint_with_g: JointPmf          # over (G0, G1, G2, Y1, Y2) sequence spaces
    raw_mass: float                 # accumulated mass before normalization
    tv_marginal: float
    tv_with_uniform_g: float
    best_g: tuple[int, int, int]
    tv_best_g: float
    sw1_success: float
    sw2_success: float
    nocandidate_mass: float
    effective_rates: dict
    num_bins: dict
    binning_seeds: dict = field(default_factory=dict)
    marginal_direct: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if _derandomization_fails(self.tv_best_g, self.tv_with_uniform_g):
            raise RuntimeError("derandomization inequality violated; numerical fault")


def _derandomization_fails(tv_best_g, tv_with_uniform_g):
    """Elementwise: the best g's TV exceeds twice the uniform-g TV beyond
    rounding, which no exact law allows."""
    return tv_best_g > 2.0 * tv_with_uniform_g + 1e-9


def _decoder_table(prior: np.ndarray, keys: np.ndarray, n_keys: int) -> np.ndarray:
    """Per key: the decoder input of highest prior among those with that
    key, ties to the lowest index; -1 for keys with empty preimage.
    ``keys`` has one row per seed, and no two seeds share a key; a key
    outside [0, n_keys) raises ValueError."""
    k = prior.size
    rank = np.argsort(-prior, kind="stable")  # inputs by falling prior, ties by index
    ks = keys.reshape(-1, k)[:, rank].ravel()
    order = np.argsort(ks, kind="stable")
    ks = ks[order]
    if ks[0] < 0 or ks[-1] >= n_keys:
        raise ValueError(f"bin keys [{ks[0]}, {ks[-1]}] reach outside [0, {n_keys})")
    starts = np.r_[True, ks[1:] != ks[:-1]]
    table = np.full(n_keys, -1, dtype=np.int64)
    table[ks[starts]] = rank[order[starts] % k]
    return table


def _mix_outputs(keys: np.ndarray, weights: np.ndarray, extra: np.ndarray, c1, c2, cap: int,
                 right_first: bool = False, origin: int = 0) -> np.ndarray:
    """(groups, ny1, ny2) array: per group g, the sum of weights[i] *
    outer(c1[e1], c2[e2]) over the terms with keys[i] = (g * m1 + e1) * m2
    + e2, then extra[g] times that outer product at key pair ``origin``.
    ``extra`` is (runs, groups per run).  A channel is an (m, ny) matrix,
    or the count ny of a deterministic side keyed by its output: the
    identity, whose product is skipped.  The weights are scattered into
    the dense (groups, m1, m2) array M when both sides are keyed by output
    (M is the result), or when one run's M fits under ``cap`` and C1ᵀ M C2
    takes fewer multiply-adds than one outer product per term.  Otherwise
    each g is one matmul of channel rows gathered by key.  ``right_first``
    associates the products the other way."""
    by_out = [np.ndim(c) == 0 for c in (c1, c2)]
    (m1, ny1), (m2, ny2) = [(c, c) if o else c.shape for c, o in zip((c1, c2), by_out)]
    per_run, extra, keys, weights = extra.shape[-1], extra.ravel(), keys.ravel(), weights.ravel()
    groups = len(extra)
    dense_cost = (groups * m1 * m2 * (ny2 if by_out[0] else ny1) if any(by_out)  # the one product
                  else groups * m1 * ny1 * (m2 + ny2))
    if all(by_out) or (per_run * m1 * m2 <= cap and dense_cost <= (len(keys) + groups) * ny1 * ny2):
        mix = np.bincount(keys, weights=weights, minlength=groups * m1 * m2).reshape(groups, m1, m2)
        mix[:, origin // m2, origin % m2] += extra
        mix = mix if by_out[0] or right_first else c1.T @ mix
        mix = mix if by_out[1] else mix @ c2
        return mix if by_out[0] or not right_first else c1.T @ mix
    firsts = np.arange(groups) * (m1 * m2) + origin  # where each group's extra lands
    live, inv = np.unique(keys, return_inverse=True)
    uniq = np.union1d(live, firsts)
    wsum = np.zeros((len(uniq), 1))
    wsum[np.searchsorted(uniq, live), 0] = np.bincount(inv, weights=weights)
    wsum[np.searchsorted(uniq, firsts), 0] += extra
    g, d = np.divmod(uniq, m1 * m2)
    e1, e2 = np.divmod(d, m2)
    c1, c2 = (np.eye(c) if o else c for c, o in zip((c1, c2), by_out))
    out = np.zeros((groups, ny1, ny2))
    cuts = np.searchsorted(g, np.arange(groups + 1))
    for i in np.flatnonzero(np.diff(cuts)):
        s = slice(cuts[i], cuts[i + 1])
        a, b = c1[e1[s]], c2[e2[s]]  # gathered copies, scaled in place
        (b if right_first else a)[...] *= wsum[s]
        out[i] = a.T @ b
    return out


# the seven bin maps, in seed order, and the rate each is drawn at; the
# digit in a map's name is its domain: 0 for W^n, 1 for (W,V)^n, 2 for (W,U)^n
_CODES = {"g0": "rt0", "g1": "rt1", "b1": "rb1", "f1": "rf1", "g2": "rt2", "b2": "rb2", "f2": "rf2"}


class _ProtocolPlan:
    """The part of run_protocol that does not depend on the seed: the cap
    checks, the bin counts, the (w, wv, wu) indices and the prior of every
    live relay tuple, the decoder priors and their w digits, the two
    output channels (_sequence_channel), and the two factors of q^n, which
    is never built whole: the law of the first j symbols and the law of
    the last n - j, j the fewest leading symbols for which a block of Y1
    sequences sharing them holds at most TV_BLOCK (y1, y2) entries.  A
    block's q^n rows are one prefix row times the suffix table (q_rows).
    Arrays are read-only: plans are shared.

    ``sweep`` builds one ``shared`` plan per block length for all its
    seeds.  A lone call builds its own, which keeps no relay-tuple arrays:
    the run drops each one once consumed, to bound its peak memory."""

    def __init__(self, cfg: ProtocolConfig, shared: bool = False):
        n, coup = cfg.n, cfg.coupling
        nu, nv, nw = coup.p_uvw.sizes
        n1 = coup.chan_y1.target[0].size
        n2 = coup.chan_y2.target[0].size
        k_wvu = (nw * nv * nu) ** n
        self.k_y = (n1 * n2) ** n
        if k_wvu > cfg.caps.wvu:
            raise StateSpaceTooLarge(f"(w,v,u) sequence space {k_wvu} exceeds cap {cfg.caps.wvu}")
        if self.k_y > cfg.caps.y_pairs:
            raise StateSpaceTooLarge(f"(y1,y2) sequence space {self.k_y} exceeds cap {cfg.caps.y_pairs}")
        rates = dict(vars(cfg.rates), **dict(zip(("rt0", "rt1", "rt2"), cfg.tilde_rates)))
        drawn = {name: bins_from_rate(n, rates[rate]) for name, rate in _CODES.items()}
        self.bins = {name: nb for name, (nb, _) in drawn.items()}
        self.eff = {f"eff_{_CODES[name]}": e for name, (_, e) in drawn.items()}
        self.gtot = self.bins["g0"] * self.bins["g1"] * self.bins["g2"]
        if self.gtot * self.k_y > cfg.caps.with_g:
            raise StateSpaceTooLarge(f"joint with shared indices needs {self.gtot * self.k_y} entries")
        # each seed's two decoder tables hold one entry per bin key
        self.n_keys = tuple(self.bins["g0"] * self.bins[f"g{i}"] * self.bins[f"b{i}"] * self.bins[f"f{i}"]
                            for i in (1, 2))
        if max(self.n_keys) > cfg.caps.with_g:
            raise StateSpaceTooLarge(f"decoder key spaces {self.n_keys} exceed cap {cfg.caps.with_g}")
        self.n, self.caps, self.sizes = n, cfg.caps, (nw, nv, nu)
        j = next(j for j in range(n + 1) if n1 ** (n - j) * n2 ** n <= TV_BLOCK or j == n)
        self.q_prefix, self.q_suffix = (_iid_power(cfg.q.table, m) for m in (j, n - j))
        self.domains = (SequenceSpace(("W",), (nw,), n), SequenceSpace(("W", "V"), (nw, nv), n),
                        SequenceSpace(("W", "U"), (nw, nu), n))
        self.p_wvu = coup.p_uvw.reorder(("W", "V", "U"))
        # decoder priors over the (w,v) and (w,u) sequence spaces, their w
        # digits, and each node's output channel over them
        self.prior_wv = product_law(self.p_wvu.marginal(("W", "V")).table.ravel(), n)
        self.prior_wu = product_law(self.p_wvu.marginal(("W", "U")).table.ravel(), n)
        self.wv_w = split_sequences(np.arange(self.prior_wv.size), (nw, nv), n)[0]
        self.wu_w = split_sequences(np.arange(self.prior_wu.size), (nw, nu), n)[0]
        self.chans = tuple(_sequence_channel(np.transpose(c, (1, 0, 2)).reshape(-1, c.shape[2]), n)
                           for c in (coup.chan_y1.table, coup.chan_y2.table))  # (V|U, W, Y)
        # per side: what _mix_outputs takes (an index map, keyed by its output
        # f(d), passes its output count; a matrix is keyed by d) and the key digit count
        self.mix = tuple(k ** n if c.ndim == 1 else c for c, k in zip(self.chans, (n1, n2)))
        self.m = tuple(c if np.ndim(c) == 0 else len(c) for c in self.mix)
        self.origin = int(self.keyed(0, 0))  # where an empty cell's mass is keyed
        # seeds per batched run: each chunk array stays a 256th of with_g,
        # so large n runs one seed at a time and keeps pool threads busy
        per_seed = max(self.gtot * max(self.k_y, self.m[0] * self.m[1]), *self.n_keys)
        self.chunk = max(1, (cfg.caps.with_g >> 8) // per_seed)
        self._relay = self._relay_tuples() if shared else None
        for a in (self.prior_wv, self.prior_wu, self.wv_w, self.wu_w, *self.chans,
                  self.q_prefix, self.q_suffix):
            a.setflags(write=False)

    def keyed(self, d1, d2):
        """Mixing key pairs e1 * m2 + e2 of decoded pairs (d1, d2)."""
        e1, e2 = (c[d] if c.ndim == 1 else d for c, d in zip(self.chans, (d1, d2)))
        return e1 * self.m[1] + e2

    def _relay_tuples(self):
        nw, nv, nu = self.sizes
        prior = product_law(self.p_wvu.table.ravel(), self.n)
        w, v, u = split_sequences(np.arange(prior.size), self.sizes, self.n)
        wv = merge_sequences([w, v], (nw, nv), self.n)
        wu = merge_sequences([w, u], (nw, nu), self.n)
        del v, u
        # a tuple of prior 0 adds an exact 0.0 to its cell's normalizer and
        # nothing to the law, so it is dropped here rather than per seed
        live = prior > 0
        arrays = (w, wv, wu, prior) if live.all() else (w[live], wv[live], wu[live], prior[live])
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def relay(self):
        """(w, wv, wu, prior) of every live relay tuple, in tuple order."""
        return self._relay if self._relay is not None else self._relay_tuples()

    def q_rows(self, a: int, out: np.ndarray) -> np.ndarray:
        """q^n's rows of block ``a``, the Y1 sequences whose first j symbols
        are prefix ``a``, written into ``out`` as a (rows, y2) table."""
        head, tail = self.q_prefix[a], self.q_suffix
        np.multiply(head[:, None], tail[:, None, :], out=out.reshape(len(tail), len(head), -1))
        return out


def _run_seeds(plan: _ProtocolPlan, seeds: Sequence[int]) -> dict:
    """The seed-dependent stage of run_protocol for several seeds at once:
    stacked arrays and per-seed values, which _law makes laws of.  Every
    sum a seed's values depend on runs over its own slice in the order a
    one-seed run takes, so they equal a lone run's, bit for bit."""
    bins, gtot, S = plan.bins, plan.gtot, len(seeds)
    subseeds = [np.random.SeedSequence(seed).generate_state(len(_CODES)) for seed in seeds]
    code = {name: np.stack([make_binning(plan.domains[int(name[1])], bins[name], int(sub[i])).assignment
                            for sub in subseeds])
            for i, name in enumerate(_CODES)}
    # seed s numbers its g0 bins from s * bins, so every key and cell index
    # below (g0 is their most significant digit) is offset by seed
    code["g0"] += np.arange(S)[:, None] * bins["g0"]

    # per seed and live relay tuple: shared-index key g and cell (g0, g1, g2, b1, b2);
    # each array over the tuples is dropped once consumed, to bound peak memory
    w_seq, wv_seq, wu_seq, prior_seq = plan.relay()
    g_of_tuple = ((code["g0"][:, w_seq] * bins["g1"] + code["g1"][:, wv_seq])
                  * bins["g2"] + code["g2"][:, wu_seq])
    del w_seq
    cell = ((g_of_tuple * bins["b1"] + code["b1"][:, wv_seq]) * bins["b2"]
            + code["b2"][:, wu_seq])

    # decoder tables over the (w,v) and (w,u) sequence spaces
    key1_all = ((code["g0"][:, plan.wv_w] * bins["g1"] + code["g1"])
                * bins["b1"] + code["b1"]) * bins["f1"] + code["f1"]
    key2_all = ((code["g0"][:, plan.wu_w] * bins["g2"] + code["g2"])
                * bins["b2"] + code["b2"]) * bins["f2"] + code["f2"]
    dec1 = _decoder_table(plan.prior_wv, key1_all, S * plan.n_keys[0])
    dec2 = _decoder_table(plan.prior_wu, key2_all, S * plan.n_keys[1])

    # relay conditional normalizers per (g0, g1, g2, b1, b2) cell
    n_cells = gtot * bins["b1"] * bins["b2"]
    z = np.bincount(cell.ravel(), weights=np.broadcast_to(prior_seq, cell.shape).ravel(),
                    minlength=S * n_cells)
    unif_cell = 1.0 / n_cells
    live_w = unif_cell * prior_seq / z[cell]
    del cell, prior_seq
    d1 = dec1[key1_all[:, wv_seq]]
    d2 = dec2[key2_all[:, wu_seq]]
    undecodable = int(np.count_nonzero((d1 < 0) | (d2 < 0)))
    if undecodable:
        raise RuntimeError(f"{undecodable} live relay tuples carry a bin key with no decoder "
                           "entry; decoder tables are inconsistent")

    sw1 = [float(w[hit].sum()) for w, hit in zip(live_w, d1 == wv_seq)]
    sw2 = [float(w[hit].sum()) for w, hit in zip(live_w, d2 == wu_seq)]
    del wv_seq, wu_seq

    # mix the output channels over (g, key pair); an empty relay cell
    # makes both nodes decode the first input, i.e. it adds its mass at the
    # key pair of decoded pair (0, 0)
    pair = plan.keyed(d1, d2)
    del d1, d2
    empty_cells = z.reshape(S, gtot, -1) <= 0.0
    empty = empty_cells.sum(axis=2) * unif_cell
    g_of_tuple *= plan.m[0] * plan.m[1]  # made the mixing key in place
    g_of_tuple += pair
    joint = _mix_outputs(g_of_tuple, live_w, empty, *plan.mix, plan.caps.with_g, origin=plan.origin)
    del g_of_tuple
    joint = joint.reshape(S, gtot, *joint.shape[1:])

    raw_mass = joint.sum(axis=(1, 2, 3))
    # second accumulation path for the two-way marginal check: sum over
    # decoded pairs without the g split, associated in the other order
    pair += np.arange(S)[:, None] * (plan.m[0] * plan.m[1])
    marg = _mix_outputs(pair, live_w, empty_cells.sum(axis=(1, 2))[:, None] * unif_cell,
                        *plan.mix, plan.caps.with_g, True, plan.origin)

    # the three TVs, accumulated over blocks of Y1 rows: per block, its q^n
    # rows and each |difference| are formed in place in block-sized buffers
    rows = len(plan.q_suffix)
    qb = np.empty((rows, joint.shape[3]))
    buf = np.empty((S, gtot, *qb.shape))
    tv_marginal, tv_uniform, per_g_tv = np.zeros(S), np.zeros(S), np.zeros((S, gtot))
    for a in range(len(plan.q_prefix)):
        plan.q_rows(a, qb)
        block = joint[:, :, a * rows:(a + 1) * rows]
        marg_b = block.sum(axis=1, out=buf[:, 0])
        marg_b -= qb
        tv_marginal += np.abs(marg_b, out=marg_b).sum(axis=(1, 2))
        np.subtract(block, np.divide(qb, gtot, out=buf), out=buf)
        tv_uniform += np.abs(buf, out=buf).sum(axis=(1, 2, 3))
        np.multiply(block, gtot, out=buf)
        buf -= qb
        per_g_tv += np.abs(buf, out=buf).sum(axis=(2, 3))
    tv_marginal, tv_uniform, per_g_tv = 0.5 * tv_marginal, 0.5 * tv_uniform, 0.5 * per_g_tv
    best = per_g_tv.argmin(axis=1)

    return {"joint": joint, "marg": marg, "raw_mass": raw_mass, "tv_marginal": tv_marginal,
            "tv_with_uniform_g": tv_uniform, "tv_best_g": per_g_tv[np.arange(S), best], "best": best,
            "sw1_success": sw1, "sw2_success": sw2, "subseeds": subseeds,
            "nocandidate_mass": [float(sum(e)) for e in empty]}


def _law(plan: _ProtocolPlan, batch: dict, s: int) -> InducedLaw:
    """Seed ``s``'s law from a batch; building its JointPmf and InducedLaw
    runs their checks.  The JointPmf takes over the seed's joint row,
    normalised in place, so each row makes one law."""
    shape = (plan.bins["g0"], plan.bins["g1"], plan.bins["g2"], *batch["joint"].shape[2:])
    return InducedLaw(
        joint_with_g=JointPmf.adopt(tuple(map(Alphabet, ("G0", "G1", "G2", "Y1", "Y2"), shape)),
                                    batch["joint"][s].reshape(shape)),
        best_g=tuple(int(i) for i in np.unravel_index(batch["best"][s], shape[:3])),
        effective_rates=dict(plan.eff), num_bins=dict(plan.bins), marginal_direct=batch["marg"][s],
        binning_seeds=dict(zip(_CODES, map(int, batch["subseeds"][s]))),
        **{k: float(batch[k][s]) for k in ("raw_mass", *LAW_FIELDS)})


def run_protocol(cfg: ProtocolConfig) -> InducedLaw:
    """Run the binning protocol once, enumerating the exact induced law.

    All seven bin maps (g0 on W^n; g1, b1, f1 on (W,V)^n; g2, b2, f2 on
    (W,U)^n) are drawn from ``cfg.seed``.  For every shared-index /
    backward-message combination the relay's conditional is enumerated in
    full; decoder outputs then mix the per-node output channels.  When a
    combination has an empty preimage the nodes fall back to their
    channels applied to the lexicographically first input (reported in
    ``nocandidate_mass``).
    """
    plan = _ProtocolPlan(cfg)
    return _law(plan, _run_seeds(plan, [cfg.seed]), 0)


LAW_FIELDS = ("tv_marginal", "tv_with_uniform_g", "tv_best_g", "sw1_success", "sw2_success",
              "nocandidate_mass")
SWEEP_FIELDS = ("n", "seed", "cell_seed", "rb1", "rb2", "rf1", "rf2", "rt0", "rt1", "rt2",
                "eff_rb1", "eff_rb2", "eff_rf1", "eff_rf2", "eff_rt0", "eff_rt1", "eff_rt2",
                *LAW_FIELDS, "error")


def cell_seed(master_seed: int, n: int, seed: int) -> int:
    """The seed of sweep cell (n, seed), which its binnings derive from."""
    return int(np.random.SeedSequence([master_seed, n, int(seed)]).generate_state(1)[0])


def _sweep_record(base: ProtocolConfig, n: int, master_seed: int, seed: int) -> dict:
    return {"n": n, "seed": int(seed), "cell_seed": cell_seed(master_seed, n, seed), **vars(base.rates),
            **dict(zip(("rt0", "rt1", "rt2"), base.tilde_rates)), "error": ""}


def _sweep_chunk(plan: _ProtocolPlan, recs: list[dict]) -> list[dict]:
    """Fill a chunk of one block length's records from one batched run.
    The checks building a law runs are run on the stacked arrays, and a
    seed failing one builds its law, so it records the error a lone run
    raises.  When the run fails, each cell is rerun alone."""
    try:
        batch = _run_seeds(plan, [rec["cell_seed"] for rec in recs])
    except Exception as exc:  # per-cell failure, sweep continues
        if len(recs) == 1:
            return [dict(recs[0], error=f"{type(exc).__name__}: {exc}")]
        return [rec for one in recs for rec in _sweep_chunk(plan, [one])]
    errors = mass_check(batch["joint"].reshape(len(recs), -1))[2]
    derand = _derandomization_fails(batch["tv_best_g"], batch["tv_with_uniform_g"])
    for s, rec in enumerate(recs):
        try:
            if errors[s] or derand[s]:
                _law(plan, batch, s)
            rec.update(plan.eff, **{k: float(batch[k][s]) for k in LAW_FIELDS})
        except Exception as exc:  # per-cell failure, sweep continues
            rec["error"] = f"{type(exc).__name__}: {exc}"
    return recs


def sweep(base: ProtocolConfig, n_list: Sequence[int], seed_list: Sequence[int],
          master_seed: int = 0, threads: int = 1) -> list[dict]:
    """Run the protocol per (n, seed) cell; cell errors are recorded and the
    sweep continues.  Each cell's binnings derive from (master, n, seed).
    The cells of one n share that n's plan and run in batched chunks of
    seeds on ``threads`` pool threads; records keep (n, seed) order and
    values whatever the thread count or chunking."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    records = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        run_chunks = pool.map if threads > 1 else map
        for n in map(int, n_list):
            recs = [_sweep_record(base, n, master_seed, seed) for seed in seed_list]
            try:
                plan = _ProtocolPlan(replace(base, n=n), shared=True)
            except Exception as exc:  # seed-independent: every lone cell raises it too
                records.extend(dict(rec, error=f"{type(exc).__name__}: {exc}") for rec in recs)
                continue
            chunks = (recs[i:i + plan.chunk] for i in range(0, len(recs), plan.chunk))
            records.extend(rec for done in run_chunks(partial(_sweep_chunk, plan), chunks)
                           for rec in done)
    return records
