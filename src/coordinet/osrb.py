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
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from .pmf import Alphabet, JointPmf, StateSpaceTooLarge
from .region import InnerCoupling, RateTuple

DEFAULT_DOMAIN_CAP = 2 ** 22


class _NoCandidate:
    """Marker: the bin intersection handed to the decoder is empty."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NO_CANDIDATE"


NO_CANDIDATE = _NoCandidate()


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

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if self.n < 1 or any(s < 1 for s in self.sizes):
            raise ValueError("need n >= 1 and positive alphabet sizes")

    @property
    def symbol_size(self) -> int:
        return int(np.prod(self.sizes))

    @property
    def size(self) -> int:
        return self.symbol_size ** self.n


def split_sequences(idx: np.ndarray, sizes: Sequence[int], n: int) -> list[np.ndarray]:
    """Per-component sequence indices from sequences over the product alphabet."""
    sizes = tuple(sizes)
    K = int(np.prod(sizes))
    comps = [np.zeros_like(idx) for _ in sizes]
    for t in range(n):
        digit = (idx // K ** (n - 1 - t)) % K
        for ci in reversed(range(len(sizes))):
            comps[ci] = comps[ci] * sizes[ci] + digit % sizes[ci]
            digit = digit // sizes[ci]
    return comps


def merge_sequences(comps: Sequence[np.ndarray], sizes: Sequence[int], n: int) -> np.ndarray:
    """Inverse of split_sequences."""
    sizes = tuple(sizes)
    K = int(np.prod(sizes))
    out = np.zeros_like(np.asarray(comps[0]))
    rem = [np.asarray(c).copy() for c in comps]
    for t in range(n):  # time digits least-significant first, placed as they come
        sym = np.zeros_like(out)
        for ci, k in enumerate(sizes):  # first component most significant
            sym = sym * k + rem[ci] % k
            rem[ci] //= k
        out += sym * K ** t
    return out


def product_law(vec: np.ndarray, n: int) -> np.ndarray:
    """The i.i.d. law over n-sequences of a per-symbol pmf vector."""
    return reduce(np.kron, [np.asarray(vec, dtype=float)] * n)


def channel_matrix(per_symbol: np.ndarray, n: int) -> np.ndarray:
    """Product extension of a (in_symbols, out_symbols) channel matrix."""
    return reduce(np.kron, [np.asarray(per_symbol, dtype=float)] * n)


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


def make_binning(domain: SequenceSpace, num_bins: int, seed: int,
                 max_domain: int = DEFAULT_DOMAIN_CAP) -> BinningCode:
    """Assign each sequence an i.i.d. uniform bin from the seeded stream."""
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    if domain.size > max_domain:
        raise StateSpaceTooLarge(f"domain of {domain.size} sequences exceeds cap {max_domain}")
    rng = np.random.Generator(np.random.PCG64(seed))
    assignment = rng.integers(0, num_bins, size=domain.size, dtype=np.int64)
    return BinningCode(domain, num_bins, assignment, seed)


def bins_from_rate(n: int, rate: float) -> tuple[int, float]:
    """Bin count for a rate in bits/symbol, plus the effective rate
    log2(num_bins)/n actually realized after rounding."""
    if not math.isfinite(rate) or rate < 0:
        raise ValueError(f"rate must be finite and >= 0, got {rate}")
    num = max(1, round(2.0 ** (n * rate)))
    return num, math.log2(num) / n


def _group_index(var_seqs: Mapping[str, np.ndarray], group: Sequence[str],
                 sizes: Mapping[str, int], n: int) -> np.ndarray:
    comps = [var_seqs[v] for v in group]
    return merge_sequences(comps, [sizes[v] for v in group], n)


def osrb_uniformity(p: JointPmf, groups: Sequence[tuple[Sequence[str], BinningCode]],
                    n: int, max_entries: int = DEFAULT_DOMAIN_CAP) -> float:
    """Exact TV between the induced law of (side vars, bin indices) and
    side-marginal x independent uniform bins.

    ``p`` is the per-symbol joint; each group of variables is binned as one
    composite source over its n-sequence space.  Variables not in any
    group act as side information.
    """
    sizes = dict(zip(p.names, p.sizes))
    grouped: list[str] = []
    for vars_g, code in groups:
        vars_g = tuple(vars_g)
        want = tuple(sizes[v] for v in vars_g)
        if code.domain.sizes != want or code.domain.n != n:
            raise ValueError(f"binning domain {code.domain} does not match variables {vars_g} at n={n}")
        grouped.extend(vars_g)
    side = [v for v in p.names if v not in set(grouped)]

    ext = p.iid_extend(n, max_entries=max_entries)
    flat = ext.table.ravel()
    var_seqs = dict(zip(ext.names, np.unravel_index(np.arange(flat.size), ext.sizes)))

    bin_sizes = [code.num_bins for _, code in groups]
    combined = np.zeros(flat.size, dtype=np.int64)
    for (vars_g, code), nb in zip(groups, bin_sizes):
        g_idx = _group_index(var_seqs, tuple(vars_g), sizes, n)
        combined = combined * nb + code.assignment[g_idx]
    n_combo = int(np.prod(bin_sizes, initial=1))
    side_idx = np.zeros(flat.size, dtype=np.int64)
    side_card = 1
    for v in side:
        side_idx = side_idx * sizes[v] ** n + var_seqs[v]
        side_card *= sizes[v] ** n
    key = side_idx * n_combo + combined
    induced = np.bincount(key, weights=flat, minlength=side_card * n_combo)
    side_marg = np.bincount(side_idx, weights=flat, minlength=side_card)
    target = np.repeat(side_marg / n_combo, n_combo)
    return 0.5 * float(np.abs(induced - target).sum())


# ---------------------------------------------------------------------------
# Slepian-Wolf style ML decoding within bin intersections.

def sw_decode(prior: JointPmf, constraints: Sequence[tuple[Sequence[str], BinningCode, int]],
              n: int):
    """Most-likely tuple under ``prior`` (a pmf over sequence variables)
    among those matching every bin constraint; ties break toward the
    lexicographically first tuple.  Returns per-variable sequence indices
    or NO_CANDIDATE when the intersection is empty.
    """
    flat = prior.table.ravel()
    seq_sizes = dict(zip(prior.names, prior.sizes))
    var_seqs = dict(zip(prior.names, np.unravel_index(np.arange(flat.size), prior.sizes)))
    mask = np.ones(flat.size, dtype=bool)
    for vars_g, code, bin_index in constraints:
        vars_g = tuple(vars_g)
        symbol_sizes = {v: code.domain.sizes[i] for i, v in enumerate(vars_g)}
        for v in vars_g:
            if symbol_sizes[v] ** n != seq_sizes[v]:
                raise ValueError(f"binning for {v} does not match the prior's sequence space")
        g_idx = _group_index(var_seqs, vars_g, symbol_sizes, n)
        mask &= code.assignment[g_idx] == int(bin_index)
    if not mask.any():
        return NO_CANDIDATE
    masked = np.where(mask, flat, -1.0)
    winner = int(np.argmax(masked))  # first max = lexicographic tie-break
    return tuple(int(var_seqs[v][winner]) for v in prior.names)


def sw_success_prob(p: JointPmf, groups: Sequence[tuple[Sequence[str], BinningCode]],
                    n: int, max_entries: int = DEFAULT_DOMAIN_CAP) -> float:
    """Exact probability that ML decoding from bin indices plus side
    information recovers the binned variables, for a fixed binning.

    Side information is every variable of ``p`` not covered by a group.
    """
    sizes = dict(zip(p.names, p.sizes))
    ext = p.iid_extend(n, max_entries=max_entries)
    flat = ext.table.ravel()
    var_seqs = dict(zip(ext.names, np.unravel_index(np.arange(flat.size), ext.sizes)))
    decoded = [v for vars_g, _ in groups for v in vars_g]
    side = [v for v in p.names if v not in set(decoded)]

    combined = np.zeros(flat.size, dtype=np.int64)
    for vars_g, code in groups:
        g_idx = _group_index(var_seqs, tuple(vars_g), sizes, n)
        combined = combined * code.num_bins + code.assignment[g_idx]
    side_idx = np.zeros(flat.size, dtype=np.int64)
    for v in side:
        side_idx = side_idx * sizes[v] ** n + var_seqs[v]
    dec_idx = np.zeros(flat.size, dtype=np.int64)
    for v in decoded:
        dec_idx = dec_idx * sizes[v] ** n + var_seqs[v]

    n_combo = math.prod(code.num_bins for _, code in groups)
    group_key = side_idx * n_combo + combined
    # winner per (side, bins) group: max prior, ties to smallest decode index
    order = np.lexsort((dec_idx, -flat, group_key))
    gk_sorted = group_key[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = gk_sorted[1:] != gk_sorted[:-1]
    uniq, inverse = np.unique(group_key, return_inverse=True)
    winner_dec = np.zeros(len(uniq), dtype=np.int64)
    winner_dec[np.searchsorted(uniq, gk_sorted[starts])] = dec_idx[order[starts]]
    success = dec_idx == winner_dec[inverse]
    return float(flat[success].sum())


# ---------------------------------------------------------------------------
# The relay protocol, enumerated exactly.

@dataclass(frozen=True)
class ProtocolCaps:
    """Entry-count caps checked before run_protocol allocates: ``wvu`` for
    the (w,v,u) sequence space, ``y_pairs`` for the (y1,y2) output space,
    ``with_g`` for the joint with shared indices and for the dense
    channel-mixing array over (shared indices, decoded pairs); above it
    the mixing groups the live relay tuples instead."""

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
        if self.n < 1:
            raise ValueError("block length must be >= 1")
        for r in (self.rates.rf1, self.rates.rb1, self.rates.rf2, self.rates.rb2,
                  *self.tilde_rates):
            if not math.isfinite(r) or r < 0:
                raise ValueError("protocol rates must be finite and >= 0")
        object.__setattr__(self, "tilde_rates", tuple(float(t) for t in self.tilde_rates))


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
        if self.tv_best_g > 2.0 * self.tv_with_uniform_g + 1e-9:
            raise RuntimeError("derandomization inequality violated; numerical fault")


def _decoder_table(prior_seq: np.ndarray, keys: np.ndarray, n_keys: int) -> np.ndarray:
    """argmax of prior per key with lexicographic tie-break; -1 for keys
    with empty preimage."""
    order = np.lexsort((np.arange(len(keys)), -prior_seq, keys))
    ks = keys[order]
    starts = np.ones(len(order), dtype=bool)
    if len(order) > 1:
        starts[1:] = ks[1:] != ks[:-1]
    table = np.full(n_keys, -1, dtype=np.int64)
    table[ks[starts]] = order[starts]
    return table


def _mix_outputs(keys: np.ndarray, weights: np.ndarray, groups: int, c1: np.ndarray,
                 c2: np.ndarray, cap: int, right_first: bool = False) -> np.ndarray:
    """(groups, ny1, ny2) array: per group g, the sum of
    weights[i] * outer(c1[d1], c2[d2]) over the terms with
    keys[i] = (g * k1 + d1) * k2 + d2.  When the dense (groups, k1, k2)
    array M fits under ``cap`` and C1ᵀ M C2 takes fewer multiply-adds than
    one outer product per term, the weights are scattered into M.
    Otherwise (decoded spaces that dwarf the terms, as in copy-w with
    |W| = |Y1||Y2|) the terms are grouped on their key and each g is one
    matmul of gathered channel rows.  ``right_first`` associates the
    products the other way."""
    (k1, ny1), (k2, ny2) = c1.shape, c2.shape
    if groups * k1 * k2 <= cap and groups * k1 * ny1 * (k2 + ny2) <= len(keys) * ny1 * ny2:
        mix = np.bincount(keys, weights=weights, minlength=groups * k1 * k2).reshape(groups, k1, k2)
        return c1.T @ (mix @ c2) if right_first else c1.T @ mix @ c2
    uniq, inv = np.unique(keys, return_inverse=True)
    wsum = np.bincount(inv, weights=weights)[:, None]
    g, d = np.divmod(uniq, k1 * k2)
    out = np.zeros((groups, ny1, ny2))
    cuts = np.searchsorted(g, np.arange(groups + 1))
    for i in np.flatnonzero(np.diff(cuts)):
        s = slice(cuts[i], cuts[i + 1])
        a, b = c1[d[s] // k2], c2[d[s] % k2]  # gathered copies, scaled in place
        (b if right_first else a)[...] *= wsum[s]
        out[i] = a.T @ b
    return out


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
    n = cfg.n
    coup = cfg.coupling
    nu, nv, nw = coup.p_uvw.sizes
    n1 = coup.chan_y1.target[0].size
    n2 = coup.chan_y2.target[0].size

    k_wvu = (nw * nv * nu) ** n
    k_y = (n1 * n2) ** n
    if k_wvu > cfg.caps.wvu:
        raise StateSpaceTooLarge(f"(w,v,u) sequence space {k_wvu} exceeds cap {cfg.caps.wvu}")
    if k_y > cfg.caps.y_pairs:
        raise StateSpaceTooLarge(f"(y1,y2) sequence space {k_y} exceeds cap {cfg.caps.y_pairs}")

    rt0, rt1, rt2 = cfg.tilde_rates
    rate_map = {"g0": rt0, "g1": rt1, "b1": cfg.rates.rb1, "f1": cfg.rates.rf1,
                "g2": rt2, "b2": cfg.rates.rb2, "f2": cfg.rates.rf2}
    names = ("g0", "g1", "b1", "f1", "g2", "b2", "f2")
    rate_names = {"g0": "rt0", "g1": "rt1", "g2": "rt2",
                  "b1": "rb1", "b2": "rb2", "f1": "rf1", "f2": "rf2"}
    bins = {}
    eff = {}
    for name in names:
        bins[name], eff[name] = bins_from_rate(n, rate_map[name])
    gtot = bins["g0"] * bins["g1"] * bins["g2"]
    if gtot * k_y > cfg.caps.with_g:
        raise StateSpaceTooLarge(f"joint with shared indices needs {gtot * k_y} entries")

    seeds = np.random.SeedSequence(cfg.seed).generate_state(len(names))
    w_space = SequenceSpace(("W",), (nw,), n)
    wv_space = SequenceSpace(("W", "V"), (nw, nv), n)
    wu_space = SequenceSpace(("W", "U"), (nw, nu), n)
    domain_of = {"g0": w_space, "g1": wv_space, "b1": wv_space, "f1": wv_space,
                 "g2": wu_space, "b2": wu_space, "f2": wu_space}
    code = {name: make_binning(domain_of[name], bins[name], int(seeds[i]))
            for i, name in enumerate(names)}

    # per-symbol joint over (W, V, U) and the two output channels
    p_wvu = coup.p_uvw.reorder(("W", "V", "U"))
    prior_seq = product_law(p_wvu.table.ravel(), n)

    # per relay tuple: shared-index key g and cell (g0, g1, g2, b1, b2); each
    # array over all K tuples is dropped once consumed, to bound peak memory
    w_seq, v_seq, u_seq = split_sequences(np.arange(k_wvu), (nw, nv, nu), n)
    wv_seq = merge_sequences([w_seq, v_seq], (nw, nv), n)
    wu_seq = merge_sequences([w_seq, u_seq], (nw, nu), n)
    del v_seq, u_seq
    g_of_tuple = ((code["g0"].assignment[w_seq] * bins["g1"] + code["g1"].assignment[wv_seq])
                  * bins["g2"] + code["g2"].assignment[wu_seq])
    del w_seq
    cell = ((g_of_tuple * bins["b1"] + code["b1"].assignment[wv_seq]) * bins["b2"]
            + code["b2"].assignment[wu_seq])

    # decoder priors over the (w,v) and (w,u) sequence spaces
    p_wv = p_wvu.marginal(("W", "V")).table.ravel()
    p_wu = p_wvu.marginal(("W", "U")).table.ravel()
    prior_wv = product_law(p_wv, n)
    prior_wu = product_law(p_wu, n)
    wv_idx = np.arange((nw * nv) ** n)
    wu_idx = np.arange((nw * nu) ** n)
    wv_w = split_sequences(wv_idx, (nw, nv), n)[0]
    wu_w = split_sequences(wu_idx, (nw, nu), n)[0]
    key1_all = ((code["g0"].assignment[wv_w] * bins["g1"] + code["g1"].assignment[wv_idx])
                * bins["b1"] + code["b1"].assignment[wv_idx]) * bins["f1"] + code["f1"].assignment[wv_idx]
    key2_all = ((code["g0"].assignment[wu_w] * bins["g2"] + code["g2"].assignment[wu_idx])
                * bins["b2"] + code["b2"].assignment[wu_idx]) * bins["f2"] + code["f2"].assignment[wu_idx]
    dec1 = _decoder_table(prior_wv, key1_all, bins["g0"] * bins["g1"] * bins["b1"] * bins["f1"])
    dec2 = _decoder_table(prior_wu, key2_all, bins["g0"] * bins["g2"] * bins["b2"] * bins["f2"])

    # output channel product matrices, indexed by decoded (w,x) sequence
    c1 = coup.chan_y1.table  # (V, W, Y1)
    c2 = coup.chan_y2.table  # (U, W, Y2)
    chan1_sym = np.transpose(c1, (1, 0, 2)).reshape(nw * nv, n1)  # (w,v) -> y1
    chan2_sym = np.transpose(c2, (1, 0, 2)).reshape(nw * nu, n2)  # (w,u) -> y2
    chan1_seq = channel_matrix(chan1_sym, n)
    chan2_seq = channel_matrix(chan2_sym, n)

    # relay conditional normalizers per (g0, g1, g2, b1, b2) cell
    n_cells = gtot * bins["b1"] * bins["b2"]
    z = np.bincount(cell, weights=prior_seq, minlength=n_cells)
    unif_cell = 1.0 / n_cells

    live = prior_seq > 0
    live_w = unif_cell * prior_seq[live] / z[cell[live]]
    g_live, wv_live, wu_live = g_of_tuple[live], wv_seq[live], wu_seq[live]
    del cell, prior_seq, g_of_tuple, wv_seq, wu_seq, live
    d1 = dec1[key1_all[wv_live]]
    d2 = dec2[key2_all[wu_live]]
    undecodable = int(np.count_nonzero((d1 < 0) | (d2 < 0)))
    if undecodable:
        raise RuntimeError(f"{undecodable} live relay tuples carry a bin key with no decoder "
                           "entry; decoder tables are inconsistent")

    sw1 = float(live_w[d1 == wv_live].sum())
    sw2 = float(live_w[d2 == wu_live].sum())
    del wv_live, wu_live

    # mix the output channels over (g, decoded pair); an empty relay cell
    # makes both nodes decode the first input, i.e. it adds its mass to
    # decoded pair (0, 0)
    k1, k2 = len(prior_wv), len(prior_wu)
    pair = d1 * k2 + d2
    del d1, d2
    empty = np.bincount(np.arange(n_cells) // (bins["b1"] * bins["b2"]),
                        weights=(z <= 0.0).astype(float), minlength=gtot) * unif_cell
    nocand = float(sum(empty))
    keys = np.append(g_live * (k1 * k2) + pair, np.arange(gtot) * (k1 * k2))
    del g_live
    joint = _mix_outputs(keys, np.append(live_w, empty), gtot, chan1_seq, chan2_seq,
                         cfg.caps.with_g)
    ny1, ny2 = joint.shape[1:]

    raw_mass = float(joint.sum())
    # second accumulation path for the two-way marginal check: sum over
    # decoded pairs without the g split, associated in the other order
    marg = _mix_outputs(np.append(pair, 0), np.append(live_w, float((z <= 0.0).sum()) * unif_cell),
                        1, chan1_seq, chan2_seq, cfg.caps.with_g, right_first=True)[0]

    qn = cfg.q.iid_extend(n, max_entries=cfg.caps.y_pairs).table
    tv_marginal = 0.5 * float(np.abs(joint.sum(axis=0) - qn).sum())
    tv_uniform = 0.5 * float(np.abs(joint - qn[None] / gtot).sum())
    per_g_tv = 0.5 * np.abs(joint * gtot - qn[None]).sum(axis=(1, 2))
    best_flat = int(np.argmin(per_g_tv))
    best_g = (best_flat // (bins["g1"] * bins["g2"]),
              (best_flat // bins["g2"]) % bins["g1"],
              best_flat % bins["g2"])

    law = JointPmf((Alphabet("G0", bins["g0"]), Alphabet("G1", bins["g1"]),
                    Alphabet("G2", bins["g2"]), Alphabet("Y1", ny1), Alphabet("Y2", ny2)),
                   joint.reshape(bins["g0"], bins["g1"], bins["g2"], ny1, ny2))
    return InducedLaw(joint_with_g=law, raw_mass=raw_mass, tv_marginal=tv_marginal,
                      tv_with_uniform_g=tv_uniform, best_g=best_g,
                      tv_best_g=float(per_g_tv[best_flat]),
                      sw1_success=sw1, sw2_success=sw2, nocandidate_mass=nocand,
                      effective_rates={f"eff_{rate_names[k]}": v for k, v in eff.items()},
                      num_bins=dict(bins),
                      binning_seeds={name: int(seeds[i]) for i, name in enumerate(names)},
                      marginal_direct=marg)


SWEEP_FIELDS = ("n", "seed", "cell_seed", "rb1", "rb2", "rf1", "rf2", "rt0", "rt1", "rt2",
                "eff_rb1", "eff_rb2", "eff_rf1", "eff_rf2", "eff_rt0", "eff_rt1", "eff_rt2",
                "tv_marginal", "tv_with_uniform_g", "tv_best_g",
                "sw1_success", "sw2_success", "nocandidate_mass", "error")


def sweep(base: ProtocolConfig, n_list: Sequence[int], seed_list: Sequence[int],
          master_seed: int = 0) -> list[dict]:
    """Run the protocol per (n, seed) cell; cell errors are recorded and the
    sweep continues.  Each cell's binnings derive from (master, n, seed)."""
    records = []
    for n in n_list:
        for seed in seed_list:
            cell_seed = int(np.random.SeedSequence([master_seed, int(n), int(seed)]).generate_state(1)[0])
            rec = {"n": int(n), "seed": int(seed), "cell_seed": cell_seed,
                   "rb1": base.rates.rb1, "rb2": base.rates.rb2,
                   "rf1": base.rates.rf1, "rf2": base.rates.rf2,
                   "rt0": base.tilde_rates[0], "rt1": base.tilde_rates[1],
                   "rt2": base.tilde_rates[2], "error": ""}
            try:
                law = run_protocol(replace(base, n=int(n), seed=cell_seed))
                eff = law.effective_rates
                rec.update({k: eff[k] for k in eff})
                rec.update(tv_marginal=law.tv_marginal,
                           tv_with_uniform_g=law.tv_with_uniform_g,
                           tv_best_g=law.tv_best_g,
                           sw1_success=law.sw1_success, sw2_success=law.sw2_success,
                           nocandidate_mass=law.nocandidate_mass)
            except Exception as exc:  # per-cell failure, sweep continues
                rec["error"] = f"{type(exc).__name__}: {exc}"
            records.append(rec)
    return records
