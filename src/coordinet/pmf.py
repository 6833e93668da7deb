"""Exact dense probability tables over products of named finite alphabets.

Everything downstream (information measures, rate-region search, the
protocol simulator) manipulates ``JointPmf`` and ``ConditionalPmf``
objects.  Tables are plain float64 numpy arrays, one axis per variable,
addressed by variable *name* rather than position.  Instances are
immutable after construction and safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Construction tolerances: entries below -NEG_TOL raise, sums farther than
# SUM_TOL from 1 raise, anything closer is renormalized by exact division.
NEG_TOL = 1e-12
SUM_TOL = 1e-6

DEFAULT_IID_CAP = 2 ** 24


class PmfError(Exception):
    """Base class for pmf construction and lookup failures."""


class NegativeMass(PmfError):
    pass


class NotNormalized(PmfError):
    pass


class NonFiniteMass(PmfError):
    pass


class AlphabetMismatch(PmfError):
    pass


class UnknownVariable(PmfError):
    pass


class StateSpaceTooLarge(PmfError):
    pass


class UndefinedConditional(PmfError):
    """A conditional row with zero conditioning mass was actually needed."""


@dataclass(frozen=True)
class Alphabet:
    """A named finite alphabet, optionally with display labels."""

    name: str
    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"alphabet {self.name!r} must have size >= 1")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.size:
                raise ValueError(f"alphabet {self.name!r}: {len(self.labels)} labels for size {self.size}")


def _as_alphabets(alphabets: Iterable) -> tuple[Alphabet, ...]:
    out = []
    for a in alphabets:
        if isinstance(a, Alphabet):
            out.append(a)
        else:  # (name, size) pair shorthand
            name, size = a[0], a[1]
            out.append(Alphabet(str(name), int(size)))
    names = [a.name for a in out]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    return tuple(out)


def mass_check(t: np.ndarray):
    """The checks of a pmf table, run on each row of ``t`` (one table per
    row): the rows with negatives within NEG_TOL zeroed, their sums, and
    per row the error building a JointPmf of it raises, or None."""
    finite, low = np.isfinite(t).all(axis=-1), t.min(axis=-1)
    t = np.where(t < 0, 0.0, t)
    s = t.sum(axis=-1)
    return t, s, [NonFiniteMass("probabilities must be finite") if not f
                  else NegativeMass(f"negative probability {m}") if m < -NEG_TOL
                  else NotNormalized(f"probabilities sum to {x}") if abs(x - 1.0) > SUM_TOL
                  else None for f, m, x in zip(finite, low.tolist(), s.tolist())]


@dataclass(frozen=True)
class JointPmf:
    """Dense joint pmf; ``table`` has one axis per alphabet, in order."""

    alphabets: tuple[Alphabet, ...]
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        alphabets = _as_alphabets(self.alphabets)
        object.__setattr__(self, "alphabets", alphabets)
        sizes = tuple(a.size for a in alphabets)
        t = np.asarray(self.table, dtype=float)
        if t.size != int(np.prod(sizes)):
            raise ValueError(f"table has {t.size} entries, alphabets require {int(np.prod(sizes))}")
        t, s, errors = mass_check(t.reshape(1, -1))
        if errors[0]:
            raise errors[0]
        t = (t[0] / s[0]).reshape(sizes)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    # -- naming ---------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.alphabets)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.alphabets)

    def axes(self, names: Sequence[str]) -> tuple[int, ...]:
        own = self.names
        missing = [n for n in names if n not in own]
        if missing:
            raise UnknownVariable(f"unknown variable(s) {missing}; have {list(own)}")
        return tuple(own.index(n) for n in names)

    # -- core operations --------------------------------------------------
    def marginal(self, keep: Sequence[str]) -> "JointPmf":
        """Sum out every variable not in ``keep``.

        The kept variables stay in this pmf's own (construction) order.
        """
        keep_axes = set(self.axes(keep))
        if not keep_axes:
            raise UnknownVariable("marginal needs at least one variable to keep")
        drop = tuple(i for i in range(len(self.alphabets)) if i not in keep_axes)
        t = self.table.sum(axis=drop) if drop else self.table
        alphas = tuple(a for i, a in enumerate(self.alphabets) if i in keep_axes)
        return JointPmf(alphas, t)

    def condition(self, given: Sequence[str]) -> "ConditionalPmf":
        """Condition on ``given`` (in the requested order).

        Rows whose conditioning event has zero mass are flagged undefined
        and zero-filled, never replaced by a fabricated distribution.
        """
        g_axes = self.axes(given)
        if len(g_axes) >= len(self.alphabets):
            raise UnknownVariable("conditioning must leave at least one target variable")
        t_axes = tuple(i for i in range(len(self.alphabets)) if i not in g_axes)
        perm = g_axes + t_axes
        t = self.table.transpose(perm)
        ng = len(g_axes)
        row_mass = t.sum(axis=tuple(range(ng, t.ndim)))
        defined = row_mass > 0.0
        denom = np.where(defined, row_mass, 1.0)
        rows = t / denom.reshape(denom.shape + (1,) * (t.ndim - ng))
        rows = np.where(defined.reshape(denom.shape + (1,) * (t.ndim - ng)), rows, 0.0)
        given_alpha = tuple(self.alphabets[i] for i in g_axes)
        target_alpha = tuple(self.alphabets[i] for i in t_axes)
        return ConditionalPmf(given_alpha, target_alpha, rows, defined)

    def iid_extend(self, n: int, max_entries: int = DEFAULT_IID_CAP) -> "JointPmf":
        """The n-fold product law; each variable becomes its own sequence
        alphabet of size ``k**n`` indexed lexicographically (first symbol
        most significant)."""
        if n < 1:
            raise ValueError("block length must be >= 1")
        sizes = self.sizes
        total = 1
        for k in sizes:
            total *= k ** n
            if total > max_entries:
                raise StateSpaceTooLarge(f"{total}+ entries exceeds cap {max_entries}")
        flat = self.table.ravel()
        ext = flat
        for _ in range(n - 1):
            ext = np.multiply.outer(ext, flat).ravel()
        d = len(sizes)
        full = ext.reshape(sizes * n)  # axes: (t0 v0, t0 v1, ..., t1 v0, ...)
        perm = [t * d + j for j in range(d) for t in range(n)]
        full = full.transpose(perm)
        new_tab = full.reshape([k ** n for k in sizes])
        alphas = tuple(Alphabet(a.name, a.size ** n) for a in self.alphabets)
        return JointPmf(alphas, new_tab)

    def tv(self, other: "JointPmf") -> float:
        """Total variation distance, (1/2) * sum |p - q|."""
        if self.names != other.names or self.sizes != other.sizes:
            raise AlphabetMismatch(f"{self.names}/{self.sizes} vs {other.names}/{other.sizes}")
        return 0.5 * float(np.abs(self.table - other.table).sum())

    def reorder(self, names: Sequence[str]) -> "JointPmf":
        if set(names) != set(self.names) or len(names) != len(self.names):
            raise UnknownVariable(f"reorder needs a permutation of {self.names}")
        perm = self.axes(names)
        return JointPmf(tuple(self.alphabets[i] for i in perm), self.table.transpose(perm))

    def attach(self, chan: "ConditionalPmf") -> "JointPmf":
        """Multiply a channel onto this pmf: result over (own vars + targets).

        The channel's given-variables are matched to this pmf by name.
        Undefined channel rows are allowed only where this pmf puts zero
        mass on the conditioning assignment.
        """
        g_names = [a.name for a in chan.given]
        g_axes = self.axes(g_names)
        for a in chan.given:
            mine = self.alphabets[self.names.index(a.name)]
            if mine.size != a.size:
                raise AlphabetMismatch(f"size mismatch on {a.name}: {mine.size} vs {a.size}")
        for a in chan.target:
            if a.name in self.names:
                raise AlphabetMismatch(f"channel target {a.name} already present")
        if not bool(chan.defined.all()):
            base = self.table.sum(axis=tuple(i for i in range(len(self.alphabets)) if i not in set(g_axes)))
            # base axes follow pmf order of the given vars; align to chan order
            order = np.argsort(np.argsort(g_axes))
            base = base.transpose(tuple(order))
            if float(base[~chan.defined].sum()) > 1e-15:
                raise UndefinedConditional("positive mass on an undefined conditional row")
        nt = len(chan.target)
        ctab = np.where(chan.defined.reshape(chan.defined.shape + (1,) * nt), chan.table, 0.0)
        # transpose chan's given axes into this pmf's relative order
        rel = np.argsort(g_axes)  # chan-given position sorted by pmf axis
        ctab = ctab.transpose(tuple(np.argsort(rel)) + tuple(len(g_axes) + i for i in range(nt)))
        shape = [1] * len(self.alphabets) + [a.size for a in chan.target]
        for pos, ax in enumerate(sorted(g_axes)):
            shape[ax] = ctab.shape[pos]
        ctab = ctab.reshape(shape)
        out = self.table.reshape(self.table.shape + (1,) * nt) * ctab
        return JointPmf(self.alphabets + chan.target, out)

    # -- sampling ----------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Inverse-CDF sampling over the canonical (C-order) flat index."""
        cdf = np.cumsum(self.table.ravel())
        cdf[-1] = 1.0
        if size is None:
            return int(np.searchsorted(cdf, rng.random(), side="right"))
        return np.searchsorted(cdf, rng.random(size), side="right")


@dataclass(frozen=True)
class ConditionalPmf:
    """Rows of pmfs over ``target``, one per assignment of ``given``.

    ``defined`` marks rows that came from a positive-mass conditioning
    event; undefined rows hold zeros.
    """

    given: tuple[Alphabet, ...]
    target: tuple[Alphabet, ...]
    table: np.ndarray = field(repr=False)
    defined: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        given = _as_alphabets(self.given)
        target = _as_alphabets(self.target)
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "target", target)
        gs = tuple(a.size for a in given)
        ts = tuple(a.size for a in target)
        t = np.asarray(self.table, dtype=float).reshape(gs + ts)
        if not np.isfinite(t).all():
            raise NonFiniteMass("conditional probabilities must be finite")
        if t.min(initial=0.0) < -NEG_TOL:
            raise NegativeMass(f"negative conditional probability {t.min()}")
        t = np.where(t < 0, 0.0, t)
        sums = t.sum(axis=tuple(range(len(gs), t.ndim)))
        defined = self.defined
        if defined is None:
            defined = np.ones(gs, dtype=bool)
        else:
            defined = np.asarray(defined, dtype=bool).reshape(gs)
        bad = defined & (np.abs(sums - 1.0) > SUM_TOL)
        if bad.any():
            raise NotNormalized(f"{int(bad.sum())} conditional row(s) do not sum to 1")
        denom = np.where(defined & (sums > 0), sums, 1.0)
        t = t / denom.reshape(gs + (1,) * len(ts))
        t = np.where(defined.reshape(gs + (1,) * len(ts)), t, 0.0)
        t.setflags(write=False)
        defined.setflags(write=False)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "defined", defined)

    @property
    def given_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.given)

    @property
    def target_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.target)

    @staticmethod
    def deterministic(given, target, mapping) -> "ConditionalPmf":
        """Point-mass rows: target flat index = mapping[given flat index]."""
        given = _as_alphabets(given)
        target = _as_alphabets(target)
        gn = int(np.prod([a.size for a in given]))
        tn = int(np.prod([a.size for a in target]))
        mapping = np.asarray(mapping, dtype=int).reshape(gn)
        if mapping.min() < 0 or mapping.max() >= tn:
            raise ValueError("mapping out of target range")
        t = np.zeros((gn, tn))
        t[np.arange(gn), mapping] = 1.0
        gs = tuple(a.size for a in given)
        ts = tuple(a.size for a in target)
        return ConditionalPmf(given, target, t.reshape(gs + ts))


def make_joint(alphabets, table) -> JointPmf:
    return JointPmf(_as_alphabets(alphabets), table)


# ---------------------------------------------------------------------------
# Text serialization: header with names and sizes, then one dense row per
# line `i j ... probability` in canonical order, 17 significant digits.

def dumps_pmf(p: JointPmf) -> str:
    head = []
    for a in p.alphabets:
        tok = f"{a.name}:{a.size}"
        if a.labels is not None:
            tok += ":" + "|".join(a.labels)
        head.append(tok)
    lines = ["vars: " + " ".join(head)]
    for flat, prob in enumerate(p.table.ravel()):
        idx = np.unravel_index(flat, p.sizes)
        lines.append(" ".join(str(int(i)) for i in idx) + f" {prob:.17g}")
    return "\n".join(lines) + "\n"


def loads_pmf(text: str) -> JointPmf:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vars:"):
        raise PmfError("pmf text must start with a 'vars:' header")
    alphas = []
    for tok in lines[0][len("vars:"):].split():
        parts = tok.split(":")
        if len(parts) < 2:
            raise PmfError(f"bad alphabet token {tok!r}")
        labels = tuple(parts[2].split("|")) if len(parts) > 2 else None
        alphas.append(Alphabet(parts[0], int(parts[1]), labels))
    alphas = tuple(alphas)
    sizes = tuple(a.size for a in alphas)
    total = int(np.prod(sizes))
    if len(lines) - 1 != total:
        raise PmfError(f"expected {total} rows, found {len(lines) - 1}")
    table = np.zeros(sizes)
    seen = set()
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != len(sizes) + 1:
            raise PmfError(f"bad row {ln!r}")
        idx = tuple(int(t) for t in toks[:-1])
        if not all(0 <= i < k for i, k in zip(idx, sizes)):
            raise PmfError(f"row {ln!r}: index out of range for sizes {sizes}")
        if idx in seen:
            raise PmfError(f"row {ln!r}: cell {idx} listed twice")
        seen.add(idx)
        table[idx] = float(toks[-1])
    return JointPmf(alphas, table)


def write_pmf(p: JointPmf, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_pmf(p))


def read_pmf(path) -> JointPmf:
    with open(path) as fh:
        return loads_pmf(fh.read())
