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


def check_block_length(n) -> None:
    """Raise ValueError naming ``n`` unless it is an int >= 1 (a bool is not)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n: block length must be an int >= 1, got {n!r}")


def mass_check(t: np.ndarray):
    """The checks of a pmf table, run on each row of ``t`` (one table per
    row): ``t`` itself, or a copy with its negatives zeroed when a row has
    one (or a NaN), the row sums, and per row the error building a JointPmf
    of it raises, or None.  No other whole-table temporary is made."""
    low, high = t.min(axis=-1), t.max(axis=-1)
    finite = np.isfinite(low) & np.isfinite(high)
    if not (low >= 0).all():  # a negative entry, or a NaN
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

    def __post_init__(self, in_place: bool = False):
        """Check the table (mass_check) and keep it divided by its sum: a
        new array, or with ``in_place`` (from ``adopt``) the table itself."""
        alphabets = _as_alphabets(self.alphabets)
        object.__setattr__(self, "alphabets", alphabets)
        sizes = tuple(a.size for a in alphabets)
        t = np.asarray(self.table, dtype=float)
        if t.size != int(np.prod(sizes)):
            raise ValueError(f"table has {t.size} entries, alphabets require {int(np.prod(sizes))}")
        t, s, errors = mass_check(t.reshape(1, -1))
        if errors[0]:
            raise errors[0]
        t = np.divide(t[0], s[0], out=t[0] if in_place else None).reshape(sizes)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @classmethod
    def adopt(cls, alphabets, table: np.ndarray) -> "JointPmf":
        """A pmf that takes over ``table``, a writable array its caller
        hands over and no longer uses: the checks ``JointPmf(...)`` runs,
        then the table divided by its sum in place and kept, not copied
        (``JointPmf(...)`` never modifies a caller's array)."""
        p = object.__new__(cls)
        object.__setattr__(p, "alphabets", alphabets)
        object.__setattr__(p, "table", table)
        p.__post_init__(in_place=True)
        return p

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

    def iid_extend(self, n: int, max_entries: int = DEFAULT_IID_CAP) -> "JointPmf":
        """The n-fold product law: each variable becomes its own sequence alphabet of
        size ``k**n``, the table ``_iid_power`` normalised in place (``adopt``)."""
        check_block_length(n)
        total = 1
        for k in self.sizes:
            total *= k ** n
            if total > max_entries:
                raise StateSpaceTooLarge(f"{total}+ entries exceeds cap {max_entries}")
        alphas = tuple(Alphabet(a.name, a.size ** n) for a in self.alphabets)
        return JointPmf.adopt(alphas, _iid_power(self.table, n))

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
        nt = len(chan.target)
        # transpose chan's given axes into this pmf's relative order
        rel = np.argsort(g_axes)  # chan-given position sorted by pmf axis
        ctab = chan.table.transpose(tuple(np.argsort(rel)) + tuple(len(g_axes) + i for i in range(nt)))
        shape = [1] * len(self.alphabets) + [a.size for a in chan.target]
        for pos, ax in enumerate(sorted(g_axes)):
            shape[ax] = ctab.shape[pos]
        ctab = ctab.reshape(shape)
        out = self.table.reshape(self.table.shape + (1,) * nt) * ctab
        return JointPmf(self.alphabets + chan.target, out)


@dataclass(frozen=True)
class ConditionalPmf:
    """Rows of pmfs over ``target``, one per assignment of ``given``; every
    row must sum to 1."""

    given: tuple[Alphabet, ...]
    target: tuple[Alphabet, ...]
    table: np.ndarray = field(repr=False)

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
        bad = np.abs(sums - 1.0) > SUM_TOL
        if bad.any():
            raise NotNormalized(f"{int(bad.sum())} conditional row(s) do not sum to 1")
        t = t / sums.reshape(gs + (1,) * len(ts))
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


def _iid_power(table: np.ndarray, n: int) -> np.ndarray:
    """The n-fold i.i.d. power of ``table`` as a new array, ones at n = 0: axis sizes k -> k**n,
    sequences lexicographic (first symbol most significant), products taken left to right.
    Each step multiplies by one more symbol on interleaved axes, (K1^m, 1, K2^m, 1, ...) *
    (1, K1, 1, K2, ...), so the power is built in its final layout."""
    sizes = table.shape
    step = table.reshape([d for k in sizes for d in (1, k)])
    out = np.ones([1] * len(sizes))
    for m in range(n):
        out = (out.reshape([d for k in sizes for d in (k ** m, 1)]) * step).reshape(
            [k ** (m + 1) for k in sizes])
    return out


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
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vars:"):
        raise PmfError("pmf text must start with a 'vars:' header")
    alphas = []
    for tok in lines[0][len("vars:"):].split():
        parts = tok.split(":")
        if len(parts) < 2:
            raise PmfError(f"bad alphabet token {tok!r}")
        labels = tuple(parts[2].split("|")) if len(parts) > 2 else None
        try:  # a non-integer size, a size below 1, a label count off the size, a repeated name
            alphas.append(Alphabet(parts[0], int(parts[1]), labels))
            _as_alphabets(alphas)
        except ValueError as exc:
            raise PmfError(f"bad alphabet token {tok!r}: {exc}") from None
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
        try:
            idx, prob = tuple(int(t) for t in toks[:-1]), float(toks[-1])
        except ValueError:
            raise PmfError(f"row {ln!r}: indices must be integers and the probability a number") from None
        if not all(0 <= i < k for i, k in zip(idx, sizes)):
            raise PmfError(f"row {ln!r}: index out of range for sizes {sizes}")
        if idx in seen:
            raise PmfError(f"row {ln!r}: cell {idx} listed twice")
        seen.add(idx)
        table[idx] = prob
    return JointPmf(alphas, table)


def write_pmf(p: JointPmf, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_pmf(p))


def read_pmf(path) -> JointPmf:
    with open(path) as fh:
        return loads_pmf(fh.read())
