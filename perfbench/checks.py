"""Output checks that hold for any workload seed.

Each check returns a list of problems; an empty list means the job's
output is correct.  Reference values are computed here with plain numpy,
not with the program's own helpers.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np


def _iid_power(q: np.ndarray, n: int) -> np.ndarray:
    """q^n over (Y1^n, Y2^n), first symbol most significant."""
    out = q
    for _ in range(n - 1):
        out = np.kron(out, q)
    return out


def protocol(law, q: np.ndarray, n: int) -> list[str]:
    """Exactness invariants of one run_protocol law."""
    bad = []
    if not abs(law.raw_mass - 1.0) <= 1e-9:
        bad.append(f"raw_mass {law.raw_mass!r} is not 1 within 1e-9")
    marg = law.joint_with_g.table.sum(axis=(0, 1, 2))
    two_way = float(np.abs(marg - law.marginal_direct).sum())
    if not two_way <= 1e-12:
        bad.append(f"two-way marginal check {two_way!r} exceeds 1e-12")
    if not law.tv_best_g <= 2.0 * law.tv_with_uniform_g + 1e-9:
        bad.append(f"tv_best_g {law.tv_best_g!r} > 2 * tv_with_uniform_g {law.tv_with_uniform_g!r}")
    tv = 0.5 * float(np.abs(marg - _iid_power(q, n)).sum())
    if not abs(tv - law.tv_marginal) <= 1e-9:
        bad.append(f"tv_marginal {law.tv_marginal!r} but the law gives {tv!r}")
    return bad


def _rows(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "results.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def _summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def _tv_in_unit_interval(rows, fields) -> list[str]:
    bad = []
    for row in rows:
        for f in fields:
            v = float(row[f])
            if not 0.0 <= v <= 1.0:
                bad.append(f"{f}={v!r} outside [0, 1] (n={row['n']}, seed={row['seed']})")
    return bad


def sweep(out_dir: str, cells: int) -> list[str]:
    rows = _rows(out_dir)
    bad = []
    if len(rows) != cells:
        bad.append(f"{len(rows)} sweep rows, expected {cells}")
    failed = [r for r in rows if r["error"]]
    if failed:
        bad.append(f"{len(failed)} failed cells, first: {failed[0]['error']}")
        rows = [r for r in rows if not r["error"]]
    if _summary(out_dir)["failed_cells"] != len(failed):
        bad.append("summary failed_cells disagrees with results.csv")
    return bad + _tv_in_unit_interval(rows, ("tv_marginal", "tv_with_uniform_g", "tv_best_g"))


def osrb(out_dir: str, cells: int) -> list[str]:
    rows = _rows(out_dir)
    bad = [] if len(rows) == cells else [f"{len(rows)} osrb rows, expected {cells}"]
    return bad + _tv_in_unit_interval(rows, ("tv",))


def _mutual_information(q: np.ndarray) -> float:
    p1 = q.sum(axis=1, keepdims=True)
    p2 = q.sum(axis=0, keepdims=True)
    nz = q > 0
    return float((q[nz] * np.log2(q[nz] / (p1 @ p2)[nz])).sum())


def frontier(out_dir: str, q: np.ndarray, points: int) -> list[str]:
    """With rb1 = rb2 = inf the region is rf1 + rf2 >= I(Y1;Y2): above the
    threshold both searches must find a witness, below it neither may, and
    the outer verdict must be negative."""
    threshold = _mutual_information(q)
    rows = _rows(out_dir)
    bad = [] if len(rows) == points else [f"{len(rows)} frontier points, expected {points}"]
    for row in rows:
        s = float(row["rf1"]) + float(row["rf2"])
        vin, vout = row["inner_verdict"], row["outer_verdict"]
        if s > threshold and (vin, vout) != ("inside", "inside"):
            bad.append(f"rf1+rf2={s:.4f} > I={threshold:.4f} but verdicts {vin}/{vout}")
        if s < threshold and (vin == "inside" or vout not in ("outside-heuristic", "outside")):
            bad.append(f"rf1+rf2={s:.4f} < I={threshold:.4f} but verdicts {vin}/{vout}")
    return bad


def wyner(out_dir: str, value: float) -> list[str]:
    summ = _summary(out_dir)
    bad = []
    if not abs(summ["wyner_ci"] - value) <= 1e-3:
        bad.append(f"wyner_ci {summ['wyner_ci']!r}, closed form {value}")
    if not summ["markov_slack"] <= 1e-4:
        bad.append(f"markov_slack {summ['markov_slack']!r} exceeds 1e-4")
    return bad


def fme_verify(out_dir: str) -> list[str]:
    summ = _summary(out_dir)
    if summ["agree_count"] != summ["couplings"]:
        return [f"only {summ['agree_count']} of {summ['couplings']} couplings agree"]
    return []
