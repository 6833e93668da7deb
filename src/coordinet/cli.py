"""Command-line entry point: one config file in, one run directory out.

Every run writes the echoed config, a results.csv, and a summary.json of
the key scalar results.  Exit status: 0 success, 2 when some sweep or
osrb cells failed, 1 on a fatal error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys

import numpy as np

from . import fme, information, osrb, region
from .config import (COMMAND_PARAMS, ConfigError, RunConfig, ValidationError, echo_config,
                     parse_config)
from .pmf import write_pmf
from .sources import builtin_coupling, load_source


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _write_summary(out_dir, payload: dict):
    payload = {k: _jsonable(v) for k, v in payload.items()}
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(out_dir, fieldnames, rows):
    with open(os.path.join(out_dir, "results.csv"), "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        w.writeheader()
        for row in rows:
            w.writerow({k: _fmt(row.get(k, "")) for k in fieldnames})


def _fmt(v):
    if isinstance(v, (np.floating, float)):
        return f"{float(v):.17g}"
    return v


def _rates_from(params) -> region.RateTuple:
    return region.RateTuple(rf1=params["rf1"], rb1=params["rb1"],
                            rf2=params["rf2"], rb2=params["rb2"])


def _cmd_info(cfg, q, out_dir):
    h1 = information.entropy(q, ("Y1",))
    h2 = information.entropy(q, ("Y2",))
    hj = information.entropy(q)
    mi = information.mutual_information(q, ("Y1",), ("Y2",))
    row = {"entropy_y1": h1, "entropy_y2": h2, "joint_entropy": hj, "mutual_information": mi}
    _write_csv(out_dir, list(row), [row])
    return dict(row), 0


def _cmd_wyner(cfg, q, out_dir):
    p = cfg.params
    wcfg = information.WynerConfig(restarts=p["restarts"], seed=cfg.master_seed)
    sol = information.wyner_common_information(q, w_cap=p["w_cap"] or None, config=wcfg)
    rows = [{"restart": i, "value": v} for i, v in sol.trace]
    _write_csv(out_dir, ["restart", "value"], rows)
    return {"wyner_ci": sol.value, "wyner_lower": sol.lower_bound,
            "markov_slack": sol.markov_slack, "w_cardinality": sol.w_cardinality}, 0


def _cmd_region(cfg, q, out_dir):
    p = cfg.params
    r = _rates_from(p)
    scfg = region.SearchConfig(restarts=p["restarts"], seed=cfg.master_seed)
    if cfg.command == "region-inner":
        caps = (p["cap_u"], p["cap_v"], p["cap_w"])
        dec = region.inner_membership(q, r, caps=caps, config=scfg)
    else:
        dec = region.outer_membership(q, r, config=scfg)
    if dec.verdict == "inside":
        write_pmf(dec.witness.joint(), os.path.join(out_dir, "witness.pmf"))
    row = {"rf1": r.rf1, "rb1": r.rb1, "rf2": r.rf2, "rb2": r.rb2,
           "verdict": dec.verdict, "certificate": dec.certificate,
           "best_slack": dec.best_slack, "restarts_used": dec.restarts_used}
    _write_csv(out_dir, list(row), [row])
    return {"verdict": dec.verdict, "certificate": dec.certificate,
            "best_slack": dec.best_slack, "restarts_used": dec.restarts_used}, 0


def _cmd_frontier(cfg, q, out_dir):
    p = cfg.params
    ax = tuple(p["axes"].split(","))
    fixed_names = [v for v in ("rf1", "rb1", "rf2", "rb2") if v not in ax]
    fixed = dict(zip(fixed_names, p["fixed_rates"]))
    grid = tuple(zip(p["grid_min"], p["grid_max"], p["grid_steps"]))
    caps = (p["cap_u"], p["cap_v"], p["cap_w"])
    scfg = region.SearchConfig(restarts=p["restarts"], seed=cfg.master_seed)
    pts = region.frontier(q, fixed, ax, grid, caps=caps, config=scfg)
    wit_dir = os.path.join(out_dir, "witnesses")
    os.makedirs(wit_dir, exist_ok=True)
    rows = []
    n_inside_inner = n_inside_outer = 0
    for i, pt in enumerate(pts):
        wid = ""
        if pt.inner.witness is not None and pt.inner.verdict == "inside":
            wid = f"inner_{i:04d}"
            write_pmf(pt.inner.witness.joint(), os.path.join(wit_dir, wid + ".pmf"))
        n_inside_inner += pt.inner.verdict == "inside"
        n_inside_outer += pt.outer.verdict == "inside"
        rows.append({"rf1": pt.rates.rf1, "rb1": pt.rates.rb1,
                     "rf2": pt.rates.rf2, "rb2": pt.rates.rb2,
                     "inner_verdict": pt.inner.verdict,
                     "inner_certificate": pt.inner.certificate,
                     "inner_best_slack": pt.inner.best_slack,
                     "outer_verdict": pt.outer.verdict,
                     "outer_certificate": pt.outer.certificate,
                     "outer_best_slack": pt.outer.best_slack,
                     "witness_id": wid})
    _write_csv(out_dir, list(rows[0]), rows)
    return {"n_points": len(pts), "inner_inside": int(n_inside_inner),
            "outer_inside": int(n_inside_outer)}, 0


def _cmd_fme(cfg, q, out_dir):
    p = cfg.params
    rng = np.random.default_rng(cfg.master_seed)
    orders = None if p["orders"] == "all" else [tuple(p["orders"].split(","))]
    sys_dir = os.path.join(out_dir, "systems")
    os.makedirs(sys_dir, exist_ok=True)
    systems = {"constraints": [], "direct": []}
    for ci in range(p["couplings"]):
        joint = region.random_inner_coupling(rng).joint()
        for name, build in (("constraints", fme.binning_constraint_system),
                            ("direct", fme.theorem_rate_system)):
            systems[name].append(build(joint))
            with open(os.path.join(sys_dir, f"coupling_{ci:03d}_{name}.lsys"), "w") as fh:
                fh.write(systems[name][-1].to_text())
    base, direct = (fme.LinearSystem.stack(systems[name]) for name in ("constraints", "direct"))
    per_coupling = fme.projection_matches_rate_system(base, direct, orders=orders)
    rows = [{"coupling": ci, "order": "+".join(order), "agree": rep.agree, "vertices": rep.vertices}
            for ci, reports in enumerate(per_coupling) for order, rep in reports]
    _write_csv(out_dir, ["coupling", "order", "agree", "vertices"], rows)
    agree_count = sum(all(rep.agree for _, rep in reports) for reports in per_coupling)
    return {"agree_count": agree_count, "couplings": p["couplings"]}, 0


def _protocol_parts(cfg, q):
    p = cfg.params
    return builtin_coupling(p["coupling"], q), _rates_from(p), (p["rt0"], p["rt1"], p["rt2"])


def _cmd_protocol(cfg, q, out_dir):
    p = cfg.params
    coup, rates, tilde = _protocol_parts(cfg, q)
    law = osrb.run_protocol(osrb.ProtocolConfig(q=q, coupling=coup, n=p["n"],
                                                rates=rates, tilde_rates=tilde,
                                                seed=cfg.master_seed))
    row = {"n": p["n"], "tv_marginal": law.tv_marginal,
           "tv_with_uniform_g": law.tv_with_uniform_g, "tv_best_g": law.tv_best_g,
           "sw1_success": law.sw1_success, "sw2_success": law.sw2_success,
           "nocandidate_mass": law.nocandidate_mass}
    row.update(law.effective_rates)
    _write_csv(out_dir, list(row), [row])
    with open(os.path.join(out_dir, "binning_seeds.json"), "w") as fh:
        json.dump(law.binning_seeds, fh, indent=2, sort_keys=True)
        fh.write("\n")
    summary = dict(row)
    summary["best_g"] = list(law.best_g)
    return summary, 0


def _cmd_sweep(cfg, q, out_dir):
    p = cfg.params
    coup, rates, tilde = _protocol_parts(cfg, q)
    base = osrb.ProtocolConfig(q=q, coupling=coup, n=min(p["n_list"]),
                               rates=rates, tilde_rates=tilde, seed=cfg.master_seed)
    recs = osrb.sweep(base, p["n_list"], range(p["seeds"]), master_seed=cfg.master_seed,
                      threads=cfg.threads)
    _write_csv(out_dir, list(osrb.SWEEP_FIELDS), recs)
    failures = sum(1 for r in recs if r.get("error"))
    medians = {}
    for n in p["n_list"]:
        vals = [r["tv_best_g"] for r in recs if r["n"] == n and not r.get("error")]
        if vals:
            medians[f"median_tv_best_g_n{n}"] = statistics.median(vals)
    summary = {"cells": len(recs), "failed_cells": failures}
    summary.update(medians)
    return summary, (2 if failures else 0)


def _cmd_osrb(cfg, q, out_dir):
    p = cfg.params
    coup = builtin_coupling(p["coupling"], q)
    joint = coup.joint()
    if p["side"] == "y":
        per_symbol = joint.marginal(("W", "V", "U", "Y1", "Y2")).reorder(("W", "V", "U", "Y1", "Y2"))
        # with the outputs as side information only the shared indices are binned
        group_rates = [p["rt0"], p["rt1"], p["rt2"]]
    else:
        per_symbol = joint.marginal(("W", "V", "U")).reorder(("W", "V", "U"))
        group_rates = [p["rt0"], p["rt1"] + p["rb1"], p["rt2"] + p["rb2"]]
    groups_vars = [("W",), ("W", "V"), ("W", "U")]
    sizes = dict(zip(per_symbol.names, per_symbol.sizes))
    rows = []
    for n in p["n_list"]:
        cells = [{"n": n, "seed": seed, "error": ""} for seed in range(p["seeds"])]
        try:  # one check per block length; a failing n fails each of its cells
            seed_groups = []
            for seed in range(p["seeds"]):
                subseeds = np.random.SeedSequence(osrb.cell_seed(cfg.master_seed, n, seed)).generate_state(3)
                groups = []
                for gi, (gv, rate) in enumerate(zip(groups_vars, group_rates)):
                    nb, _ = osrb.bins_from_rate(n, rate)
                    dom = osrb.SequenceSpace(gv, tuple(sizes[v] for v in gv), n)
                    groups.append((gv, osrb.make_binning(dom, nb, int(subseeds[gi]))))
                seed_groups.append(groups)
            for cell, tv in zip(cells, osrb.osrb_uniformity(per_symbol, seed_groups, n)):
                cell["tv"] = tv
        except Exception as exc:  # per-block-length failure, the run continues
            for cell in cells:
                cell["error"] = f"{type(exc).__name__}: {exc}"
        rows.extend(cells)
    _write_csv(out_dir, ["n", "seed", "tv", "error"], rows)
    failures = sum(1 for r in rows if r["error"])
    summary = {}
    for n in p["n_list"]:
        vals = [r["tv"] for r in rows if r["n"] == n and not r["error"]]
        if vals:
            summary[f"median_tv_n{n}"] = statistics.median(vals)
    summary["cells"] = len(rows)
    summary["failed_cells"] = failures
    return summary, (2 if failures else 0)


def run(cfg: RunConfig) -> int:
    out_dir = cfg.out_dir or "run-out"
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.echo.ini"), "w") as fh:
        fh.write(echo_config(cfg))
    q = load_source(cfg.source) if cfg.source else None

    if cfg.command not in COMMAND_PARAMS:  # unreachable after validation
        raise ValueError(f"unknown command {cfg.command}")
    # a handler is named after its command's first word (_cmd_region serves
    # both region commands) and looked up when called, so one replaced on
    # this module is the one that runs
    summary, status = globals()["_cmd_" + cfg.command.split("-")[0]](cfg, q, out_dir)

    summary = {"command": cfg.command, "source": cfg.source, "seed": cfg.master_seed,
               **summary}
    _write_summary(out_dir, summary)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="coordinet",
                                 description="coordination rate bounds and protocol simulation")
    ap.add_argument("config", help="path to a run configuration file")
    ap.add_argument("--out", help="output directory (overrides the config)")
    ap.add_argument("--threads", type=int, help="worker threads for sweeps")
    ap.add_argument("--seed", type=int, help="master seed (overrides the config)")
    args = ap.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.out:
            cfg.out_dir = args.out
        if args.threads is not None:
            if args.threads < 1:
                raise ValidationError([f"--threads: must be >= 1, got {args.threads}"])
            cfg.threads = args.threads
        if args.seed is not None:
            if args.seed < 0:
                raise ValidationError([f"--seed: must be >= 0, got {args.seed}"])
            cfg.master_seed = args.seed
        status = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(os.path.join(cfg.out_dir or "run-out", "summary.json"))
    return status


if __name__ == "__main__":
    sys.exit(main())
