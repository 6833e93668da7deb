"""The coordinet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a coordinet checkout.  For one workload it writes the
workload's job configs (seeded by --seed) under .perfbench_out/, times
several fresh set-ups, then runs the jobs in a fresh worker process for
--seconds and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Earlier lines carry the
run metadata and the wall-time quartiles; the same and more goes to
result.json next to the configs.  ``--workload all`` runs every workload
(each in its own processes) and prints a table.  The exit status is 1
when any job output fails its check or a benchmark process fails, and 2
when the current directory is not a checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import tracer  # noqa: E402

OUT_ROOT = ".perfbench_out"
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0      # a whole invocation, set-up probes included


class BenchError(Exception):
    pass


def _src_digest() -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            path = os.path.join(root, f)
            h.update(path.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _commit() -> str | None:
    """HEAD of the enclosing git checkout, read from .git; None when the
    tree is not a repository."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with open(os.path.join(".git", ref)) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _python(script: str, *args: str, timeout: float) -> tuple[float, str]:
    """Run a benchmark script in a fresh interpreter; returns (wall
    seconds, stdout)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish within {timeout:.0f} s")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with status {proc.returncode}:\n{proc.stderr}")
    return wall, proc.stdout


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    wdir = os.path.join(OUT_ROOT, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(wdir, ignore_errors=True)
    job_dir = os.path.join(wdir, "jobs")
    jobs.write_jobs(workload, seed, job_dir)

    setup_walls, splits = [], []
    for _ in range(SETUP_PROBES):
        wall, stdout = _python("setup_probe.py", job_dir, timeout=60)
        setup_walls.append(wall)
        splits.append(json.loads(stdout.strip().splitlines()[-1]))
    _, stdout = _python("worker.py", "--jobs", job_dir, "--seconds", str(seconds),
                        "--trace", str(trace), timeout=max(1.0, deadline - time.perf_counter()))
    res = json.loads(stdout.strip().splitlines()[-1])

    walls = res["walls"]
    q1, med, q3 = _quartiles(walls)
    if trace:
        layers = dict(res["layers"])
        for key, metric in (("import_s", "setup.import_s"), ("parse_s", "config.parse_config.s"),
                            ("load_s", "sources.load_source.s"),
                            ("coupling_s", "sources.builtin_coupling.s")):
            layers[metric] = statistics.median(s[key] for s in splits)
        metrics = {k: (v, tracer.unit_of(k)) for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setup_walls), "s"),
            "wall_s": (med, "s"),
            "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
            "ok_frac": ((res["attempted"] - res["failed"]) / res["attempted"], "frac"),
        }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "meta": {**res["meta"], "commit": _commit(), "src_sha256": _src_digest(),
                 "workload_seed": seed},
        "wall_s": {"median": med, "q1": q1, "q3": q3, "passes": len(walls), "values": walls},
        "setup_s": {"values": setup_walls, "split": splits},
        "job_walls": res["job_walls"],
        "attempted": res["attempted"], "failed": res["failed"], "problems": res["problems"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if trace:
        detail["traced_walls"] = res["traced_walls"]
        detail["spans"] = res["edges"]
    with open(os.path.join(wdir, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    return detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="coordinet benchmark")
    ap.add_argument("--workload", required=True, choices=(*jobs.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "coordinet", "__init__.py")):
        print("perfbench: run from the root of a coordinet checkout (no src/coordinet here)",
              file=sys.stderr)
        return 2

    workloads = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for w in workloads:
            results.append(run_workload(w, args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print("perfbench: " + json.dumps(results[0]["meta"], sort_keys=True))
    metrics = {}
    for r in results:
        ws = r["wall_s"]
        print(f"perfbench: {r['workload']:<15} wall_s median {ws['median']:.4f} "
              f"q1 {ws['q1']:.4f} q3 {ws['q3']:.4f} over {ws['passes']} passes; "
              f"{r['attempted'] - r['failed']}/{r['attempted']} jobs ok")
        for name, m in r["metrics"].items():
            key = name if len(results) == 1 else f"{r['workload']}.{name}"
            metrics[key] = m
            if len(results) > 1:
                print(f"perfbench:   {name:<16} {m['value']:.6g} {m['unit']}")
        for p in r["problems"]:
            print(f"perfbench: FAILED CHECK [{r['workload']}] {p}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
