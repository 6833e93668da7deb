"""Run one workload in this (fresh) process.

Usage: python3 perfbench/worker.py --jobs DIR --seconds S --trace 0|1

Runs passes over the job configs in DIR in a closed loop (one client; the
next job starts when the previous one finishes) for S seconds, stopping
before a pass that would not fit (two passes at least; one in each half
of a traced run), checks every job's output, and prints one JSON object
as its last line.  With --trace 1 the first half of the time runs untraced and the
second half traced, so the tracing overhead is measured in the same
process.  Run from the root of a checkout; the program is imported from
its ``src`` directory.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

_t0 = time.perf_counter()
import coordinet  # noqa: E402
from coordinet import cli, config, osrb, region, sources  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

# closed forms of Wyner's common information for the sources the jobs use
WYNER_CLOSED_FORM = {"triple-abc": 1.0}   # W = the shared bit A


class Job:
    """One pinned config; everything its check needs is read up front,
    outside the timed region and before any tracing."""

    def __init__(self, path: str, out_root: str):
        self.path = path
        self.name = os.path.splitext(os.path.basename(path))[0]
        self.out_dir = os.path.join(out_root, self.name)
        self.cfg = config.parse_config(path)
        self.q = sources.load_source(self.cfg.source).table if self.cfg.source else None

    def execute(self):
        """The timed work: what a user of the program would run."""
        if self.cfg.command == "protocol":
            cfg = config.parse_config(self.path)
            q = sources.load_source(cfg.source)
            p = cfg.params
            return osrb.run_protocol(osrb.ProtocolConfig(
                q=q, coupling=sources.builtin_coupling(p["coupling"], q), n=p["n"],
                rates=region.RateTuple(rf1=p["rf1"], rb1=p["rb1"], rf2=p["rf2"], rb2=p["rb2"]),
                tilde_rates=(p["rt0"], p["rt1"], p["rt2"]), seed=cfg.master_seed))
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([self.path, "--out", self.out_dir])

    def check(self, result) -> list[str]:
        p = self.cfg.params
        command = self.cfg.command
        if command == "protocol":
            return checks.protocol(result, self.q, p["n"])
        if result != 0:
            return [f"exit status {result}"]
        if command == "sweep":
            return checks.sweep(self.out_dir, len(p["n_list"]) * p["seeds"])
        if command == "osrb":
            return checks.osrb(self.out_dir, len(p["n_list"]) * p["seeds"])
        if command == "frontier":
            return checks.frontier(self.out_dir, self.q, p["grid_steps"][0] * p["grid_steps"][1])
        if command == "wyner":
            return checks.wyner(self.out_dir, WYNER_CLOSED_FORM[self.cfg.source])
        if command == "fme-verify":
            return checks.fme_verify(self.out_dir)
        raise ValueError(f"no output check for command {command!r}")

    def clear_outputs(self):
        for fname in ("summary.json", "results.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.out_dir, fname))


class Loop:
    """Closed-loop passes over the job list, with failure accounting."""

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_pass_rss_mib = None
        self.job_walls: dict[str, list[float]] = {job.name: [] for job in jobs}

    def run(self, seconds: float, min_passes: int = 1) -> list[float]:
        """Whole passes within ``seconds`` of wall time: after
        ``min_passes``, a pass starts only when one more median pass still
        fits.  Returns each pass's busy seconds."""
        walls = []
        start = time.perf_counter()
        while (len(walls) < min_passes
               or time.perf_counter() - start + statistics.median(walls) <= seconds):
            wall = 0.0
            for job in self.jobs:
                job.clear_outputs()
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    result, bad = job.execute(), None
                except Exception as exc:  # a failed job is counted, not fatal
                    bad = [f"{type(exc).__name__}: {exc}"]
                dt = time.perf_counter() - t0
                wall += dt
                self.job_walls[job.name].append(dt)
                if bad is None:
                    try:
                        bad = job.check(result)
                    except Exception as exc:  # missing or malformed output files
                        bad = [f"output check failed with {type(exc).__name__}: {exc}"]
                if bad:
                    self.failed += 1
                    self.problems.extend(f"{job.name}: {b}" for b in bad)
            walls.append(wall)
            if self.first_pass_rss_mib is None:
                # later passes can only raise the high-water mark, through
                # allocator reuse that a user running each job once never sees
                self.first_pass_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return walls


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def metadata(jobs: list[Job]) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pool_threads": {j.name: j.cfg.threads for j in jobs if j.cfg.command == "sweep"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(coordinet.__file__).startswith(src):
        print(f"coordinet was imported from {coordinet.__file__}, not from {src}", file=sys.stderr)
        return 2
    paths = sorted(glob.glob(os.path.join(args.jobs, "*.ini")))
    jobs = [Job(p, os.path.join(args.jobs, "out")) for p in paths]
    loop = Loop(jobs)
    out = {"import_s": IMPORT_S, "meta": metadata(jobs)}
    if not args.trace:
        # two passes at least, so one slow pass never stands alone
        out["walls"] = loop.run(args.seconds, min_passes=2)
        out["peak_rss_mib"] = loop.first_pass_rss_mib
    else:
        out["walls"] = loop.run(args.seconds / 2)
        tr = tracing.Tracer()
        tracing.install(tr)
        cpu0 = sum(os.times()[:2])
        traced = loop.run(args.seconds / 2)
        cpu = sum(os.times()[:2]) - cpu0
        layers = tracing.layer_metrics(tr, len(traced))
        layers["process.cpu_s"] = cpu / len(traced)
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(out["walls"]) - 1
        out["traced_walls"] = traced
        out["layers"] = layers
        out["edges"] = [{"parent": parent, "span": name, "calls": c, "busy_s": b}
                        for (parent, name), (c, b) in sorted(tr.edges.items(), key=str)]
    out.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems[:50],
               job_walls=loop.job_walls)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
