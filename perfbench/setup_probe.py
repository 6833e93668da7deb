"""Set-up that a fresh interpreter pays before any job runs: import
coordinet, parse each pinned config, and load its source and coupling.

Usage (from the root of a checkout): python3 perfbench/setup_probe.py DIR

Prints one JSON object with the in-process split of the time; the caller
times the whole process from outside.
"""
import glob
import json
import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.abspath("src"))
import coordinet  # noqa: E402,F401
from coordinet import config, sources  # noqa: E402

split = {"import_s": time.perf_counter() - t0, "parse_s": 0.0, "load_s": 0.0, "coupling_s": 0.0}
for path in sorted(glob.glob(os.path.join(sys.argv[1], "*.ini"))):
    t = time.perf_counter()
    cfg = config.parse_config(path)
    split["parse_s"] += time.perf_counter() - t
    if cfg.source:
        t = time.perf_counter()
        q = sources.load_source(cfg.source)
        split["load_s"] += time.perf_counter() - t
        if "coupling" in cfg.params:
            t = time.perf_counter()
            sources.builtin_coupling(cfg.params["coupling"], q)
            split["coupling_s"] += time.perf_counter() - t
print(json.dumps(split))
