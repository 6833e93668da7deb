"""The benchmark's workloads as pinned job lists.

A job is one coordinet run configuration (INI text, the format the CLI
reads).  The workload seed picks the jobs' inputs: the bin assignments of
the protocol runs and sweep cells, and the random couplings of
fme-verify.  Every size, rate and restart count is pinned here, and so is
the restart seed of the two optimizer searches (frontier, wyner): it is a
setting of the search, not an input, and the frontier reuses the same
random starts at every grid point, so its cost moves 3x from one seed to
the next (4 s to 14 s on seeds 1-8, 2-vCPU x86 VM) and would swamp any
regression bound.

This module uses the standard library only, so the orchestrator can write
the configs without importing the program.
"""
from __future__ import annotations

import os
import random

WORKLOADS = ("protocol", "bounds-search")

# (job name, INI text with a {seed} placeholder)
_TEMPLATES = {
    "protocol": [
        # many decoded pairs, moderate output space; sets peak memory
        ("uv-copy-n8", """\
[run]
command = protocol
source = dsbs-0.1
seed = {seed}

[protocol]
coupling = uv-copy
n = 8
rf1 = 0.8
rb1 = 0.3
rf2 = 0.8
rb2 = 0.3
"""),
        # few decoded pairs, about 1M output pairs
        ("w-from-y1-n10", """\
[run]
command = protocol
source = identical-uniform-2
seed = {seed}

[protocol]
coupling = w-from-y1
n = 10
rf1 = 1.4
rb1 = 0
rf2 = 1.4
rb2 = 0
"""),
        # many tiny protocol runs, where per-call fixed costs dominate; one
        # thread: with two pool threads on a 2-vCPU host, contention
        # for the GIL and for the cores doubled the run-to-run spread
        ("sweep-n2-6", """\
[run]
command = sweep
source = identical-uniform-2
seed = {seed}
threads = 1

[sweep]
coupling = w-from-y1
n_list = 2,3,4,5,6
seeds = 60
rf1 = 1.4
rb1 = 0
rf2 = 1.4
rb2 = 0
"""),
        ("osrb-uniformity", """\
[run]
command = osrb
source = dsbs-0.1
seed = {seed}

[osrb]
coupling = w-from-y1
side = none
rt0 = 0.4
rt1 = 0.2
rt2 = 0.2
n_list = 2,4,6,8,10
seeds = 20
"""),
    ],
    "bounds-search": [
        # six of the 16 points lie below I(Y1;Y2) and exhaust every restart
        ("frontier-dsbs", """\
[run]
command = frontier
source = dsbs-0.1
seed = 0

[frontier]
axes = rf1,rf2
fixed_rates = inf,inf
grid_min = 0.15,0.15
grid_max = 0.40,0.40
grid_steps = 4,4
cap_u = 2
cap_v = 2
cap_w = 2
restarts = 6
"""),
        ("wyner-triple-abc", """\
[run]
command = wyner
source = triple-abc
seed = 0

[wyner]
w_cap = 5
restarts = 12
"""),
        ("fme-verify", """\
[run]
command = fme-verify
seed = {seed}

[fme-verify]
couplings = 20
samples = 1000
orders = all
"""),
    ],
}


def make_jobs(workload: str, seed: int) -> list[tuple[str, str]]:
    """The workload's job list as (name, config text); job seeds derive
    from the workload seed only."""
    if workload not in _TEMPLATES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"coordinet-perfbench:{workload}:{seed}")
    return [(name, text.format(seed=rng.randrange(2 ** 31)))
            for name, text in _TEMPLATES[workload]]


def write_jobs(workload: str, seed: int, directory: str) -> list[str]:
    """Write the job configs into ``directory``; returns their paths in
    job order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, (name, text) in enumerate(make_jobs(workload, seed)):
        path = os.path.join(directory, f"{i:02d}-{name}.ini")
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)
    return paths
