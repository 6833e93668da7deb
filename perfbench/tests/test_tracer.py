"""Self-test of the benchmark's tracer.

Runs a scaled-down copy of each workload's jobs through the worker's own
job and loop code with the tracer installed, and checks that every span
the workload should exercise fires while the layers it bypasses read
exactly zero.

Run from the root of the checkout: python3 -m pytest perfbench/tests -q
"""
import configparser
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import jobs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

# per job name: the parameters that shrink it to a second or two
SMALL = {
    "uv-copy-n8": {"n": "4"},
    "w-from-y1-n10": {"n": "5"},
    "sweep-n2-6": {"n_list": "2,3", "seeds": "4"},
    "osrb-uniformity": {"n_list": "2,4", "seeds": "3"},
    "frontier-dsbs": {"grid_steps": "2,2", "restarts": "2"},
    "wyner-triple-abc": {"restarts": "3"},
    "fme-verify": {"couplings": "2", "samples": "100"},
}

OSRB = ["osrb.run_protocol.calls", "osrb.run_protocol.busy_s", "osrb.run_protocol.self_s",
        "osrb.run_protocol.p50_s", "osrb.run_protocol.peak_mib",
        "osrb.channel_matrix.busy_s", "osrb.channel_matrix.bytes", "osrb.product_law.busy_s",
        "pmf.iid_extend.calls", "osrb.make_binning.calls", "osrb.split_sequences.busy_s",
        "osrb.merge_sequences.busy_s", "osrb.wvu_states", "osrb.y_states",
        "osrb.joint_entries", "osrb.joint_entries_cap_frac"]
SEARCH = ["optimize.coordinate_descent.calls", "optimize.coordinate_descent.self_s",
          "optimize.coordinate_descent.iterations",
          "optimize.objective.inner.evals", "optimize.objective.inner.rows",
          "optimize.objective.outer.evals", "optimize.objective.outer.busy_s",
          "optimize.objective.wyner.evals", "optimize.objective.wyner.rows",
          "region.inner_membership.calls", "region.inner_membership.restarts",
          "region.outer_membership.calls", "region.outer_membership.restarts",
          "region.outer_membership.wasted_restart_frac", "region.frontier.points",
          "region.verdict.inner.inside", "region.verdict.inner.inconclusive",
          "region.verdict.outer.inside", "region.verdict.outer.outside-heuristic",
          "information.entropy.calls", "information.mutual_information.calls",
          "information.wyner_common_information.busy_s",
          "fme.fme_eliminate.calls", "fme.fme_eliminate.rows_out", "fme.simplify.calls",
          "fme.upward_closure.calls", "fme.systems_equivalent.calls"]

FIRES = {
    "protocol": OSRB + ["osrb.osrb_uniformity.calls", "osrb.sweep.cells",
                        "cli.sweep.pool_busy_frac", "cli.run.self_s"],
    "bounds-search": SEARCH + ["cli.run.self_s"],
}
IDLE_LAYERS = {
    "protocol": ("optimize.", "region.", "information.", "fme."),
    "bounds-search": ("osrb.", "cli.sweep."),
}
# zero on every workload: no FME step exceeds the LP clean-up threshold,
# and no job at these settings has a failing sweep cell
ALWAYS_ZERO = ("fme.remove_redundant.calls", "fme.linprog.calls", "osrb.sweep.failed_cells")


def _small_jobs(workload, directory):
    paths = []
    for path in jobs.write_jobs(workload, 3, directory):
        cp = configparser.ConfigParser()
        cp.read(path)
        command = cp["run"]["command"]
        name = os.path.splitext(os.path.basename(path))[0].split("-", 1)[1]
        for key, value in SMALL[name].items():
            cp[command][key] = value
        with open(path, "w") as fh:
            cp.write(fh)
        paths.append(path)
    return [worker.Job(p, os.path.join(directory, "out")) for p in paths]


@pytest.fixture
def traced():
    tr = tracer.Tracer()
    uninstall = tracer.install(tr)
    try:
        yield tr
    finally:
        uninstall()


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_spans_fire_and_idle_layers_read_zero(workload, tmp_path, traced):
    loop = worker.Loop(_small_jobs(workload, str(tmp_path)))
    passes = len(loop.run(0.0))
    assert loop.failed == 0, loop.problems
    m = tracer.layer_metrics(traced, passes)
    silent = [k for k in FIRES[workload] if not m[k] > 0]
    assert not silent, f"spans that never fired on {workload}: {silent}"
    busy = {k: v for k, v in m.items()
            if (k.startswith(IDLE_LAYERS[workload]) or k in ALWAYS_ZERO) and v != 0}
    assert not busy, f"layers that should be idle on {workload}: {busy}"


def test_names_are_wrapped_where_they_are_looked_up():
    """Names bound by ``from .x import f`` are separate lookup sites; each
    must get the same wrapper as the defining module."""
    import scipy.optimize
    from coordinet import fme, information, optimize, region
    sites = {"coordinate_descent": [optimize, region, information],
             "mutual_information": [information, region],
             "entropy": [information, fme]}
    originals = {name: getattr(mods[0], name) for name, mods in sites.items()}
    uninstall = tracer.install(tracer.Tracer())
    try:
        for name, mods in sites.items():
            wrapper = getattr(mods[0], name)
            assert wrapper is not originals[name]
            for mod in mods[1:]:
                assert getattr(mod, name) is wrapper, f"{mod.__name__}.{name} is not traced"
        assert fme.linprog is not scipy.optimize.linprog
    finally:
        uninstall()


def test_uninstall_restores_the_originals():
    from coordinet import fme, pmf, region
    before = (region.coordinate_descent, fme.linprog, pmf.JointPmf.__post_init__)
    tracer.install(tracer.Tracer())()
    assert (region.coordinate_descent, fme.linprog, pmf.JointPmf.__post_init__) == before


def test_tail_needs_ten_samples_beyond_it():
    assert tracer.tail([1.0, 2.0, 3.0]) == 3.0
    xs = [float(i) for i in range(100)]
    assert tracer.tail(xs) == 89.0      # p90: ten samples lie beyond it
    assert tracer.tail(xs * 10) == 98.0  # 1000 samples: p99
