"""The benchmark's tracer (perfbench/tracer.py) against the library.

The tracer looks some names up directly (``fme.linprog``,
``JointPmf.iid_extend``, ``JointPmf.__post_init__``, ``cli._cmd_sweep``) and
reads ``ProtocolCaps.{wvu,y_pairs,with_g}`` in its ``run_protocol``
counter.  Renaming or deleting one of them breaks a traced benchmark run;
this test catches that with the tracer loaded from its file, unchanged.
"""
import importlib.util
import os
import sys

from coordinet import osrb, region
from coordinet.pmf import JointPmf
from coordinet.region import RateTuple, SearchConfig
from coordinet.sources import builtin_coupling, dsbs

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench",
                      "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("coordinet_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every name bound in a coordinet module, and JointPmf's attributes."""
    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "coordinet" or name.startswith("coordinet."))}
    mods["JointPmf"] = dict(vars(JointPmf))
    return mods


def test_tracer_installs_traces_a_run_and_restores_every_original():
    tracer = load_tracer()
    for m in tracer.MODULES:
        importlib.import_module(f"coordinet.{m}")
    before = bindings()
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        q = dsbs(0.1)
        osrb.run_protocol(osrb.ProtocolConfig(
            q=q, coupling=builtin_coupling("w-from-y1", q), n=2,
            rates=RateTuple(0.8, 0.3, 0.8, 0.3), tilde_rates=(0.2, 0.1, 0.1), seed=1))
        region.inner_membership(q, RateTuple(1, 1, 1, 1), (2, 2, 2), SearchConfig(restarts=2))
    finally:
        uninstall()
    for span in ("osrb.run_protocol", "region.inner_membership"):
        assert t.spans[span].calls == 1, span
    assert t.spans["pmf.JointPmf.init"].calls > 0
    assert t.counts["region.verdict.inner.inside"] == 1
    for key in ("wvu_states", "y_states", "joint_entries"):
        assert 0 < t.maxima[f"osrb.{key}_cap_frac"] <= 1, key
    after = bindings()
    for owner, names in before.items():
        moved = [name for name, obj in names.items() if after[owner].get(name) is not obj]
        assert not moved, (owner, moved)
