"""Spans around coordinet's public functions, recorded from outside the
package.

``install`` replaces every public function of the traced modules, plus a
few named methods and helpers, with a timing wrapper.  A name bound by
``from .x import f`` is a separate lookup site, so the wrapper is written
into every ``coordinet`` module (and ``coordinet`` itself) wherever the
original object is bound; patching only the defining module would leave
those callers untraced.

Spans are aggregated as they close: calls, busy time, self time (busy
time minus the time of child spans opened on the same thread) and every
duration, keyed by span name and by (parent, name) edge.  A span opened
on a pool thread with no open span of its own has no parent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

MODULES = ("pmf", "information", "optimize", "region", "fme", "osrb",
           "sources", "config", "cli")

# the searches whose objective time is split out by caller
_OBJECTIVE_OWNERS = {"region.inner_membership": "inner",
                     "region.outer_membership": "outer",
                     "information.wyner_common_information": "wyner"}


class SpanStat:
    __slots__ = ("calls", "busy", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.durations = []


class Tracer:
    """In-memory span aggregates plus named counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[str, SpanStat] = defaultdict(SpanStat)
        self.edges: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._malloc_users = 0

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open_names(self) -> list[str]:
        return [frame[0] for frame in self._stack()]

    def enter(self, name: str) -> list:
        stack = self._stack()
        frame = [name, stack[-1] if stack else None, 0.0, time.perf_counter()]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        dur = time.perf_counter() - frame[3]
        self._stack().pop()
        name, parent, child_time = frame[0], frame[1], frame[2]
        with self._lock:
            st = self.spans[name]
            st.calls += 1
            st.busy += dur
            st.self_time += dur - child_time
            st.durations.append(dur)
            edge = self.edges[(parent[0] if parent else None, name)]
            edge[0] += 1
            edge[1] += dur
        if parent is not None:
            parent[2] += dur
        return dur

    def add(self, key: str, value: float = 1.0):
        with self._lock:
            self.counts[key] += value

    def peak(self, key: str, value: float):
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)

    # -- tracemalloc, on only while a chosen span is open ------------------
    def malloc_begin(self):
        with self._lock:
            self._malloc_users += 1
            if self._malloc_users == 1:
                tracemalloc.start()

    def malloc_end(self) -> int:
        with self._lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._malloc_users -= 1
            if self._malloc_users == 0:
                tracemalloc.stop()
        return peak

    def wrap(self, name: str, fn):
        """A stand-in for ``fn`` that records one span per call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)
        return traced


# ---------------------------------------------------------------------------
# Layer-specific counters, taken where the work happens.  Each entry maps a
# span name to a decorator applied to the original before it is wrapped, so
# the counting runs inside the span.

def _on_result(fn, record):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        record(result)
        return result
    return call


def _counters(tracer: Tracer, mods: dict) -> dict:
    bins_from_rate = mods["osrb"].bins_from_rate
    measured = set()

    def run_protocol(fn):
        @functools.wraps(fn)
        def call(cfg):
            coup = cfg.coupling
            nu, nv, nw = coup.p_uvw.sizes
            n1 = coup.chan_y1.target[0].size
            n2 = coup.chan_y2.target[0].size
            y = (n1 * n2) ** cfg.n
            gtot = 1
            for rt in cfg.tilde_rates:
                gtot *= bins_from_rate(cfg.n, rt)[0]
            for key, val, cap in (("wvu_states", (nw * nv * nu) ** cfg.n, cfg.caps.wvu),
                                  ("y_states", y, cfg.caps.y_pairs),
                                  ("joint_entries", gtot * y, cfg.caps.with_g)):
                tracer.peak(f"osrb.{key}", val)
                tracer.peak(f"osrb.{key}_cap_frac", val / cap)
            # tracemalloc slows every allocation, so the peak is taken only
            # on the first call of each state-space shape
            shape = (cfg.n, nu, nv, nw, n1, n2, gtot)
            if shape in measured:
                return fn(cfg)
            measured.add(shape)
            tracer.malloc_begin()
            try:
                return fn(cfg)
            finally:
                tracer.peak("osrb.run_protocol.peak_bytes", tracer.malloc_end())
        return call

    def cmd_sweep(fn):
        @functools.wraps(fn)
        def call(cfg, *args):
            busy0 = tracer.spans["osrb.run_protocol"].busy
            t0 = time.perf_counter()
            try:
                return fn(cfg, *args)
            finally:
                wall = time.perf_counter() - t0
                tracer.add("cli.sweep.pool_busy_s", tracer.spans["osrb.run_protocol"].busy - busy0)
                tracer.add("cli.sweep.capacity_s", cfg.threads * wall)
        return call

    def coordinate_descent(fn):
        @functools.wraps(fn)
        def call(objective, blocks, **kwargs):
            owner = next((_OBJECTIVE_OWNERS[n] for n in reversed(tracer.open_names())
                          if n in _OBJECTIVE_OWNERS), "other")
            span = f"optimize.objective.{owner}"

            def traced_objective(batch):
                tracer.add(span + ".rows", batch[0].shape[0])
                frame = tracer.enter(span)
                try:
                    return objective(batch)
                finally:
                    tracer.exit(frame)
            result = fn(traced_objective, blocks, **kwargs)
            tracer.add("optimize.coordinate_descent.iterations", result[2])
            return result
        return call

    def membership(which):
        def record(dec):
            tracer.add(f"region.{which}_membership.restarts", dec.restarts_used)
            tracer.add(f"region.verdict.{which}.{dec.verdict}")
            if dec.verdict != "inside":
                tracer.add(f"region.{which}_membership.wasted_restarts", dec.restarts_used)
        return lambda fn: _on_result(fn, record)

    def count(key, measure):
        return lambda fn: _on_result(fn, lambda r: tracer.add(key, measure(r)))

    def sweep_cells(records):
        tracer.add("osrb.sweep.cells", len(records))
        tracer.add("osrb.sweep.failed_cells", sum(1 for r in records if r.get("error")))

    return {
        "osrb.run_protocol": run_protocol,
        "osrb.channel_matrix": count("osrb.channel_matrix.bytes", lambda r: r.nbytes),
        "osrb.sweep": lambda fn: _on_result(fn, sweep_cells),
        "cli._cmd_sweep": cmd_sweep,
        "optimize.coordinate_descent": coordinate_descent,
        "region.inner_membership": membership("inner"),
        "region.outer_membership": membership("outer"),
        "region.frontier": count("region.frontier.points", len),
        "fme.fme_eliminate": count("fme.fme_eliminate.rows_out", lambda r: r.nrows),
    }


def _targets(mods: dict):
    """(span name, owner, attribute) for everything that gets a span."""
    out = []
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{short}.{attr}", mod, attr))
    pmf = mods["pmf"]
    out.append(("pmf.JointPmf.init", pmf.JointPmf, "__post_init__"))
    out.append(("pmf.JointPmf.iid_extend", pmf.JointPmf, "iid_extend"))
    out.append(("cli._cmd_sweep", mods["cli"], "_cmd_sweep"))
    out.append(("fme.linprog", mods["fme"], "linprog"))
    return out


def install(tracer: Tracer):
    """Wrap the traced functions at every lookup site; returns a callable
    that restores the originals."""
    mods = {m: importlib.import_module(f"coordinet.{m}") for m in MODULES}
    counters = _counters(tracer, mods)
    by_id = {}
    restore = []
    for span, owner, attr in _targets(mods):
        original = vars(owner)[attr]
        decorate = counters.get(span)
        by_id[id(original)] = tracer.wrap(span, decorate(original) if decorate else original)
        if inspect.isclass(owner):
            restore.append((owner, attr, original))
            setattr(owner, attr, by_id[id(original)])
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "coordinet" or name.startswith("coordinet.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if callable(obj) and id(obj) in by_id:
                restore.append((mod, attr, obj))
                setattr(mod, attr, by_id[id(obj)])

    def uninstall():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
    return uninstall


# ---------------------------------------------------------------------------
# Per-layer metrics.

def unit_of(metric: str) -> str:
    """Units follow from the metric name's suffix."""
    for suffix, unit in (("_s", "s"), (".s", "s"), ("_mib", "MiB"), ("_frac", "frac"),
                         (".bytes", "B")):
        if metric.endswith(suffix):
            return unit
    return "count"


def tail(durations: list[float]) -> float:
    """The highest of p99.9 / p99 / p90 / p50 (nearest rank) with at least
    ten samples beyond it; the maximum when none has."""
    xs = sorted(durations)
    if not xs:
        return 0.0
    for permille in (999, 990, 900, 500):
        k = -(-permille * len(xs) // 1000) - 1
        if len(xs) - 1 - k >= 10:
            return xs[k]
    return xs[-1]


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics of a traced run.  Calls, busy and self seconds,
    and counts are per pass; p50_s and tail_s are per call; states,
    fractions and peaks are maxima over calls."""
    sp, cnt, mx = tracer.spans, tracer.counts, tracer.maxima
    m: dict[str, float] = {}

    def per_pass(v):
        return v / passes

    def span(name, metric=None, stats=("calls", "busy_s")):
        s = sp.get(name) or SpanStat()
        metric = metric or name
        for stat in stats:
            if stat == "calls":
                m[f"{metric}.calls"] = per_pass(s.calls)
            elif stat == "busy_s":
                m[f"{metric}.busy_s"] = per_pass(s.busy)
            elif stat == "self_s":
                m[f"{metric}.self_s"] = per_pass(s.self_time)
            elif stat == "p50_s":
                m[f"{metric}.p50_s"] = statistics.median(s.durations) if s.durations else 0.0
            elif stat == "tail_s":
                m[f"{metric}.tail_s"] = tail(s.durations)

    span("osrb.run_protocol", stats=("calls", "busy_s", "p50_s", "tail_s", "self_s"))
    m["osrb.run_protocol.peak_mib"] = mx["osrb.run_protocol.peak_bytes"] / 2 ** 20
    span("osrb.channel_matrix", stats=("busy_s",))
    m["osrb.channel_matrix.bytes"] = per_pass(cnt["osrb.channel_matrix.bytes"])
    span("osrb.product_law", stats=("busy_s",))
    span("pmf.JointPmf.iid_extend", "pmf.iid_extend")
    span("osrb.make_binning")
    span("osrb.split_sequences", stats=("busy_s",))
    span("osrb.merge_sequences", stats=("busy_s",))
    init = sp.get("pmf.JointPmf.init") or SpanStat()
    m["pmf.JointPmf.init_calls"] = per_pass(init.calls)
    m["pmf.JointPmf.init_s"] = per_pass(init.busy)
    span("osrb.osrb_uniformity")
    m["osrb.sweep.cells"] = per_pass(cnt["osrb.sweep.cells"])
    m["osrb.sweep.failed_cells"] = per_pass(cnt["osrb.sweep.failed_cells"])
    cap = cnt["cli.sweep.capacity_s"]
    m["cli.sweep.pool_busy_frac"] = cnt["cli.sweep.pool_busy_s"] / cap if cap else 0.0
    for key in ("wvu_states", "y_states", "joint_entries"):
        m[f"osrb.{key}"] = mx[f"osrb.{key}"]
        m[f"osrb.{key}_cap_frac"] = mx[f"osrb.{key}_cap_frac"]

    span("optimize.coordinate_descent", stats=("calls", "busy_s", "self_s"))
    m["optimize.coordinate_descent.iterations"] = per_pass(cnt["optimize.coordinate_descent.iterations"])
    for owner in ("inner", "outer", "wyner"):
        name = f"optimize.objective.{owner}"
        s = sp.get(name) or SpanStat()
        m[f"{name}.evals"] = per_pass(s.calls)
        m[f"{name}.rows"] = per_pass(cnt[f"{name}.rows"])
        m[f"{name}.busy_s"] = per_pass(s.busy)

    for which in ("inner", "outer"):
        name = f"region.{which}_membership"
        span(name, stats=("calls", "busy_s", "tail_s"))
        m[f"{name}.restarts"] = per_pass(cnt[f"{name}.restarts"])
    restarts = cnt["region.outer_membership.restarts"]
    m["region.outer_membership.wasted_restart_frac"] = (
        cnt["region.outer_membership.wasted_restarts"] / restarts if restarts else 0.0)
    m["region.frontier.points"] = per_pass(cnt["region.frontier.points"])
    for which, verdicts in (("inner", ("inside", "inconclusive")),
                            ("outer", ("inside", "outside", "outside-heuristic", "inconclusive"))):
        for v in verdicts:
            m[f"region.verdict.{which}.{v}"] = per_pass(cnt[f"region.verdict.{which}.{v}"])

    span("information.entropy")
    span("information.mutual_information")
    span("information.wyner_common_information", stats=("busy_s",))

    for fn in ("fme_eliminate", "simplify", "upward_closure", "systems_equivalent",
               "remove_redundant"):
        span(f"fme.{fn}")
    m["fme.fme_eliminate.rows_out"] = per_pass(cnt["fme.fme_eliminate.rows_out"])
    m["fme.linprog.calls"] = per_pass((sp.get("fme.linprog") or SpanStat()).calls)

    span("cli.run", stats=("self_s",))
    return m
