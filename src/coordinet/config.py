"""Run configuration: a flat INI file with a [run] section plus one
section of parameters per command.  Every experiment is described by such
a file, and every run echoes its fully-resolved config for replay."""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .fme import TILDE_VARS
from .region import COUPLING_NAMES


class ConfigError(Exception):
    pass


class ParseError(ConfigError):
    pass


class ValidationError(ConfigError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _rate(s: str) -> float:
    v = float(s)
    if math.isnan(v) or v < 0:
        raise ValueError(f"rates must be >= 0, got {s}")
    return v


def _one_of(*choices: str):
    """Parser of one of ``choices``."""
    def parse(s: str) -> str:
        if s not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {s!r}")
        return s
    return parse


def _at_least(lo: int):
    """Parser of an integer >= ``lo``."""
    def parse(s: str) -> int:
        v = int(s)
        if v < lo:
            raise ValueError(f"must be >= {lo}, got {v}")
        return v
    return parse


def _list_of(item, length: int | None = None):
    """Parser of a nonempty comma- or space-separated list of ``item``
    values, with exactly ``length`` of them when given."""
    def parse(s: str) -> list:
        vals = [item(tok) for tok in s.replace(",", " ").split()]
        if not vals or (length and len(vals) != length):
            raise ValueError(f"needs {length or 'at least one'} value(s), got {len(vals)}")
        return vals
    return parse


def _axes(s: str) -> str:
    ax = [tok.strip() for tok in s.split(",")]
    if len(ax) != 2 or ax[0] == ax[1] or not set(ax) <= {"rf1", "rb1", "rf2", "rb2"}:
        raise ValueError(f"must name two different rates among rf1, rb1, rf2, rb2, got {s!r}")
    return ",".join(ax)


def _orders(s: str) -> str:
    """``all``, or one elimination order: a permutation of the binning rates."""
    order = ",".join(tok.strip() for tok in s.split(","))
    if s != "all" and sorted(order.split(",")) != sorted(TILDE_VARS):
        raise ValueError(f"must be 'all' or an order of {','.join(TILDE_VARS)}, got {s!r}")
    return order


# name -> {param: (parser, default)}; default None marks a required key.
COMMAND_PARAMS = {
    "info": {},
    "wyner": {
        "w_cap": (_at_least(0), 0),     # 0 means the solver default
        "restarts": (_at_least(0), 64),
    },
    "region-inner": {
        "rf1": (_rate, None), "rb1": (_rate, None),
        "rf2": (_rate, None), "rb2": (_rate, None),
        "cap_u": (_at_least(1), 4), "cap_v": (_at_least(1), 4), "cap_w": (_at_least(1), 4),
        "restarts": (_at_least(0), 10),
    },
    "region-outer": {
        "rf1": (_rate, None), "rb1": (_rate, None),
        "rf2": (_rate, None), "rb2": (_rate, None),
        "restarts": (_at_least(0), 10),
    },
    "frontier": {
        "axes": (_axes, "rf1,rf2"),
        "fixed_rates": (_list_of(_rate, 2), None),   # the two non-axis rates, axis order
        "grid_min": (_list_of(_rate, 2), None),
        "grid_max": (_list_of(_rate, 2), None),
        "grid_steps": (_list_of(_at_least(1), 2), None),
        "cap_u": (_at_least(1), 4), "cap_v": (_at_least(1), 4), "cap_w": (_at_least(1), 4),
        "restarts": (_at_least(0), 6),
    },
    "fme-verify": {
        "couplings": (_at_least(1), 20),
        "samples": (int, 1000),   # still accepted; the exact check ignores it
        "orders": (_orders, "all"),
    },
    "osrb": {
        "coupling": (_one_of(*COUPLING_NAMES), "w-from-y1"),
        "side": (_one_of("none", "y"), "none"),
        "rt0": (_rate, None), "rt1": (_rate, None), "rt2": (_rate, None),
        "rb1": (_rate, 0.0), "rb2": (_rate, 0.0),
        "n_list": (_list_of(_at_least(1)), None),
        "seeds": (_at_least(1), 20),
    },
    "protocol": {
        "coupling": (_one_of(*COUPLING_NAMES), "w-from-y1"),
        "n": (_at_least(1), None),
        "rf1": (_rate, None), "rb1": (_rate, None),
        "rf2": (_rate, None), "rb2": (_rate, None),
        "rt0": (_rate, 0.0), "rt1": (_rate, 0.0), "rt2": (_rate, 0.0),
    },
    "sweep": {
        "coupling": (_one_of(*COUPLING_NAMES), "w-from-y1"),
        "n_list": (_list_of(_at_least(1)), None),
        "seeds": (_at_least(1), 20),
        "rf1": (_rate, None), "rb1": (_rate, None),
        "rf2": (_rate, None), "rb2": (_rate, None),
        "rt0": (_rate, 0.0), "rt1": (_rate, 0.0), "rt2": (_rate, 0.0),
    },
}

RUN_KEYS = {"command", "source", "seed", "out", "threads"}


@dataclass
class RunConfig:
    command: str
    source: str
    master_seed: int = 0
    out_dir: str | None = None
    threads: int = 1
    params: dict = field(default_factory=dict)


def parse_config(path: str) -> RunConfig:
    """Parse and fully validate a run configuration file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except FileNotFoundError:
        raise ParseError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}")

    problems = []
    if not cp.has_section("run"):
        raise ValidationError([f"{path}: missing required [run] section"])
    run = dict(cp.items("run"))
    for key in run:
        if key not in RUN_KEYS:
            problems.append(f"[run] unknown key {key!r}")
    command = run.get("command", "").strip()
    if command not in COMMAND_PARAMS:
        problems.append(f"[run] command must be one of {sorted(COMMAND_PARAMS)}, got {command!r}")
        raise ValidationError(problems)
    source = run.get("source", "").strip()
    if not source and command != "fme-verify":
        problems.append("[run] source is required")
    seed = 0
    if "seed" in run:
        try:
            seed = _at_least(0)(run["seed"])
        except ValueError as exc:
            problems.append(f"[run] seed: {exc}")
    threads = 1
    if "threads" in run:
        try:
            threads = _at_least(1)(run["threads"])
        except ValueError as exc:
            problems.append(f"[run] threads: {exc}")

    schema = COMMAND_PARAMS[command]
    raw = dict(cp.items(command)) if cp.has_section(command) else {}
    for key in raw:
        if key not in schema:
            problems.append(f"[{command}] unknown key {key!r}")
    params = {}
    for key, (parser, default) in schema.items():
        if key in raw:
            try:
                params[key] = parser(raw[key])
            except ValueError as exc:
                problems.append(f"[{command}] {key}: {exc}")
        elif default is None:
            problems.append(f"[{command}] missing required key {key!r}")
        else:
            params[key] = default
    for section in cp.sections():
        if section not in ("run", command):
            problems.append(f"unexpected section [{section}]")
    if problems:
        raise ValidationError(problems)
    return RunConfig(command=command, source=source, master_seed=seed,
                     out_dir=run.get("out") or None, threads=threads, params=params)


def echo_config(cfg: RunConfig) -> str:
    """The fully-resolved configuration, re-parseable by parse_config."""
    lines = ["[run]", f"command = {cfg.command}"]
    if cfg.source:
        lines.append(f"source = {cfg.source}")
    lines.append(f"seed = {cfg.master_seed}")
    lines.append(f"threads = {cfg.threads}")
    if cfg.params:
        lines.append("")
        lines.append(f"[{cfg.command}]")
        for key, val in sorted(cfg.params.items()):
            if isinstance(val, list):
                val = ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in val)
            elif isinstance(val, float):
                val = f"{val:.17g}"
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"
