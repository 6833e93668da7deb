"""Config parsing, command dispatch, artifacts, and replay determinism."""
import csv
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from coordinet.cli import main
from coordinet.config import ParseError, ValidationError, echo_config, parse_config
from coordinet.region import COUPLING_NAMES, canonical_couplings
from coordinet.sources import builtin_source, dsbs, identical_uniform, load_source, triple_abc

SCHEMA = json.load(open(os.path.join(os.path.dirname(__file__), "..", "docs",
                                     "summary.schema.json")))


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(tmp_path, text, out="out", extra=()):
    cfg = write_config(tmp_path, text)
    status = main([cfg, "--out", str(tmp_path / out), *extra])
    return status, tmp_path / out


def read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        payload = json.load(fh)
    jsonschema.validate(payload, SCHEMA)
    return payload


class TestBuiltinSources:
    def test_dsbs(self):
        q = builtin_source("dsbs-0.25")
        assert np.allclose(q.table, [[0.375, 0.125], [0.125, 0.375]])

    def test_identical_uniform(self):
        q = builtin_source("identical-uniform-3")
        assert np.allclose(q.table, np.eye(3) / 3)

    def test_triple_abc_support(self):
        q = builtin_source("triple-abc")
        assert np.count_nonzero(q.table) == 8
        assert np.allclose(q.table.sum(axis=1), 0.25)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_source("unobtainium")

    def test_file_source(self, tmp_path):
        from coordinet.pmf import write_pmf
        q = builtin_source("dsbs-0.1")
        write_pmf(q, tmp_path / "src.pmf")
        assert load_source(str(tmp_path / "src.pmf")).tv(q) == 0.0


class TestConfigParsing:
    def test_minimal_info_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "[run]\ncommand = info\nsource = dsbs-0.1\n"))
        assert cfg.command == "info" and cfg.source == "dsbs-0.1"

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            parse_config(write_config(
                tmp_path, "[run]\ncommand = info\nsource = dsbs-0.1\n[info]\nfoo = 1\n"))
        assert "foo" in str(err.value)

    def test_wyner_penalty_is_an_unknown_key(self, tmp_path):
        # the search penalty is a module constant, not a setting
        with pytest.raises(ValidationError) as err:
            parse_config(write_config(
                tmp_path, "[run]\ncommand = wyner\nsource = dsbs-0.1\n[wyner]\npenalty = 100\n"))
        assert "[wyner] unknown key 'penalty'" in str(err.value)

    def test_missing_required_field(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            parse_config(write_config(
                tmp_path,
                "[run]\ncommand = frontier\nsource = independent\n"
                "[frontier]\naxes = rf1,rf2\n"))
        assert "grid" in str(err.value)

    def test_all_problems_listed(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            parse_config(write_config(
                tmp_path,
                "[run]\ncommand = protocol\nsource = independent\n"
                "[protocol]\nbogus = 1\nn = x\n"))
        msg = str(err.value)
        assert "bogus" in msg and "missing required" in msg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_config(str(tmp_path / "nope.ini"))

    FRONTIER = ("[run]\ncommand = frontier\nsource = dsbs-0.1\n[frontier]\n"
                "fixed_rates = inf,inf\ngrid_min = 0.1,0.1\ngrid_max = 0.4,0.4\ngrid_steps = 2,2\n")
    RATES = "rf1 = 1\nrb1 = 1\nrf2 = 1\nrb2 = 1\n"
    FME = "[run]\ncommand = fme-verify\n[fme-verify]\ncouplings = 1\n"
    OSRB = "[run]\ncommand = osrb\nsource = dsbs-0.1\n[osrb]\nn_list = 2\nrt0 = 0.4\nrt1 = 0.2\nrt2 = 0.2\n"

    @pytest.mark.parametrize("text, key", [
        ("[run]\ncommand = info\nsource = dsbs-0.1\nseed = -1\n", "seed"),
        ("[run]\ncommand = protocol\nsource = dsbs-0.1\n[protocol]\nn = 0\n" + RATES, "n"),
        ("[run]\ncommand = sweep\nsource = dsbs-0.1\n[sweep]\nn_list = 0,2\n" + RATES,
         "n_list"),
        ("[run]\ncommand = osrb\nsource = dsbs-0.1\n[osrb]\nn_list = 0,2\n"
         "rt0 = 0.4\nrt1 = 0.2\nrt2 = 0.2\n", "n_list"),
        ("[run]\ncommand = sweep\nsource = dsbs-0.1\n[sweep]\nn_list = \n" + RATES, "n_list"),
        (FRONTIER.replace("grid_min = 0.1,0.1", "grid_min = 0.1,0.1,0.1"), "grid_min"),
        (FRONTIER.replace("grid_max = 0.4,0.4", "grid_max = 0.4"), "grid_max"),
        (FRONTIER.replace("fixed_rates = inf,inf", "fixed_rates = inf"), "fixed_rates"),
        (FRONTIER.replace("grid_steps = 2,2", "grid_steps = 2"), "grid_steps"),
        (FRONTIER.replace("grid_steps = 2,2", "grid_steps = 0,2"), "grid_steps"),
        (FRONTIER + "axes = rf1,rf1\n", "axes"),
        (FRONTIER + "axes = rf1,rx\n", "axes"),
        ("[run]\ncommand = region-outer\nsource = dsbs-0.1\n[region-outer]\nrestarts = -2\n"
         + RATES, "restarts"),
        ("[run]\ncommand = region-inner\nsource = dsbs-0.1\n[region-inner]\ncap_u = 0\n"
         + RATES, "cap_u"),
        (OSRB + "side = yes\n", "side"),
        (OSRB + "coupling = w-from-y3\n", "coupling"),
        ("[run]\ncommand = protocol\nsource = dsbs-0.1\n[protocol]\nn = 2\ncoupling = copy\n"
         + RATES, "coupling"),
        ("[run]\ncommand = sweep\nsource = dsbs-0.1\n[sweep]\nn_list = 2\ncoupling = UV-copy\n"
         + RATES, "coupling"),
        ("[run]\ncommand = info\nsource = dsbs-0.1\nthreads = -4\n", "threads"),
        ("[run]\ncommand = info\nsource = dsbs-0.1\nthreads = 0\n", "threads"),
        (FME + "orders = Rt0,Rt1\n", "orders"),
        (FME + "orders = Rt0,Rt0,Rt2\n", "orders"),
        (FME + "orders = Rb1,Rt0,Rt1\n", "orders"),
    ], ids=["seed", "n", "sweep-n_list", "osrb-n_list", "empty-n_list", "grid_min-length",
            "grid_max-length", "fixed_rates-length", "grid_steps-length", "grid_steps-zero",
            "axes-repeated", "axes-unknown", "restarts", "cap_u", "osrb-side", "osrb-coupling",
            "protocol-coupling", "sweep-coupling", "threads-negative", "threads-zero",
            "orders-two-rates",
            "orders-repeated", "orders-unknown-rate"])
    def test_bad_value_is_a_config_error_naming_its_key(self, tmp_path, text, key):
        with pytest.raises(ValidationError) as err:
            parse_config(write_config(tmp_path, text))
        assert f"{key}:" in str(err.value)
        status = main([write_config(tmp_path, text), "--out", str(tmp_path / "out")])
        assert status == 1 and not (tmp_path / "out").exists()

    def test_orders_accepts_a_spaced_permutation(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, self.FME + "orders = Rt2 , Rt0,Rt1\n"))
        assert cfg.params["orders"] == "Rt2,Rt0,Rt1"
        assert "orders = Rt2,Rt0,Rt1\n" in echo_config(cfg)

    @pytest.mark.parametrize("q", [dsbs(0.1), triple_abc(), identical_uniform(3)])
    def test_coupling_choices_are_the_canonical_names(self, q):
        assert tuple(canonical_couplings(q)) == COUPLING_NAMES

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\ncommand = info\nsource = dsbs-0.1\n")
        assert main([cfg, "--out", str(tmp_path / "out"), "--seed", "-3"]) == 1
        assert "config error: --seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_flag_below_one_is_a_config_error(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path, "[run]\ncommand = info\nsource = dsbs-0.1\n")
        assert main([cfg, "--out", str(tmp_path / "out"), "--threads", threads]) == 1
        assert "config error: --threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCommands:
    def test_info(self, tmp_path):
        status, out = run_cli(tmp_path, "[run]\ncommand = info\nsource = identical-uniform-2\n")
        assert status == 0
        payload = read_summary(out)
        assert payload["mutual_information"] == pytest.approx(1.0, abs=1e-12)

    def test_wyner_triple_abc(self, tmp_path):
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = wyner\nsource = triple-abc\nseed = 1\n"
                              "[wyner]\nw_cap = 5\nrestarts = 8\n")
        assert status == 0
        payload = read_summary(out)
        assert abs(payload["wyner_ci"] - 1.0) <= 1e-3
        assert payload["wyner_lower"] == pytest.approx(1.0, abs=1e-12)

    def test_region_inner(self, tmp_path):
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = region-inner\nsource = dsbs-0.1\n"
                              "[region-inner]\nrf1 = 1\nrb1 = 1\nrf2 = 1\nrb2 = 1\n"
                              "cap_u = 2\ncap_v = 2\ncap_w = 2\nrestarts = 4\n")
        assert status == 0
        payload = read_summary(out)
        assert payload["verdict"] == "inside"
        assert (out / "witness.pmf").exists()

    def test_witness_pmf_only_for_inside(self, tmp_path):
        # dsbs-0.1 at 0.89/0/0.89/0 is inside (U, V constant, W a uniform bit), but the
        # search misses that coupling: its best candidate is no witness, so no file
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = region-inner\nsource = dsbs-0.1\nseed = 0\n"
                              "[region-inner]\nrf1 = 0.89\nrb1 = 0\nrf2 = 0.89\nrb2 = 0\n"
                              "cap_u = 2\ncap_v = 2\ncap_w = 2\nrestarts = 8\n")
        assert status == 0
        assert read_summary(out)["verdict"] == "inconclusive"
        assert not (out / "witness.pmf").exists()

    def test_minus_inf_slack_keeps_its_sign(self, tmp_path):
        # caps 1,1,1 fit only the constant coupling, whose marginal misses
        # dsbs-0.1, so no candidate is valid and the best slack is -inf
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = region-inner\nsource = dsbs-0.1\n"
                              "[region-inner]\nrf1 = 1\nrb1 = 1\nrf2 = 1\nrb2 = 1\n"
                              "cap_u = 1\ncap_v = 1\ncap_w = 1\nrestarts = 0\n")
        assert status == 0
        assert read_summary(out)["best_slack"] == "-inf"
        with open(out / "results.csv") as fh:
            row, = csv.DictReader(fh)
        assert row["best_slack"] == "-inf"

    def test_region_outer_accepts_inf(self, tmp_path):
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = region-outer\nsource = identical-uniform-2\n"
                              "[region-outer]\nrf1 = 0.4\nrb1 = inf\nrf2 = 0.4\nrb2 = inf\n"
                              "restarts = 4\n")
        assert status == 0
        payload = read_summary(out)
        assert payload["verdict"] == "outside"
        assert payload["certificate"] == "rf1+rf2 >= I(Y1;Y2)"
        assert payload["restarts_used"] == 0
        with open(out / "results.csv") as fh:
            row, = csv.DictReader(fh)
        assert (row["verdict"], row["certificate"]) == ("outside", "rf1+rf2 >= I(Y1;Y2)")

    def test_frontier_artifacts(self, tmp_path):
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = frontier\nsource = independent\n"
                              "[frontier]\naxes = rf1,rf2\nfixed_rates = 0,0\n"
                              "grid_min = 0,0\ngrid_max = 0.5,0.5\ngrid_steps = 2,2\n"
                              "cap_u = 2\ncap_v = 2\ncap_w = 2\nrestarts = 3\n")
        assert status == 0
        payload = read_summary(out)
        assert payload["n_points"] == 4 and payload["inner_inside"] == 4
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert set(rows[0]) == {"rf1", "rb1", "rf2", "rb2", "inner_verdict",
                                "inner_certificate", "inner_best_slack", "outer_verdict",
                                "outer_certificate", "outer_best_slack", "witness_id"}
        wid = rows[0]["witness_id"]
        assert wid and (out / "witnesses" / f"{wid}.pmf").exists()

    def test_fme_verify(self, tmp_path):
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = fme-verify\nseed = 7\n"
                              "[fme-verify]\ncouplings = 3\nsamples = 400\n")
        assert status == 0
        payload = read_summary(out)
        assert payload["agree_count"] == 3
        # constraint systems are written in the text format and parse back
        from coordinet.fme import LinearSystem
        text = (out / "systems" / "coupling_000_constraints.lsys").read_text()
        assert LinearSystem.from_text(text).nrows == 12 + 7

    @pytest.mark.parametrize("orders, n_orders", [("all", 6), ("Rt1,Rt0,Rt2", 1)])
    def test_fme_verify_eliminates_once_per_order(self, tmp_path, monkeypatch, orders, n_orders):
        # the couplings share one batch: 3 projection and 4 closure eliminations per
        # order, and one vertex enumeration for the direct batch and one per order
        from coordinet import fme
        calls = {"fme_eliminate": 0, "_vertices": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(fme, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(fme, name, counted)
        status, out = run_cli(tmp_path, "[run]\ncommand = fme-verify\nseed = 7\n"
                                        f"[fme-verify]\ncouplings = 3\norders = {orders}\n")
        assert status == 0 and read_summary(out)["agree_count"] == 3
        assert calls == {"fme_eliminate": 7 * n_orders, "_vertices": 1 + n_orders}

    def test_protocol_stores_binning_seeds(self, tmp_path):
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = protocol\nsource = identical-uniform-2\nseed = 3\n"
                              "[protocol]\ncoupling = w-from-y1\nn = 2\n"
                              "rf1 = 1\nrb1 = 0\nrf2 = 1\nrb2 = 0\n")
        assert status == 0
        seeds = json.load(open(out / "binning_seeds.json"))
        assert set(seeds) == {"g0", "g1", "b1", "f1", "g2", "b2", "f2"}

    def test_protocol(self, tmp_path):
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = protocol\nsource = identical-uniform-2\nseed = 120\n"
                              "[protocol]\ncoupling = w-from-y1\nn = 2\n"
                              "rf1 = 1\nrb1 = 0\nrf2 = 1\nrb2 = 0\n")
        assert status == 0
        payload = read_summary(out)
        assert payload["tv_best_g"] <= 0.15

    def test_sweep_and_medians(self, tmp_path):
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = sweep\nsource = identical-uniform-2\nseed = 11\n"
                              "[sweep]\ncoupling = w-from-y1\nn_list = 2,4\nseeds = 6\n"
                              "rf1 = 1.4\nrb1 = 0\nrf2 = 1.4\nrb2 = 0\n")
        assert status == 0
        payload = read_summary(out)
        assert payload["cells"] == 12 and payload["failed_cells"] == 0
        assert "median_tv_best_g_n2" in payload

    def test_sweep_partial_failure_exit_2(self, tmp_path):
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = sweep\nsource = identical-uniform-2\n"
                              "[sweep]\ncoupling = w-from-y1\nn_list = 2,40\nseeds = 2\n"
                              "rf1 = 1\nrb1 = 0\nrf2 = 1\nrb2 = 0\n")
        assert status == 2
        payload = read_summary(out)
        assert payload["failed_cells"] == 2

    def test_osrb(self, tmp_path):
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = osrb\nsource = identical-uniform-2\nseed = 5\n"
                              "[osrb]\ncoupling = w-from-y1\nside = none\n"
                              "rt0 = 0.5\nrt1 = 0.05\nrt2 = 0.05\nn_list = 2,4\nseeds = 6\n")
        assert status == 0
        payload = read_summary(out)
        assert payload["cells"] == 12
        assert "median_tv_n2" in payload

    def test_osrb_failing_block_length_is_recorded_exit_2(self, tmp_path):
        # n = 23 puts 2^23 W sequences in a binning domain, past DOMAIN_CAP
        status, out = run_cli(tmp_path,
                              "[run]\ncommand = osrb\nsource = dsbs-0.1\nseed = 5\n"
                              "[osrb]\ncoupling = w-from-y1\nside = none\n"
                              "rt0 = 0.4\nrt1 = 0.2\nrt2 = 0.2\nn_list = 2,23\nseeds = 3\n")
        assert status == 2
        payload = read_summary(out)
        assert payload["cells"] == 6 and payload["failed_cells"] == 3
        assert "median_tv_n2" in payload and "median_tv_n23" not in payload
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n"], bool(r["tv"]), r["error"].split(":")[0]) for r in rows] == \
            [("2", True, "")] * 3 + [("23", False, "StateSpaceTooLarge")] * 3

    def test_fatal_error_exit_1(self, tmp_path):
        status = main([write_config(tmp_path, "[run]\ncommand = info\nsource = no-such-thing\n"),
                       "--out", str(tmp_path / "x")])
        assert status == 1

    def test_config_error_exit_1(self, tmp_path):
        status = main([write_config(tmp_path, "[run]\ncommand = dance\n"),
                       "--out", str(tmp_path / "x")])
        assert status == 1


class TestDispatch:
    SWEEP = ("[run]\ncommand = sweep\nsource = dsbs-0.1\n"
             "[sweep]\nn_list = 1\nseeds = 1\nrf1 = 1\nrb1 = 1\nrf2 = 1\nrb2 = 1\n")

    def test_handler_is_looked_up_when_called(self, tmp_path, monkeypatch):
        # a handler replaced on the module, as a tracer does, is the one run
        from coordinet import cli
        calls = []

        def spy(cfg, q, out_dir):
            calls.append((cfg.command, q.names, out_dir))
            return {"cells": 1, "failed_cells": 0}, 0
        monkeypatch.setattr(cli, "_cmd_sweep", spy)
        cfg = parse_config(write_config(tmp_path, self.SWEEP))
        cfg.out_dir = str(tmp_path / "out")
        assert cli.run(cfg) == 0
        assert calls == [("sweep", ("Y1", "Y2"), cfg.out_dir)]
        assert read_summary(tmp_path / "out")["cells"] == 1

    @pytest.mark.parametrize("command", ["dance", "region-middle", "fme"])
    def test_unknown_command_raises(self, tmp_path, command):
        from coordinet import cli
        cfg = parse_config(write_config(tmp_path, self.SWEEP))
        cfg.out_dir, cfg.command = str(tmp_path / "out"), command
        with pytest.raises(ValueError, match="unknown command"):
            cli.run(cfg)

class TestReplay:
    def test_echoed_config_reproduces_summary(self, tmp_path):
        text = ("[run]\ncommand = protocol\nsource = identical-uniform-2\nseed = 3\n"
                "[protocol]\ncoupling = w-from-y1\nn = 2\nrf1 = 1\nrb1 = 0.5\nrf2 = 1\nrb2 = 0\n"
                "rt0 = 0.5\n")
        status, out = run_cli(tmp_path, text, out="first")
        assert status == 0
        status2 = main([str(out / "config.echo.ini"), "--out", str(tmp_path / "second")])
        assert status2 == 0
        first = (out / "summary.json").read_bytes()
        second = (tmp_path / "second" / "summary.json").read_bytes()
        assert first == second

    def test_pinned_fme_verify_job_replays(self, tmp_path):
        # the benchmark's fme-verify job, whose `samples` key no longer changes the result
        text = ("[run]\ncommand = fme-verify\nseed = 1922502786\n\n"
                "[fme-verify]\ncouplings = 20\nsamples = 1000\norders = all\n")
        status, out = run_cli(tmp_path, text, out="first")
        assert status == 0
        assert read_summary(out)["agree_count"] == 20
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120 and list(rows[0]) == ["coupling", "order", "agree", "vertices"]
        assert all(row["agree"] == "True" and int(row["vertices"]) > 0 for row in rows)
        assert "samples = 1000" in (out / "config.echo.ini").read_text()
        status2 = main([str(out / "config.echo.ini"), "--out", str(tmp_path / "second")])
        assert status2 == 0
        for name in ("summary.json", "results.csv"):
            assert (out / name).read_bytes() == (tmp_path / "second" / name).read_bytes()


class TestGoldenSweep:
    """Pinned sweeps whose results.csv is committed: any change in a digit
    of any cell fails."""

    CONFIGS = {
        "uv-copy": ("dsbs-0.1", "rf1 = 0.8\nrb1 = 0.3\nrf2 = 0.8\nrb2 = 0.3\nrt1 = 0.3\n"),
        "w-from-y1": ("identical-uniform-2", "rf1 = 1.4\nrb1 = 0\nrf2 = 1.4\nrb2 = 0\nrt0 = 0.2\n"),
    }

    @pytest.mark.parametrize("coupling", sorted(CONFIGS))
    def test_results_csv_matches_golden(self, tmp_path, coupling):
        source, rates = self.CONFIGS[coupling]
        status, out = run_cli(tmp_path, f"[run]\ncommand = sweep\nsource = {source}\nseed = 17\n"
                                        f"[sweep]\ncoupling = {coupling}\nn_list = 2,3,4\n"
                                        f"seeds = 5\n{rates}")
        assert status == 0
        golden = os.path.join(os.path.dirname(__file__), "data", f"sweep-{coupling}.csv")
        with open(golden, "rb") as fh:
            assert (out / "results.csv").read_bytes() == fh.read()


class TestGoldenSearches:
    """The bench's frontier, Wyner, fme-verify and osrb jobs and a Wyner
    search on a DSBS, with results.csv and summary.json committed: the
    searches must reach the same answers to the last digit, fme-verify the
    same verdicts and vertex counts, and the bin-law check the same TVs."""

    CONFIGS = {
        "frontier-dsbs": ("[run]\ncommand = frontier\nsource = dsbs-0.1\nseed = 0\n"
                          "[frontier]\naxes = rf1,rf2\nfixed_rates = inf,inf\n"
                          "grid_min = 0.15,0.15\ngrid_max = 0.40,0.40\ngrid_steps = 4,4\n"
                          "cap_u = 2\ncap_v = 2\ncap_w = 2\nrestarts = 6\n"),
        "wyner-dsbs": ("[run]\ncommand = wyner\nsource = dsbs-0.1\nseed = 0\n"
                       "[wyner]\nw_cap = 4\nrestarts = 16\n"),
        "wyner-triple-abc": ("[run]\ncommand = wyner\nsource = triple-abc\nseed = 0\n"
                             "[wyner]\nw_cap = 5\nrestarts = 12\n"),
        "fme-verify": ("[run]\ncommand = fme-verify\nseed = 1922502786\n\n"
                       "[fme-verify]\ncouplings = 20\nsamples = 1000\norders = all\n"),
        "osrb-uniformity": ("[run]\ncommand = osrb\nsource = dsbs-0.1\nseed = 535517541\n"
                            "[osrb]\ncoupling = w-from-y1\nside = none\nrt0 = 0.4\nrt1 = 0.2\n"
                            "rt2 = 0.2\nn_list = 2,4,6,8,10\nseeds = 20\n"),
    }

    @pytest.mark.parametrize("job", sorted(CONFIGS))
    def test_outputs_match_golden(self, tmp_path, job):
        status, out = run_cli(tmp_path, self.CONFIGS[job])
        assert status == 0
        for name in ("results.csv", "summary.json"):
            golden = os.path.join(os.path.dirname(__file__), "data", f"{job}-{name}")
            with open(golden, "rb") as fh:
                assert (out / name).read_bytes() == fh.read(), name


class TestThreads:
    @staticmethod
    def one_and_three_threads(tmp_path, n_list):
        text = ("[run]\ncommand = sweep\nsource = identical-uniform-2\nseed = 11\n"
                f"[sweep]\ncoupling = w-from-y1\nn_list = {n_list}\nseeds = 4\n"
                "rf1 = 1.2\nrb1 = 0\nrf2 = 1.2\nrb2 = 0\n")
        s1 = main([write_config(tmp_path, text, "a.ini"), "--out", str(tmp_path / "one")])
        s2 = main([write_config(tmp_path, text, "b.ini"), "--out", str(tmp_path / "two"),
                   "--threads", "3"])
        assert s1 == s2
        assert (tmp_path / "one" / "summary.json").read_bytes() == \
            (tmp_path / "two" / "summary.json").read_bytes()
        assert (tmp_path / "one" / "results.csv").read_bytes() == \
            (tmp_path / "two" / "results.csv").read_bytes()
        return s1

    def test_thread_count_does_not_change_results(self, tmp_path):
        assert self.one_and_three_threads(tmp_path, "2,3") == 0

    def test_thread_count_with_a_failing_block_length(self, tmp_path):
        # n = 11 exceeds the (y1,y2) cap, so each of its four cells records an error
        assert self.one_and_three_threads(tmp_path, "2,11,3") == 2
        assert read_summary(tmp_path / "one")["failed_cells"] == 4


class TestColdStart:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize is imported on the first LP, not at package import
        code = "import sys, coordinet, coordinet.cli; print('scipy.optimize' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        assert out.stdout.strip() == "False"
