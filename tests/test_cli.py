import csv
import dataclasses
import io
import itertools
import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from opbohr import (
    KOEBE_RADIUS,
    THEOREM_IDS,
    DomainError,
    HarmonicSeries,
    SubordinationWitness,
    check_theorem_grid,
    identity_witness,
    koebe_series,
    mobius_series,
    thm2_radius,
    thm3_radius,
)
from opbohr.cli import (
    MU_FIXED,
    PLANTED,
    THEOREM_GROUPS,
    SUITE_RUNS,
    RunConfig,
    SuiteReport,
    demo,
    main,
    parse_theorem_list,
    run_suite,
    scan_radius,
    selftest,
    write_suite_report,
)
import opbohr
from opbohr import bohr, cli, generators
from opbohr.errors import OpBohrError
from opbohr.generators import FamilySpec, derive_seed, sample
from opbohr.serialize import dumps, report_to_json


class TestTheoremParsing:
    def test_groups_expand(self):
        assert parse_theorem_list("t3,l2") == ("t3a", "t3b", "l2a", "l2b")

    def test_singletons_and_dedup(self):
        assert parse_theorem_list("t1iii,t1iii,e55") == ("t1iii", "e55")

    def test_unknown_rejected(self):
        with pytest.raises(Exception):
            parse_theorem_list("t99")


class TestSerialization:
    def test_report_to_json_writes_every_field(self):
        suite = run_suite(RunConfig(theorems=("t1iii",), trials=2, dims=(1, 2), seed=3))
        for rep in suite.reports:
            written = json.loads(dumps(report_to_json(rep)))
            assert written == {"theorem_id": rep.theorem_id, "r": rep.r, "mu": rep.mu,
                               "passed": rep.passed, "margin": rep.margin,
                               "side_values": rep.side_values, "witness": rep.witness}
            assert all(type(v) is float for v in written["side_values"].values())


def _strip_timestamp(payload: str) -> dict:
    obj = json.loads(payload)
    obj["meta"]["timestamp"] = None
    return obj


def _child_env() -> dict:
    """The environment of a child ``python -m opbohr.cli`` that imports the
    same package as this process, installed or not."""
    src = os.path.dirname(os.path.dirname(opbohr.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestDeterminism:
    def test_byte_identical_modulo_timestamp(self, tmp_path):
        config = RunConfig(theorems=("t1iii", "e55", "l1", "t2"), trials=3, dims=(1, 2), seed=11)
        paths = []
        for i in range(2):
            report = run_suite(config)
            path = tmp_path / f"rep{i}.json"
            write_suite_report(report, str(path), "json")
            paths.append(path)
        a = _strip_timestamp(paths[0].read_text())
        b = _strip_timestamp(paths[1].read_text())
        assert dumps(a) == dumps(b)

    def test_cross_process_determinism(self, tmp_path):
        env = _child_env()
        args = [sys.executable, "-m", "opbohr.cli", "verify", "--theorems", ",".join(THEOREM_IDS),
                "--trials", "1", "--dims", "1,2", "--seed", "19"]
        outs = []
        for i in range(2):
            path = tmp_path / f"proc{i}.json"
            res = subprocess.run([*args, "--out", str(path)], capture_output=True, env=env)
            assert res.returncode == 0, res.stderr.decode()
            outs.append(_strip_timestamp(path.read_text()))
        assert dumps(outs[0]) == dumps(outs[1])

    def test_distinct_seeds_differ(self):
        base = RunConfig(theorems=("t1iii",), trials=2, dims=(2,), seed=1)
        other = RunConfig(theorems=("t1iii",), trials=2, dims=(2,), seed=2)
        ra, rb = run_suite(base), run_suite(other)
        ma = [rep.margin for rep in ra.reports]
        mb = [rep.margin for rep in rb.reports]
        assert ma != mb


class TestExitCodes:
    def test_all_pass_returns_zero(self, tmp_path):
        out = tmp_path / "ok.json"
        code = main(["verify", "--theorems", "t1iii", "--trials", "2",
                     "--dims", "1,2", "--seed", "5", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_violation_returns_one(self):
        # force a radius beyond the stated one to manufacture a failure
        code = main(["verify", "--theorems", "t1iii", "--trials", "1",
                     "--dims", "1", "--seed", "5", "--r", "0.9", "--force"])
        assert code == 1

    def test_io_error_returns_two(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.json"
        code = main(["verify", "--theorems", "t1iii", "--trials", "1",
                     "--dims", "1", "--out", str(missing)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("i/o error: ")

    def test_closed_stdout_stops_the_printing_not_the_run(self, tmp_path, monkeypatch, capsys):
        class ClosedStdout(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        out = tmp_path / "r.json"
        argv = ["verify", "--theorems", "t1", "--dims", "1", "--trials", "1", "--out", str(out)]
        assert main(argv) == 0
        expected = _strip_timestamp(out.read_text())
        capsys.readouterr()
        out.unlink()
        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        assert main(argv) == 0
        assert _strip_timestamp(out.read_text()) == expected
        # a failing run keeps its exit code too
        assert main(["verify", "--theorems", "t1iii", "--trials", "1", "--dims", "1",
                     "--seed", "5", "--r", "0.9", "--force"]) == 1
        assert capsys.readouterr().err == ""

    def test_closed_pipe_exits_with_the_run_code(self, tmp_path):
        # a real pipe whose reader is gone: the flush at exit must not fail either
        out = tmp_path / "r.json"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "opbohr.cli", "verify", "--theorems", "t1iii",
                 "--dims", "1", "--trials", "1", "--out", str(out)],
                stdout=write_end, stderr=subprocess.PIPE, env=_child_env(), timeout=300)
        finally:
            os.close(write_end)
        assert child.returncode == 0, child.stderr.decode()
        assert child.stderr == b""
        assert len(json.loads(out.read_text())["reports"]) == 1

    def test_bad_arguments_return_two(self):
        assert main(["verify", "--theorems", "nonsense"]) == 2
        assert main(["frobnicate"]) == 2
        assert main(["verify", "--dims", "a"]) == 2
        assert main(["verify", "--seed", "-1", "--trials", "1", "--dims", "1"]) == 2
        assert main(["selftest", "--seed", "-1"]) == 2
        assert main(["verify", "--r", "abc"]) == 2
        for tol in ("nan", "inf", "-1"):
            assert main(["verify", "--tol", tol, "--trials", "1", "--dims", "1"]) == 2
        assert main(["verify", "--theorems", "t3a", "--order", "0",
                     "--trials", "1", "--dims", "1"]) == 2
        assert main(["scan", "--family", "koebe", "--steps", "-1"]) == 2
        for order in ("abc", "2.5"):
            assert main(["scan", "--family", "koebe", "--param", f"order={order}"]) == 2
        for family, param in (("koebe", "foo=1"), ("mobius", "oder=64"), ("radius-t3", "a=0.5"),
                              ("radius-t2", "dim=3")):
            assert main(["scan", "--family", family, "--param", param]) == 2
        # names that went with the scan's own families and the demo chain
        assert main(["scan", "--family", "constant"]) == 2
        assert main(["demo", "koebe-t4"]) == 2

    @pytest.mark.parametrize("r_min, r_max", [("0.5", "0.4"), ("0.4", "0.4"), ("nan", "0.4")])
    def test_scan_bounds_out_of_order_are_one_error(self, capsys, monkeypatch, r_min, r_max):
        # refused with the steps check, before any check runs
        calls = []
        monkeypatch.setattr(cli, "check_theorem_grid", lambda *args, **kwargs: calls.append(args))
        assert main(["scan", "--family", "mobius", "--r-min", r_min, "--r-max", r_max]) == 2
        captured = capsys.readouterr()
        assert calls == [] and captured.out == ""
        assert captured.err.splitlines() == [
            f"error: a scan needs steps >= 0 and r_min < r_max; got steps = 40, "
            f"r_min = {float(r_min)!r}, r_max = {float(r_max)!r}"]

    @pytest.mark.parametrize("r_min, r_max", [("-0.1", "0.5"), ("0.5", "1.5"), ("0", "inf")])
    def test_scan_bounds_outside_the_disk_are_one_error(self, capsys, monkeypatch, r_min, r_max):
        # named by the scan's own bounds, not by a radius of its search
        calls = []
        monkeypatch.setattr(cli, "check_theorem_grid", lambda *args, **kwargs: calls.append(args))
        assert main(["scan", "--family", "koebe", "--r-min", r_min, "--r-max", r_max]) == 2
        captured = capsys.readouterr()
        assert calls == [] and captured.out == ""
        assert captured.err.splitlines() == [
            f"error: a scan's radii must lie in [0, 1); got r_min = {float(r_min)!r}, "
            f"r_max = {float(r_max)!r}"]

    def test_scan_whose_check_fails_at_r_min_is_one_error(self, capsys):
        # the Mobius row's t1ii is sharp at 0.5 and fails at 0.9
        assert main(["scan", "--family", "mobius", "--r-min", "0.9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: a scan needs its check to pass at r_min; t1ii fails at r_min = 0.9"]

    def test_empty_list_returns_two(self):
        # an empty list is an error, not a request for every default
        for text in (",", "", " , "):
            assert main(["verify", "--r", text, "--trials", "1", "--dims", "1"]) == 2
            assert main(["verify", "--dims", text, "--trials", "1"]) == 2
        with pytest.raises(OpBohrError):
            RunConfig(r_values=())

    def test_one_parser_per_process(self, monkeypatch):
        # the parser is built once; nothing one call appends reaches the next
        from opbohr import cli

        seen = []

        def fake_scan(family, params, **kwargs):
            seen.append(params)
            return SuiteReport(config={}, reports=[], meta={}, aggregate={
                "estimated_radius": 0.5, "bracketed": True, "warnings": []})

        monkeypatch.setattr(cli, "scan_radius", fake_scan)
        assert main(["scan", "--family", "koebe", "--param", "order=8"]) == 0
        assert main(["scan", "--family", "koebe"]) == 0
        assert seen == [{"order": "8"}, {}]
        assert main(["scan", "--family", "koebe", "--steps", "x"]) == 2
        assert main(["scan", "--family", "nonsense"]) == 2
        assert main(["scan", "--family", "koebe", "--param", "order"]) == 2
        assert main(["scan", "--family", "koebe", "--param", "order=16"]) == 0
        assert seen[-1] == {"order": "16"}
        assert cli._parser() is cli._parser()

    def test_every_flag_reaches_its_setting(self, tmp_path, monkeypatch):
        # every flag away from its default: a flag whose dest misses its
        # RunConfig field would leave the field at its default
        written = []
        write = cli.write_suite_report
        monkeypatch.setattr(cli, "write_suite_report",
                            lambda report, path, fmt: written.append(report) or write(
                                report, path, fmt))
        out = tmp_path / "flags.csv"
        assert main(["verify", "--theorems", "t1iii,e17", "--trials", "2", "--dims", "1,3",
                     "--order", "8", "--seed", "4", "--tol", "1e-6", "--r", "0.1,0.2",
                     "--normal-variant", "--force", "--out", str(out), "--format", "csv"]) == 0
        assert json.loads(dumps(written[0].to_json()))["config"] == {
            "command": "verify",
            "theorems": ["t1iii", "e17"],
            "trials": 2,
            "dims": [1, 3],
            "order": 8,
            "seed": 4,
            "psd_tol": 1e-6,
            "r_values": [0.1, 0.2],
            "normal_variant": True,
            "force": True,
            "format": "csv",
        }
        with open(out, newline="") as fh:
            assert next(csv.reader(fh))[0] == "theorem_id"

    def test_t2_growth_overflow_is_a_range_error(self, capsys):
        # at r = 0.99 the drawn instance's majorant passes 2^512, whose square
        # overflows, and the check reports; at r = 0.999999 its growth bound
        # overflows a float, a configuration error
        argv = ["verify", "--theorems", "t2", "--force", "--dims", "1", "--trials", "1"]
        assert main(argv + ["--r", "0.99"]) == 1
        capsys.readouterr()
        assert main(argv + ["--r", "0.999999"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: t2's growth bound overflows a float at r = 0.999999"]

    @pytest.mark.parametrize("group, order", [("l1", "-1"), ("e17", "-5"), ("t1", "-1")])
    def test_negative_order_is_one_error(self, capsys, group, order):
        # e17 draws no series, and still refuses the setting rather than echo it
        assert main(["verify", "--theorems", group, "--order", order, "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: order must be >= 0, got {order}"]

    @pytest.mark.parametrize("verify_order, scan_order", [
        (str(generators.MAX_ORDER + 1), str(generators.MAX_ORDER + 1)),
        ("100000000000000000000", "1e20"),
    ])
    def test_order_past_max_order_is_one_error(self, capsys, verify_order, scan_order):
        # refused before anything of that order is allocated
        argv = ["verify", "--theorems", "e55", "--dims", "1", "--trials", "1"]
        assert main(argv + ["--order", verify_order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: order must be <= {generators.MAX_ORDER}, got {verify_order}"]
        assert main(["scan", "--family", "mobius", "--param", f"order={scan_order}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: scan parameter order must be an integer in [0, {generators.MAX_ORDER}], "
            f"got '{scan_order}'"]

    def test_max_order_is_accepted(self):
        # the spec is checked without a draw, and the Koebe scan runs t4b at order 4096
        assert FamilySpec(family_id="schur_holo", order=generators.MAX_ORDER).order == 4096
        scan = scan_radius("koebe", {"order": str(generators.MAX_ORDER)})
        assert scan.config["params"]["order"] == 4096
        assert scan.aggregate["estimated_radius"] == pytest.approx(KOEBE_RADIUS, abs=1e-6)

    @pytest.mark.parametrize("order", ["0", "1"])
    def test_l1_order_below_its_offset_is_one_error(self, capsys, order):
        # l1's suite runs offset k = 3, whose terms start at A_3
        argv = ["verify", "--theorems", "l1", "--dims", "1", "--trials", "1"]
        assert main(argv + ["--order", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: l1 needs an offset k >= 0 and an order >= k - 1; got k = 3 at order {order}"]
        assert main(argv + ["--order", "2"]) == 0

    def test_repeated_dims_are_one_error(self, capsys):
        # a repeated dim would draw and report each of its instances twice
        assert main(["verify", "--theorems", "e55", "--dims", "1,1", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: dims must be a nonempty subset of 1..16"]
        with pytest.raises(OpBohrError, match="nonempty subset"):
            RunConfig(dims=(2, 1, 2))

    def test_t2_order_past_the_extraction_range_is_one_error(self, capsys):
        argv = ["verify", "--theorems", "t2", "--order", "1100", "--dims", "1", "--trials", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: extraction at order 1100 overflows a float")

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPBOHR_OUT_DIR", str(tmp_path))
        code = main(["verify", "--theorems", "t1iii", "--trials", "1",
                     "--dims", "1", "--out", "env_report.json"])
        assert code == 0
        assert (tmp_path / "env_report.json").exists()


def _hand_built(name: str, params: dict, dim: int):
    """A planted row's instance and check kwargs, built here without ``PLANTED``."""
    order = params["order"]
    if name == "mobius":
        f = mobius_series(params["a"], dim, order)
        return HarmonicSeries(f.coeffs, np.zeros((order, dim, dim))), {"mu": 0.0, "normal": True}
    if name == "koebe":
        return (koebe_series(dim, order), identity_witness(order)), {}
    if name == "sharpness-e55":
        return mobius_series(params["a"], dim, order), {}
    if name == "radius-t2":
        return sample(FamilySpec("exterior_diag", dim=dim, order=order,
                                 params={"c": params["c"], "frame": np.eye(dim)})), {}
    pair, aux = sample(FamilySpec("convex_diag", dim=dim, order=order, params={
        "with_witness": True, "kappa": params["kappa"], "frame": np.eye(dim)}), with_aux=True)
    return pair, {"boundary_eval": aux["eval"]}


# planted row -> (check, default parameters, dims, sharp radius)
PLANTED_ROWS = {
    "mobius": ("t1ii", {"a": 0.5, "order": 512}, (1,), 0.5),
    "koebe": ("t4b", {"order": 256}, (1, 2), KOEBE_RADIUS),
    "sharpness-e55": ("e55", {"a": 1.0 / math.sqrt(2.0), "order": 64}, (1, 2, 4),
                      1.0 / math.sqrt(2.0)),
    "radius-t2": ("t2", {"c": math.log(2.0), "order": 64}, (2,), 1.0 / 3.0),
    "radius-t3": ("t3a", {"kappa": 1.0, "order": 64}, (2,), 1.0 / 3.0),
}


class TestScan:
    @pytest.mark.parametrize("name", list(PLANTED))
    def test_grid_and_radius_are_the_checks_own(self, name):
        # the scan's reports are the row's check on a hand-built instance, and
        # its radius the last pass of that check before a fail at most 1e-8 on
        theorem, params, dims, _ = PLANTED_ROWS[name]
        scan = scan_radius(name, r_min=0.05, r_max=0.9, steps=23)
        instance, kwargs = _hand_built(name, params, dims[0])

        def check(rs):
            return check_theorem_grid(theorem, instance, rs, force=True, psd_tol=1e-12,
                                      **kwargs)

        rs = np.linspace(0.05, 0.9, 23).tolist()
        expected = check(rs)
        assert [(rep.r, rep.margin, rep.passed) for rep in scan.reports] == [
            (rep.r, rep.margin, rep.passed) for rep in expected]
        assert all(rep.witness == {"planted": name, **params, "dim": dims[0]}
                   for rep in scan.reports)
        agg = scan.aggregate
        assert agg["warnings"] == []
        if name == "sharpness-e55":
            assert (agg["estimated_radius"], agg["bracketed"]) == (0.9, False)
        else:
            radius = agg["estimated_radius"]
            assert agg["bracketed"]
            assert [rep.passed for rep in check([radius, radius + 1e-8])] == [True, False]
        assert scan.config == {"command": "scan", "family": name, "params": params,
                               "r_min": 0.05, "r_max": 0.9, "steps": 23}

    def test_a_default_scan_prepares_its_check_at_most_8_times(self, monkeypatch):
        # one preparation for the report grid and one per round of the search:
        # 0.95 / 16^7 < 1e-8 is 7 rounds, and e55 passes every radius of its first
        calls = []
        for key, prepare in bohr._PREPARERS.items():
            monkeypatch.setitem(bohr._PREPARERS, key,
                                lambda *args, _prepare=prepare, **kwargs:
                                calls.append(1) or _prepare(*args, **kwargs))
        for name in PLANTED:
            calls.clear()
            scan = scan_radius(name)
            assert scan.aggregate["bracketed"] == (name != "sharpness-e55")
            assert len(calls) <= (8 if scan.aggregate["bracketed"] else 2), name

    @pytest.mark.parametrize("name", list(PLANTED))
    def test_witness_redraws_the_report(self, name):
        scan = scan_radius(name, steps=3)
        row = PLANTED[name]
        for rep in scan.reports:
            params = {k: v for k, v in rep.witness.items() if k != "planted"}
            instance, kwargs = row.build(params)
            (again,) = check_theorem_grid(row.theorem, instance, [rep.r], force=True,
                                          psd_tol=1e-12, witness=rep.witness, **kwargs)
            assert dumps(report_to_json(again)) == dumps(report_to_json(rep))

    @pytest.mark.parametrize("a", [0.05, 0.3, 0.5, 0.9])
    def test_mobius_margins_are_the_closed_form_within_their_tail(self, a):
        # sum over n >= 1 of (1 - a^2) a^(n-1) r^n against 1 - a
        scan = scan_radius("mobius", {"a": a}, r_min=0.05, r_max=0.9, steps=18)
        for rep in scan.reports:
            r = rep.r
            closed = (1.0 - a) - (1.0 - a * a) * r / (1.0 - a * r)
            assert abs(rep.margin - closed) <= rep.side_values["tail"] + 1e-12, r

    @pytest.mark.parametrize("order", [64, 256])
    def test_koebe_margins_are_the_closed_form_within_their_tail(self, order):
        # sum over n >= 1 of n r^n = r/(1 - r)^2 against 1/4
        scan = scan_radius("koebe", {"order": order}, r_min=0.05, r_max=0.9, steps=18)
        for rep in scan.reports:
            r = rep.r
            closed = 0.25 - r / (1.0 - r) ** 2
            assert abs(rep.margin - closed) <= rep.side_values["tail"] + 1e-12, r

    def test_mobius_estimate(self, tmp_path, capsys):
        scan = scan_radius("mobius", {"a": 0.5})
        assert scan.aggregate["bracketed"]
        assert scan.aggregate["estimated_radius"] == pytest.approx(0.5, abs=1e-6)
        path = tmp_path / "scan.json"
        assert main(["scan", "--family", "mobius", "--param", "a=0.5", "--out", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"family mobius: estimated radius {scan.aggregate['estimated_radius']:.9f}",
            f"scan written to {path}"]
        written = json.loads(path.read_text())
        assert set(written) == {"config", "reports", "aggregate", "meta"}
        assert len(written["reports"]) == 40
        assert written["aggregate"]["bracketed"] is True
        assert written["aggregate"]["warnings"] == []
        assert written["aggregate"]["estimated_radius"] == scan.aggregate["estimated_radius"]

    def test_search_warnings_are_printed_and_written(self, tmp_path, monkeypatch, capsys):
        # the check fails from r = 0.5 on, except on [0.7, 0.8), where the
        # search's first round of 17 radii sees passes at 0.7125 and 0.771875
        planted_check = cli._planted_check

        def non_monotone(name, params, dim):
            check = planted_check(name, params, dim)
            return lambda rs: [dataclasses.replace(rep, passed=rep.r < 0.5 or 0.7 <= rep.r < 0.8)
                               for rep in check(rs)]

        monkeypatch.setattr(cli, "_planted_check", non_monotone)
        path = tmp_path / "scan.json"
        assert main(["scan", "--family", "mobius", "--steps", "3", "--out", str(path)]) == 0
        aggregate = json.loads(path.read_text())["aggregate"]
        warnings = ["non-monotone check near r = 0.7125", "non-monotone check near r = 0.771875"]
        assert aggregate["warnings"] == warnings
        assert 0.5 - 1e-8 <= aggregate["estimated_radius"] < 0.5
        assert capsys.readouterr().out.splitlines() == [
            f"family mobius: estimated radius {aggregate['estimated_radius']:.9f}",
            *(f"warning: {w}" for w in warnings),
            f"scan written to {path}"]

    def test_sharp_radius_at_r_min_passes_the_grid_and_the_bisection(self, capsys):
        # at r_min = 1/(1 + 2a) the rounded margin may be -2.2e-16: the grid
        # passes it, and so must the search, which needs its check to pass at r_min
        a = 0.16185494884960755
        assert main(["scan", "--family", "mobius", "--param", f"a={a!r}",
                     "--r-min", repr(1.0 / (1.0 + 2.0 * a)), "--steps", "3"]) == 0
        assert "estimated radius 0.7554525" in capsys.readouterr().out
        # a >= 0.05 keeps the sharp radius below the default r_max 0.95
        for a in np.random.default_rng(5).uniform(0.05, 1.0, size=300):
            sharp = 1.0 / (1.0 + 2.0 * a)
            scan = scan_radius("mobius", {"a": a}, r_min=sharp, steps=3)
            assert scan.reports[0].passed and scan.aggregate["bracketed"]
            assert scan.aggregate["estimated_radius"] == pytest.approx(sharp, abs=1e-6)

    @pytest.mark.parametrize("name, sharp", [("mobius", 0.5), ("koebe", KOEBE_RADIUS)])
    def test_fails_just_past_the_sharp_radius(self, name, sharp):
        # 1e-10 past it the margin is about -1.3e-10 (mobius) or -2.1e-10
        # (koebe): a fail at the pass rule's 1e-12, a pass at the suite's 1e-9
        scan = scan_radius(name, r_min=sharp, r_max=sharp + 1e-10, steps=2)
        assert [rep.passed for rep in scan.reports] == [True, False]
        assert -3e-10 < scan.reports[1].margin < -1e-10
        assert scan.aggregate["bracketed"] and scan.aggregate["estimated_radius"] == sharp

    def test_radius_outside_the_disk_raises(self):
        with pytest.raises(DomainError):
            scan_radius("koebe", r_max=1.0)

    def test_koebe_estimate(self):
        scan = scan_radius("koebe")
        assert scan.aggregate["estimated_radius"] == pytest.approx(KOEBE_RADIUS, abs=1e-6)

    def test_tangent_e55_is_unbracketed(self):
        # e55's Mobius(1/sqrt 2) majorant touches 1/sqrt(1 - r^2) at r = 1/sqrt 2
        # and stays below it on both sides, so the check passes up to r_max
        scan = scan_radius("sharpness-e55")
        assert not scan.aggregate["bracketed"]
        assert scan.aggregate["estimated_radius"] == pytest.approx(0.95)
        assert all(rep.passed for rep in scan.reports)

    @pytest.mark.parametrize("order", [2, 4, 8, 64, 256])
    def test_koebe_estimate_stays_at_or_below_the_sharp_radius(self, order):
        # the envelope a_n = n makes each tail bound z/(1 - z)^2 itself, so
        # no truncation order passes past 3 - 2 sqrt 2
        scan = scan_radius("koebe", {"order": order})
        assert scan.aggregate["bracketed"]
        assert scan.aggregate["estimated_radius"] <= KOEBE_RADIUS
        assert all(rep.side_values["tail_bounds_f"] == 1.0 for rep in scan.reports)

    def test_cli_scan(self, tmp_path):
        out = tmp_path / "koebe.json"
        code = main(["scan", "--family", "koebe", "--out", str(out)])
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("family, argv, expected", [
        ("koebe", [], {"order": 256}),
        ("koebe", ["order=64"], {"order": 64}),
        ("mobius", ["order=32", "a=0.25"], {"a": 0.25, "order": 32}),
        ("mobius", ["a=1e-1"], {"a": 0.1, "order": 512}),
        ("radius-t3", ["kappa=2"], {"kappa": 2.0, "order": 64}),
    ])
    def test_scan_keeps_the_validated_parameters(self, tmp_path, family, argv, expected):
        # --param parses numbers as floats; a scan stores an int order and float others
        out = tmp_path / "scan.json"
        params = [arg for item in argv for arg in ("--param", item)]
        assert main(["scan", "--family", family, "--steps", "3", "--out", str(out), *params]) == 0
        written = json.loads(out.read_text())
        typed = {k: (v, type(v)) for k, v in expected.items()}
        for values in [written["config"]["params"]] + [rep["witness"] for rep in written["reports"]]:
            assert {k: (values[k], type(values[k])) for k in expected} == typed
        scan = scan_radius(family, {k: float(v) for k, v in expected.items()}, steps=3)
        assert {k: (v, type(v)) for k, v in scan.config["params"].items()} == typed


class TestDemo:
    def test_sharpness_demo(self, capsys):
        report = demo("sharpness-e55")
        captured = capsys.readouterr().out
        assert "target" in captured
        assert report.aggregate["fail_count"] == 0
        for row in report.aggregate["demo_rows"]:
            assert abs(row["computed"] - row["target"]) <= 1e-6

    @pytest.mark.parametrize("name", list(PLANTED))
    def test_each_row_meets_its_target_at_its_sharp_radius(self, capsys, name):
        theorem, _, dims, radius = PLANTED_ROWS[name]
        report = demo(name)
        capsys.readouterr()
        assert [(rep.theorem_id, rep.r, rep.witness["dim"], rep.passed)
                for rep in report.reports] == [(theorem, radius, d, True) for d in dims]
        rows = report.aggregate["demo_rows"]
        assert len(rows) == len(dims)
        for row in rows:
            assert row["target"] == PLANTED[name].target
            assert abs(row["computed"] - row["target"]) <= 1e-15

    def test_radius_demos(self, capsys):
        # the values the demos printed before they read PLANTED: thm2_radius(2I),
        # thm3_radius(I) and the Koebe majorant at 3 - 2 sqrt(2)
        before = {"radius-t2": 1.0 / 3.0, "radius-t3": 1.0 / 3.0, "koebe": 0.2499999999999996}
        for name, value in before.items():
            report = demo(name)
            for row in report.aggregate["demo_rows"]:
                assert abs(row["computed"] - value) <= 1e-15
        capsys.readouterr()

    def test_demo_cli(self):
        assert main(["demo", "radius-t3"]) == 0

    def test_demo_scan_and_verify_write_the_same_meta(self, capsys):
        metas = [demo("radius-t3").meta, scan_radius("koebe", steps=2).meta,
                 run_suite(RunConfig(trials=1, dims=(1,))).meta]
        capsys.readouterr()
        for meta in metas:
            assert list(meta) == ["artifact_version", "timestamp"]
            assert list(meta["timestamp"]) == ["generated_at", "wall_time_s"]
            assert meta["timestamp"]["wall_time_s"] >= 0.0


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert selftest(seed=2024, verbose=True) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_selftest_cli(self):
        assert main(["selftest"]) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_colligation_certificate_holds_where_the_others_are_sampled(self, seed):
        # exp(-H) is sampled on |z| = 1 - 2^-10, where ||H|| passes 300
        assert cli._certificate_gap("exterior_colligation", seed) >= -generators.CERT_SLACK

    def test_selftest_catches_an_unsound_certificate(self, monkeypatch, capsys):
        # a Schur bound below 1 is contradicted by the dense sample of every
        # family that reads it (commuting_harmonic through its direct sums),
        # and by the stored norms under schur_holo's envelope, built from it
        monkeypatch.setattr(generators.SchurRealization, "sup_bound", lambda self: 0.9)
        assert selftest(seed=2024, verbose=True) == 5
        failed = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
        assert [line.split()[1:3] for line in failed] == [
            ["schur_holo", "certificate"], ["schur_harmonic", "certificate"],
            ["commuting_harmonic", "certificate"], ["subordination", "certificate"],
            ["schur_holo", "envelope"]]

    @pytest.mark.parametrize("family", ["convex_diag", "starlike_diag"])
    def test_selftest_catches_an_envelope_below_the_stored_norms(self, monkeypatch, capsys,
                                                                 family):
        frame_envelope = generators._frame_envelope
        monkeypatch.setattr(generators, "_frame_envelope",
                            lambda w, top, *args: frame_envelope(w, 0.9 * top, *args))
        assert selftest(seed=2024, verbose=True) == 2
        failed = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
        assert [line.split()[1:3] for line in failed] == [
            ["convex_diag", "envelope"], ["starlike_diag", "envelope"]]

    def test_selftest_catches_a_witness_growth_below_one(self, monkeypatch, capsys):
        build = generators._build_subordination

        def shrunk(spec, rng, plant):
            witness, aux = build(spec, rng, plant)
            return SubordinationWitness(witness.phi, coeff_growth=0.99), aux

        monkeypatch.setitem(generators._BUILDERS, "subordination", shrunk)
        assert selftest(seed=2024, verbose=True) == 1
        assert "[FAIL] subordination coefficient growth" in capsys.readouterr().out


def _redraw(witness: dict, pair: bool):
    """The instance and aux data that a report's witness names, drawn again."""
    fields = {key: value for key, value in witness.items() if key != "trial"}
    return sample(FamilySpec(**fields, params={"with_witness": True} if pair else {}),
                  with_aux=True)


def _stated_radius(witness: dict) -> float:
    """Stated radius of a t2 (exterior_diag) or t3a instance, redrawn from its witness."""
    f, _ = _redraw(witness, pair=False)
    if witness["family_id"] == "exterior_diag":
        return thm2_radius(f.coeffs[0])
    return thm3_radius(f.coeffs[1])


STATED = "stated"

# theorem id -> (reports per trial and dim, radii, whether the check rotates over
# mu); STATED is the stated radius of the instance of the first report
DEFAULT_RUNS = {
    "l1": (9, {0.1, 0.5, 0.9}, False),
    "t1i": (50, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}, True),
    "t1ii": (5, {0.2}, True),
    "t1iii": (1, {1.0 / 3.0}, False),
    "e55": (3, {0.25, 0.5, 1.0 / math.sqrt(2.0)}, False),
    "t2": (2, {STATED, 1.0 / 3.0}, False),
    "e17": (1, {None}, False),
    "t3a": (1, {STATED}, False),
    "t3b": (1, {1.0 / 3.0}, False),
    "l2a": (3, {0.1, 0.2, 1.0 / 3.0}, False),
    "l2b": (3, {0.1, 0.2, 1.0 / 3.0}, False),
    "t4a": (1, {KOEBE_RADIUS}, False),
    "t4b": (1, {KOEBE_RADIUS}, False),
}


class TestSuiteStructure:
    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_default_runs(self, theorem_id):
        count, radii, rotated = DEFAULT_RUNS[theorem_id]
        reports = run_suite(RunConfig(theorems=(theorem_id,), trials=1, dims=(1,))).reports
        assert len(reports) == count
        expected = {_stated_radius(reports[0].witness) if r == STATED else r for r in radii}
        assert {rep.r for rep in reports} == expected
        mus = {rep.mu for rep in reports}
        if rotated:
            assert set(MU_FIXED) < mus and len(mus) == len(MU_FIXED) + 1
        else:
            assert mus == {None}
        assert all(rep.passed for rep in reports)

    def test_r_override_replaces_every_default_grid(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "--theorems", "t2,t3a", "--trials", "1", "--dims", "1",
                     "--r", "0.01,0.02", "--out", str(out)]) == 0
        radii = [(rep["theorem_id"], rep["r"]) for rep in json.loads(out.read_text())["reports"]]
        assert radii == [("t2", 0.01), ("t2", 0.02), ("t2", 0.01), ("t2", 0.02),
                         ("t3a", 0.01), ("t3a", 0.02)]

    def test_normal_variant_uses_sharper_radius(self):
        config = RunConfig(theorems=("t1ii",), trials=1, dims=(2,), seed=9,
                           normal_variant=True)
        suite = run_suite(config)
        assert all(rep.r == pytest.approx(1.0 / 3.0) for rep in suite.reports)
        assert all(rep.passed for rep in suite.reports)

    def test_every_other_group_reports_at_a_forced_radius_near_one(self):
        ids = tuple(t for t in THEOREM_IDS if t != "t2")
        config = RunConfig(theorems=ids, trials=1, dims=(1, 2), r_values=(0.999999,), force=True)
        reports = run_suite(config).reports
        assert {rep.theorem_id for rep in reports} == set(ids)
        assert all(rep.r in (0.999999, None) for rep in reports)

    @pytest.mark.parametrize("theorem_id", [t for t, runs in SUITE_RUNS.items()
                                            if any(run.pair for run in runs)])
    def test_pair_draws_reach_past_their_cut_order(self, theorem_id):
        # every unforced radius reads the composite up to the cut order at the
        # pair's largest stated radius; an envelope that needed longer draws
        # would have its order capped at N
        radius = KOEBE_RADIUS if theorem_id.startswith("t4") else 1.0 / 3.0
        for run in SUITE_RUNS[theorem_id]:
            for seed in range(5):
                for dim in range(1, 5):
                    pair, _, _ = cli._draw(run.family, dim, run.order, seed, run.pair)
                    envelope, _ = bohr._source_envelope(pair[0])
                    assert bohr._cut_order(pair, envelope, radius)[0] < run.order, (seed, dim)

    def test_t2_runs_both_families(self):
        config = RunConfig(theorems=("t2",), trials=1, dims=(2,), seed=4)
        suite = run_suite(config)
        kinds = {rep.witness["family_id"] for rep in suite.reports}
        assert kinds == {"exterior_diag", "exterior_colligation"}

    def test_three_hundred_reports_all_pass(self):
        config = RunConfig(theorems=("t1iii",), trials=100, dims=(1, 2, 3), seed=7)
        suite = run_suite(config)
        assert len(suite.reports) == 300
        assert all(rep.passed for rep in suite.reports)

    def test_aggregate_consistency(self):
        config = RunConfig(theorems=("e17", "l1"), trials=4, dims=(1, 3), seed=2)
        suite = run_suite(config)
        agg = suite.aggregate
        assert agg["pass_count"] + agg["fail_count"] == agg["report_count"]
        assert agg["report_count"] == len(suite.reports)
        assert agg["fail_count"] == 0

    def test_csv_report_format(self, tmp_path):
        config = RunConfig(theorems=("t1iii",), trials=1, dims=(1,), seed=1, format="csv")
        suite = run_suite(config)
        path = tmp_path / "rep.csv"
        write_suite_report(suite, str(path), "csv")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "theorem_id"
        assert len(rows) == len(suite.reports) + 1


class TestReplay:
    """A report's witness and its run in SUITE_RUNS redraw the instance and the report."""

    @pytest.mark.parametrize("theorem_id", list(SUITE_RUNS))
    def test_witness_redraws_the_instance_and_its_reports(self, monkeypatch, theorem_id):
        drawn = {}

        def recording(spec, with_aux=False):
            out = sample(spec, with_aux=with_aux)
            drawn[(spec.family_id, spec.dim, spec.seed)] = pickle.dumps(out[0])
            return out

        monkeypatch.setattr(cli, "sample", recording)
        for seed in (3, 11):
            config = RunConfig(theorems=(theorem_id,), trials=1, dims=(1, 2), seed=seed)
            by_witness: dict[str, list] = {}
            for rep in run_suite(config).reports:
                by_witness.setdefault(json.dumps(rep.witness, sort_keys=True), []).append(rep)
            assert len(by_witness) == 2 * len(SUITE_RUNS[theorem_id])
            for reports in by_witness.values():
                witness = reports[0].witness
                assert set(witness) == {"family_id", "dim", "aux_dim", "order", "seed", "trial"}
                (run,) = [run for run in SUITE_RUNS[theorem_id]
                          if run.family == witness["family_id"]]
                instance, aux = _redraw(witness, run.pair)
                key = (witness["family_id"], witness["dim"], witness["seed"])
                assert pickle.dumps(instance) == drawn[key]
                radii = (None,) if run.radii is None else run.radii
                replayed = [
                    rep for mu, kwargs in itertools.product(
                        dict.fromkeys(rep.mu for rep in reports), run.variants)
                    for rep in check_theorem_grid(theorem_id, instance, radii, mu,
                                                  boundary_eval=aux.get("eval"),
                                                  witness=witness, **kwargs)]
                assert _report_bytes(replayed, theorem_id) == _report_bytes(reports, theorem_id)


def _report_bytes(reports, theorem_id: str) -> list[str]:
    return [dumps(report_to_json(rep)) for rep in reports if rep.theorem_id == theorem_id]


class TestGroupDraws:
    """Each (dim, trial) draws one instance per theorem group, from its first id's seed."""

    @pytest.mark.parametrize("normal, draws_per_trial", [(False, 4), (True, 5)])
    def test_one_draw_per_group(self, monkeypatch, normal, draws_per_trial):
        from opbohr import bohr, cli

        counts = {"sample": 0, "compose": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        # the suite draws through cli.sample and composes inside the checks
        monkeypatch.setattr(cli, "sample", counting("sample", cli.sample))
        monkeypatch.setattr(bohr, "compose_subordination",
                            counting("compose", bohr.compose_subordination))
        argv = ["verify", "--theorems", "t1,t3,l2,t4", "--dims", "1,2", "--trials", "2"]
        assert main(argv + ["--normal-variant"] * normal) == 0
        # 2 dims x 2 trials; under --normal-variant t1iii draws apart from t1i, t1ii
        assert counts == {"sample": 4 * draws_per_trial, "compose": 4 * 3}

    def test_follower_alone_equals_follower_in_its_group(self):
        config = {"trials": 2, "dims": (1, 2), "seed": 3}
        alone = run_suite(RunConfig(theorems=("t3b",), **config)).reports
        grouped = run_suite(RunConfig(theorems=parse_theorem_list("t3"), **config)).reports
        assert len(alone) == 4
        assert _report_bytes(alone, "t3b") == _report_bytes(grouped, "t3b")

    def test_reports_do_not_depend_on_neighbours(self):
        config = {"trials": 2, "dims": (1, 2), "seed": 6}
        mixed = run_suite(RunConfig(theorems=("t1ii", "e55", "t1i"), **config)).reports
        group = run_suite(RunConfig(theorems=parse_theorem_list("t1"), **config)).reports
        for theorem_id in ("t1i", "t1ii"):
            assert _report_bytes(mixed, theorem_id) == _report_bytes(group, theorem_id)
        ids = [rep.theorem_id for rep in mixed]
        assert ids == sorted(ids, key=("t1ii", "e55", "t1i").index)

    def test_group_runs_back_to_back(self, monkeypatch):
        from opbohr import bohr

        rotations = []
        compute = bohr._compute_rotated_parts
        monkeypatch.setattr(bohr, "_compute_rotated_parts",
                            lambda *args: rotations.append(args[1:]) or compute(*args))
        run_suite(RunConfig(theorems=("t1ii", "l2a", "t1i"), trials=2, dims=(1, 2), seed=6))
        # l2a runs after t1i, not between the t1 parts, so each angle rotates
        # once per (dim, trial): 4 fixed angles and one random angle
        assert len(rotations) == 2 * 2 * (len(MU_FIXED) + 1)

    @pytest.mark.parametrize("normal", [False, True])
    def test_followers_carry_their_leaders_seed(self, normal):
        config = RunConfig(theorems=parse_theorem_list("t1,l2,t3,t4"), trials=2, dims=(1, 2),
                           seed=8, normal_variant=normal)
        seeds = {}
        for rep in run_suite(config).reports:
            w = rep.witness
            seeds.setdefault((rep.theorem_id, w["dim"], w["trial"]), set()).add(w["seed"])
            if rep.theorem_id == "t1iii":
                assert w["family_id"] == "schur_harmonic"
        for group in THEOREM_GROUPS.values():
            leader = group[0]
            for dim in (1, 2):
                for trial in (0, 1):
                    expected = {derive_seed(8, THEOREM_IDS.index(leader), dim, trial)}
                    for theorem_id in group:
                        assert seeds[(theorem_id, dim, trial)] == expected
