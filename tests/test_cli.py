import csv
import json
import math

import numpy as np
import pytest

from opbohr import (
    KOEBE_RADIUS,
    THEOREM_IDS,
    DomainError,
    RadiusScan,
    bohr_radius_bisect,
    norm_majorant,
    thm2_radius,
    thm3_radius,
)
from opbohr.cli import (
    MU_FIXED,
    THEOREM_GROUPS,
    RunConfig,
    demo,
    main,
    parse_theorem_list,
    run_suite,
    scan_radius,
    selftest,
    write_scan_csv,
    write_suite_report,
)
from opbohr import cli, generators
from opbohr.errors import OpBohrError
from opbohr.generators import (
    FamilySpec,
    derive_seed,
    koebe_scalar_coeffs,
    mobius_scalar_coeffs,
    sample,
)
from opbohr.serialize import (
    dumps,
    report_from_json,
    report_to_json,
)


class TestTheoremParsing:
    def test_groups_expand(self):
        assert parse_theorem_list("t3,l2") == ("t3a", "t3b", "l2a", "l2b")

    def test_singletons_and_dedup(self):
        assert parse_theorem_list("t1iii,t1iii,e55") == ("t1iii", "e55")

    def test_unknown_rejected(self):
        with pytest.raises(Exception):
            parse_theorem_list("t99")


class TestSerialization:
    def test_report_roundtrip(self):
        config = RunConfig(theorems=("t1iii",), trials=2, dims=(1, 2), seed=3)
        suite = run_suite(config)
        for rep in suite.reports:
            back = report_from_json(json.loads(json.dumps(report_to_json(rep))))
            assert back == rep

    def test_family_spec_roundtrip(self):
        from opbohr.generators import FamilySpec
        from opbohr.serialize import family_spec_from_json, family_spec_to_json

        spec = FamilySpec(family_id="convex_diag", dim=3, aux_dim=5, order=96,
                          seed=17, params={"with_witness": True, "cond_range": (1.0, 4.0)})
        back = family_spec_from_json(json.loads(json.dumps(family_spec_to_json(spec))))
        assert back.family_id == spec.family_id and back.seed == spec.seed
        assert back.params["with_witness"] is True


def _strip_timestamp(payload: str) -> dict:
    obj = json.loads(payload)
    obj["meta"]["timestamp"] = None
    return obj


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
        import os
        import subprocess
        import sys

        import opbohr

        # the child imports the same package as this process, installed or not
        src = os.path.dirname(os.path.dirname(opbohr.__file__))
        path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path_var}
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

    def test_io_error_returns_two(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.json"
        code = main(["verify", "--theorems", "t1iii", "--trials", "1",
                     "--dims", "1", "--out", str(missing)])
        assert code == 2

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
        for family, param in (("koebe", "foo=1"), ("mobius", "oder=64"), ("constant", "a=0.5")):
            assert main(["scan", "--family", family, "--param", param]) == 2

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
            return RadiusScan(family_id=family, params=params, grid=(),
                              estimated_radius=0.5, bracketed=True, warnings=())

        monkeypatch.setattr(cli, "scan_radius", fake_scan)
        assert main(["scan", "--family", "koebe", "--param", "order=8"]) == 0
        assert main(["scan", "--family", "koebe"]) == 0
        assert seen == [{"order": 8.0}, {}]
        assert main(["scan", "--family", "koebe", "--steps", "x"]) == 2
        assert main(["scan", "--family", "nonsense"]) == 2
        assert main(["scan", "--family", "koebe", "--param", "order"]) == 2
        assert main(["scan", "--family", "koebe", "--param", "order=16"]) == 0
        assert seen[-1] == {"order": 16.0}
        assert cli._parser() is cli._parser()

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPBOHR_OUT_DIR", str(tmp_path))
        code = main(["verify", "--theorems", "t1iii", "--trials", "1",
                     "--dims", "1", "--out", "env_report.json"])
        assert code == 0
        assert (tmp_path / "env_report.json").exists()


class TestScan:
    def test_mobius_estimate(self, tmp_path):
        scan = scan_radius("mobius", {"a": 0.5})
        assert scan.bracketed
        assert scan.estimated_radius == pytest.approx(0.5, abs=1e-6)
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["family_id", "param_json", "r", "margin", "passed"]
        assert len(rows) == len(scan.grid) + 2
        est_params = json.loads(rows[-1][1])
        assert est_params["row"] == "estimate" and est_params["bracketed"] is True
        assert est_params["warnings"] == list(scan.warnings)

    def test_estimate_row_carries_bisection_warnings(self, tmp_path):
        warning = "non-monotone predicate near r = 0.3"
        scan = RadiusScan(family_id="mobius", params={"a": 0.5}, grid=(),
                          estimated_radius=0.5, bracketed=True, warnings=(warning,))
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert json.loads(rows[-1][1])["warnings"] == [warning]

    @pytest.mark.parametrize("family, params, coeffs, k0, bound", [
        ("mobius", {"a": 0.6, "order": 80},
         mobius_scalar_coeffs(0.6, 80)[:, None, None], 0, 1.0),
        ("koebe", {"order": 128}, koebe_scalar_coeffs(128)[:, None, None], 1, 0.25),
        ("constant", {"value": 0.3}, np.array([[[0.3 + 0j]]]), 0, 1.0),
    ])
    def test_grid_and_radius_match_per_radius_majorants(self, family, params, coeffs, k0, bound):
        scan = scan_radius(family, params, r_min=0.05, r_max=0.9, steps=23)
        rs = np.linspace(0.05, 0.9, 23)
        expected = [(float(r), bound - norm_majorant(coeffs, float(r), k0)) for r in rs]
        assert [(r, m) for r, m, _ in scan.grid] == expected
        assert [p for _, _, p in scan.grid] == [m >= -1e-12 for _, m in expected]
        ref = bohr_radius_bisect(lambda r: norm_majorant(coeffs, r, k0) <= bound, 0.05, 0.9)
        assert (scan.estimated_radius, scan.bracketed, scan.warnings) == (
            ref.radius, ref.bracketed, ref.warnings)

    def test_radius_outside_the_disk_raises(self):
        with pytest.raises(DomainError):
            scan_radius("koebe", r_max=1.0)

    def test_koebe_estimate(self):
        scan = scan_radius("koebe")
        assert scan.estimated_radius == pytest.approx(KOEBE_RADIUS, abs=1e-6)

    def test_constant_unbracketed(self):
        scan = scan_radius("constant", {"value": 0.3})
        assert not scan.bracketed
        assert scan.estimated_radius == pytest.approx(0.95)

    def test_cli_scan(self, tmp_path):
        out = tmp_path / "koebe.csv"
        code = main(["scan", "--family", "koebe", "--out", str(out)])
        assert code == 0 and out.exists()


class TestDemo:
    def test_sharpness_demo(self, capsys):
        report = demo("sharpness-e55")
        captured = capsys.readouterr().out
        assert "target" in captured
        assert report.aggregate["fail_count"] == 0
        for row in report.aggregate["demo_rows"]:
            assert abs(row["computed"] - row["target"]) <= 1e-6

    def test_radius_demos(self, capsys):
        for name in ("radius-t2", "radius-t3", "koebe-t4"):
            report = demo(name)
            for row in report.aggregate["demo_rows"]:
                assert abs(row["computed"] - row["target"]) <= 1e-6
        capsys.readouterr()

    def test_demo_cli(self):
        assert main(["demo", "radius-t3"]) == 0

    def test_demo_and_verify_write_the_same_meta(self, capsys):
        metas = [demo("radius-t3").meta, run_suite(RunConfig(trials=1, dims=(1,))).meta]
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
        # family that reads it
        monkeypatch.setattr(generators.SchurRealization, "sup_bound", lambda self: 0.9)
        assert selftest(seed=2024, verbose=True) == 3
        failed = [line for line in capsys.readouterr().out.splitlines() if "[FAIL]" in line]
        assert [line.split()[1] for line in failed] == [
            "schur_holo", "schur_harmonic", "subordination"]


def _stated_radius(witness: dict) -> float:
    """Stated radius of a t2 (exterior_diag) or t3a instance, redrawn from its witness."""
    spec = FamilySpec(family_id=witness["family_id"], dim=witness["dim"],
                      aux_dim=witness["aux_dim"], order=witness["order"], seed=witness["seed"])
    f = sample(spec)
    if spec.family_id == "exterior_diag":
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
