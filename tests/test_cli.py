import csv
import json

import numpy as np
import pytest

from opbohr import KOEBE_RADIUS, DomainError, RadiusScan, bohr_radius_bisect, norm_majorant
from opbohr.cli import (
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
from opbohr.generators import koebe_scalar_coeffs, mobius_scalar_coeffs
from opbohr.serialize import (
    dumps,
    report_from_json,
    report_to_json,
    series_from_json,
    series_to_json,
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

    def test_series_roundtrip(self):
        from opbohr.generators import sample, FamilySpec

        f = sample(FamilySpec(family_id="schur_holo", dim=2, aux_dim=3, order=8, seed=1))
        back = series_from_json(json.loads(json.dumps(series_to_json(f))))
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_harmonic_roundtrip(self):
        from opbohr.generators import sample, FamilySpec

        h = sample(FamilySpec(family_id="schur_harmonic", dim=2, aux_dim=3, order=8, seed=2))
        back = series_from_json(json.loads(json.dumps(series_to_json(h))))
        assert np.array_equal(back.analytic, h.analytic)
        assert np.array_equal(back.coanalytic, h.coanalytic)

    def test_scalar_series_roundtrip(self):
        from opbohr import ScalarSeries

        s = ScalarSeries(np.array([0.0, 1.5 - 2j, 3j]))
        back = series_from_json(json.loads(json.dumps(series_to_json(s))))
        assert np.array_equal(back.coeffs, s.coeffs)

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
        args = [sys.executable, "-m", "opbohr.cli", "verify", "--theorems", "t1iii,l1",
                "--trials", "2", "--dims", "1,2", "--seed", "19"]
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


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert selftest(seed=2024, verbose=True) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_selftest_cli(self):
        assert main(["selftest"]) == 0


class TestSuiteStructure:
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
