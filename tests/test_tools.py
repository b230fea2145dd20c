import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
import report_diff  # noqa: E402


@pytest.mark.parametrize("incorrect_side, status", [(None, 0), ("parent", 1), ("change", 1)])
def test_bench_pairs_exit_status_reports_incorrect_runs(monkeypatch, capsys,
                                                        incorrect_side, status):
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def fake_run_one(checkout, workload, seed, trace, seconds):
        side = "parent" if checkout == ROOT / "src" else "change"
        calls.append(side)
        result = {"correct": side != incorrect_side, "metrics": {m: {"value": 1.0} for m in metrics}}
        return {"report_digest": "d"}, result

    monkeypatch.setattr(bench_pairs, "run_one", fake_run_one)
    # two distinct checkouts; only the change's BENCHMARK.json is read
    argv = [str(ROOT / "src"), str(ROOT), "--workload", "suite-all", "--seed", "1", "--pairs", "2"]
    assert bench_pairs.main(argv) == status
    assert sorted(calls) == ["change", "change", "parent", "parent"]
    out = capsys.readouterr().out
    assert out.count("runs not correct") == 2


def _report(theorem_id, margin, passed=True, **sides):
    return {"theorem_id": theorem_id, "r": 0.2, "mu": None, "passed": passed, "margin": margin,
            "side_values": {"scale": 2.0, **sides}, "witness": {"seed": 1}}


@pytest.mark.parametrize("edit, status, expected", [
    (lambda b: None, 0, "t3b: 1 reports, 0 flag changes"),
    (lambda b: b[1].update(passed=False), 1, "t3b: 1 reports, 1 flag changes"),
    (lambda b: b[1].update(r=0.3), 1, "error: report 1 does not align"),
    (lambda b: b.pop(), 1, "error: report counts differ: 2 vs 1"),
])
def test_report_diff_fails_on_flag_changes_and_misalignment(tmp_path, capsys, edit, status,
                                                            expected):
    a = [_report("t3a", 0.5, tail=1.0), _report("t3b", 0.25, lhs_norm=0.5)]
    b = [_report("t3a", 0.75, tail=1.0, lhs_norm=0.1), _report("t3b", 0.25, lhs_norm=0.75)]
    edit(b)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, reports in zip(paths, (a, b)):
        path.write_text(json.dumps({"reports": reports}))
    assert report_diff.main([str(p) for p in paths]) == status
    out = capsys.readouterr().out
    assert expected in out
    if status == 0:
        assert out.splitlines() == [
            "t3a: 1 reports, 0 flag changes, max |dmargin|/scale 0.125; changed -; "
            "added lhs_norm; removed -",
            "t3b: 1 reports, 0 flag changes, max |dmargin|/scale 0; changed lhs_norm 0.25; "
            "added -; removed -",
        ]
