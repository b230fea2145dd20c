import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402


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
