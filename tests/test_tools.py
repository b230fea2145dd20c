import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_ab  # noqa: E402
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


@pytest.mark.parametrize("failed_side, status", [(None, 0), ("change", 1)])
def test_bench_ab_interleaves_sides_and_reports_best_time_ratio(monkeypatch, capsys,
                                                               failed_side, status):
    calls = []

    class FakeWorker:
        def __init__(self, checkout, workload, seed):
            self.side = "parent" if checkout == ROOT / "src" else "change"
            self.instances = 3

        def run(self, index, cpu):
            calls.append((self.side, index, cpu))
            # the change takes half the time; every round after the first is slower
            seconds = (1.0 if self.side == "parent" else 0.5) * (index + 1) * (1 + len(calls))
            failed = int(self.side == failed_side and index == 2)
            return {"seconds": seconds, "failed": failed, "digest": f"d{index}"}

        def close(self):
            pass

    monkeypatch.setattr(bench_ab, "Worker", FakeWorker)
    monkeypatch.setattr(bench_ab, "probe_setup",
                        lambda checkout, workload, seed: 2.0 if checkout == ROOT / "src" else 1.0)
    argv = [str(ROOT / "src"), str(ROOT), "--workload", "subordination", "--seed", "1",
            "--rounds", "2"]
    assert bench_ab.main(argv) == status
    assert len(calls) == 12
    # each instance runs on both sides back to back, on one CPU; the leading side alternates
    pairs = [calls[k:k + 2] for k in range(0, 12, 2)]
    assert all(a[1:] == b[1:] and a[0] != b[0] for a, b in pairs)
    assert [pair[0][0] for pair in pairs] == ["parent"] * 3 + ["change"] * 3
    out = capsys.readouterr().out
    assert "0.500x" in out
    assert "change faster on 3/3" in out
    assert "change lower in 2/2 rounds" in out
    assert "setup [s]: parent 2 [2-2] -> change 1 [1-1], 0.500x" in out
    assert "report digests equal between sides: yes" in out


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


def _load_tracer():
    """perfbench/tracer.py as a module, loaded from its file without changing it."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_layer_is_still_in_the_package():
    # the tracer skips a layer whose function is gone, and the traced run then
    # lacks that layer's metrics: a rename must rename the layer too
    from opbohr import bohr

    tracer = _load_tracer()
    missing = [f"{layer.name}: {module}.{fname}"
               for layer in tracer.LAYERS
               for module in [layer.name.split(".")[0]]
               for fname in layer.functions
               if not callable(getattr(tracer.MODULES[module], fname, None))]
    assert missing == []
    assert isinstance(bohr._PREPARERS, dict)
    traced = tracer.Tracer()
    traced.install()
    try:
        measured, exact = traced.layer_metrics(0, 0)
    finally:
        traced.uninstall()
    # perfbench/run.py adds the overhead ratio to the tracer's layer metrics
    emitted = measured.keys() | exact.keys() | {"trace.overhead_ratio"}
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(set(per_layer) - emitted) == []
