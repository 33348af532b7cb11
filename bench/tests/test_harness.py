"""Checks on the benchmark harness itself.

Run from the repository root with ``pytest bench/tests``.  Two quick
runs of ``bench/run.py`` (web scale 2000, one op per workload, a
16-cell grid) back the coverage tests; the rest exercise the output
checks, the span wrappers and the settings checks in-process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _quick_run(tmp_path, *args):
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--out", str(out), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def timed(tmp_path_factory):
    return _quick_run(tmp_path_factory.mktemp("timed"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _quick_run(tmp_path_factory.mktemp("traced"), "--trace")


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_metric_is_reported_with_its_unit(kind, timed, traced):
    result, doc = timed if kind == "end_to_end" else traced
    for workload in NAMES:
        for metric in SPEC[kind]:
            name, unit = metric["name"], metric["unit"]
            assert result["metrics"][f"{workload}.{name}"]["unit"] == unit
            assert doc["workloads"][workload]["metrics"][name]["unit"] == unit


def test_quick_run_has_no_failed_ops(timed):
    result, doc = timed
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(NAMES)
    for workload in NAMES:
        assert doc["workloads"][workload]["metrics"]["fail_frac"]["median"] == 0


def test_traced_run_writes_spans(traced):
    trace = json.loads((ROOT / "bench-trace.json").read_text(encoding="utf-8"))
    assert sorted(trace["workloads"]) == sorted(NAMES)
    web = trace["workloads"]["web-day"]
    assert "cloud.vecfleet.advance" in web["names"] and web["spans"]


def test_a_corrupted_run_fails_the_check():
    from repro import AdaptivePolicy, run_policy, web_scenario

    run = run_policy(
        web_scenario(scale=2000.0, horizon=3600.0), AdaptivePolicy(), seed=0, backend="des-vec"
    )
    assert workloads.check_run_metrics(run) == []
    corrupted = dataclasses.replace(run, accepted=run.accepted + 1)
    assert workloads.check_run_metrics(corrupted)
    assert workloads.compare_runs(run, corrupted) == ["des-vec vs des-vec s0: accepted differs"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_failed_checks_exit_1_with_a_result_line(trace, monkeypatch, capsys):
    """Every op failing its checks is ``correct: false``, not a harness error."""
    import child
    import run

    def in_process(args):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert child.main(args) == 0
        return out.getvalue()

    monkeypatch.setattr(workloads, "check_run_metrics", lambda r: ["forced failure"])
    monkeypatch.setattr(run, "_child", in_process)
    assert run.main(["--quick", "--workload", "web-day", "--trace", trace]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_seconds_must_match_the_spec():
    import run

    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "web-day", "--seconds", str(SPEC["run_seconds"] + 1)])
    assert exc.value.code == 2


def test_compare_refuses_files_made_under_other_settings(tmp_path):
    import compare

    metric = {"unit": "s", "median": 1.0, "samples": [1.0]}
    doc = {
        "format": "repro-bench-results",
        "seconds": SPEC["run_seconds"],
        "quick": False,
        "trace": 0,
        "workloads": {"web-day": {"metrics": {"norm_cpu_s": metric}}},
    }
    base, same, quick = tmp_path / "base.json", tmp_path / "same.json", tmp_path / "quick.json"
    base.write_text(json.dumps(doc), encoding="utf-8")
    same.write_text(json.dumps(doc), encoding="utf-8")
    quick.write_text(json.dumps(dict(doc, quick=True)), encoding="utf-8")
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(quick)]) == 2


def test_wrappers_record_spans_and_are_restored(tmp_path):
    before = spans.snapshot()
    recorder = spans.SpanRecorder()
    workload = workloads.WORKLOADS["web-day"]
    with recorder.installed():
        assert len(spans.unrestored(before)) == len(spans.LAYERS)
        workload.run(workload.setup(0, quick=True), 0, tmp_path)
    assert spans.unrestored(before) == []
    stats = recorder.layer_stats()
    assert stats["cloud.vecfleet.advance"]["calls"] > 0
    assert stats["backends.des-vec.run"]["calls"] == 1


def test_probe_samples_during_the_block_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe() as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) > 2
    speed = hostspeed.NOMINAL_S / statistics.median(probe.samples)
    assert hostspeed.normalise(sum(probe.samples) + 1.0, probe.samples) == pytest.approx(speed)


def test_wrappers_are_restored_when_the_op_raises():
    before = spans.snapshot()
    with pytest.raises(RuntimeError):
        with spans.SpanRecorder().installed():
            raise RuntimeError("op failed")
    assert spans.unrestored(before) == []


def test_inherited_method_wraps_the_base_function():
    from repro.core.modeler import PerformanceModeler
    from repro.economy.policies import ProfitModeler

    assert "decide" not in vars(ProfitModeler)
    recorder = spans.SpanRecorder()
    with recorder.installed():
        assert vars(ProfitModeler)["decide"].__wrapped__ is vars(PerformanceModeler)["decide"].__wrapped__
    assert "decide" not in vars(ProfitModeler)
