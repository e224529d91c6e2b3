"""Tests of the benchmark itself: its gate must catch failures.

  python3 -m pytest perfbench -q

The two negative controls each run one exact-cli pass (about 10 s).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer, analyse  # noqa: E402


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "exact-cli", "--seed", "1",
           "--seconds", "1", "--trace", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_injected_fault_is_counted():
    res = result_of(bench("--inject-fault", "central-denominator-13"))
    assert res["failed"] > 0
    assert res["correct"] is False
    assert res["failed"] / res["attempted"] > 0


def test_corrupted_reference_is_counted(tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    ref["exact-cli/rep/result"]["level_dims"][3] += 1
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    res = result_of(bench("--reference", str(bad)))
    assert res["failed"] > 0
    assert res["correct"] is False


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_self_time_and_coverage():
    tr = Tracer(True)
    with tr.op("op"):
        with tr.span("outer"):
            with tr.span("inner", "repeat"):
                pass
    spans = tr.spans
    spans[0]["start"], spans[0]["end"] = 0.0, 10.0   # op
    spans[1]["start"], spans[1]["end"] = 0.0, 8.0    # outer
    spans[2]["start"], spans[2]["end"] = 1.0, 4.0    # inner, a repeat probe
    a = analyse(spans, traced_wall=10.0)
    assert a["layers"] == {"outer": pytest.approx(5.0), "inner": pytest.approx(3.0)}
    assert a["repeat_probe_s"] == pytest.approx(3.0)
    assert a["traced_total_s"] == pytest.approx(7.0)
    assert [op["name"] for op in a["uncovered"]] == ["op"]      # 80% covered
    assert a["ops"][0]["coverage"] == pytest.approx(0.8)


def test_disabled_tracer_records_nothing():
    tr = Tracer(False)
    with tr.op("op"), tr.span("layer"):
        pass
    assert tr.spans == []


def test_host_speed_weights_each_stretch_by_its_probes():
    import workloads
    hs = workloads.HostSpeed()
    hs.readings, hs.work = [0.04, 0.06, 0.05], [1.0, 3.0]
    assert hs.wall_s == pytest.approx(4.0)
    # 1 s of work between probes of mean 0.05 s, 3 s between probes of mean 0.055 s
    assert hs.probe_s == pytest.approx(4.0 / (1.0 / 0.05 + 3.0 / 0.055))
