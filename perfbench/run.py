#!/usr/bin/env python3
"""vircut benchmark: one workload, one client, closed loop, cold passes.

  python3 perfbench/run.py --workload bounds-sweep --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload exact-cli --seed 1 --seconds 40 --trace 1

Each pass of the workload runs in a fresh process (workloads.py), one after
the other, so each starts with no memo left from an earlier pass and its
peak RSS is its own.  Passes start while the next one, as long as the
median so far, still ends within --seconds; at least one pass runs.
Set-up time is also sampled from processes that stop where the first
timed call would start, until SETUP_SAMPLES samples exist.

Each pass also times a fixed Fraction kernel that uses no vircut code
(workloads.host_probe) between its operations, at least
workloads.SEGMENT_S seconds of work apart; workloads.HostSpeed weights each
stretch of work by the probes around it.  wall_ref_s is the pass's wall
time rescaled to the host speed at which that kernel takes PROBE_REF_S
seconds: wall_s * PROBE_REF_S / probe_s.  setup_s is rescaled the same
way by the probe taken right after set-up.  The host is shared and its
speed drifts by tens of percent over seconds to minutes; the rescaling
takes most of that drift out of the comparison of two commits.  The raw
wall_s and set-up time are printed beside them.

--trace 0 prints the end-to-end metrics (medians over the passes).
--trace 1 also runs one traced pass and prints the per-layer metrics,
the tracing overhead and the span coverage.  The last line of stdout is
the result object; a failed check, exception or nonzero exit code counts
as a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import COVERAGE_WARNING, analyse  # noqa: E402

WORKLOADS = ("bounds-sweep", "exact-cli", "field-analysis")
FIXED_INPUTS = ("bounds-sweep", "field-analysis")   # they take the seed, unused
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

PROBE_REF_S = 0.045     # probe time on a calm host; times are rescaled to it

END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Layer self times: span name + "_s" is the metric name.
LAYER_SPANS = (
    "verma.monomial_block",
    "verma.gram_matrix",
    "verma.truncated_rep",
    "rational.psd_congruence",
    "verma.relation_residual_summary",
    "smear.smear",
    "smear.hermiticity_residual",
    "smear.heat_identity_residual",
    "bounds.estimate_r",
    "bounds.estimate_q",
    "store.save_rep",
    "store.load_rep",
    "cli.main.rep",
    "cli.main.smear",
    "cli.main.field",
    "fields.coefficient_rows",
    "fields.evaluate",
    "fields.evaluate_series",
    "bounds.mollifier_report",
    "acceptance.run_criterion",
)
COUNTS = (
    ("verma.monomial_states", "count"),
    ("verma.quotient_states", "count"),
    ("verma.kept_ratio", "ratio"),
    ("verma.blocks", "count"),
    ("bounds.q_cells", "count"),
    ("store.cache_bytes", "B"),
    ("cli.report_bytes", "B"),
    ("verma.relation_max_abs", "1"),
)
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
                 ("trace.uncovered_spans", "count"))
PER_LAYER = tuple((f"{name}_s", "s") for name in LAYER_SPANS) + COUNTS + TRACE_METRICS


def median_quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": values}


def spawn(args: list[str], timeout: float) -> tuple[dict | None, float, str]:
    """Run one pass process; returns (record or None, spawn time, error)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), *args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, t_spawn, f"pass timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, t_spawn, f"pass exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    try:
        return json.loads(lines[-1]), t_spawn, ""
    except json.JSONDecodeError:
        return None, t_spawn, f"pass printed no record: {lines[-1][:200]}"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int, workload: str) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": seed,
        "seed_used": workload not in FIXED_INPUTS,
        "loop": "closed, 1 client, 1 process per pass, 1 thread of control",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reference", default=str(HERE / "reference.json"),
                    help="reference outputs the passes are checked against")
    ap.add_argument("--inject-fault", default="none",
                    help="passed to every vircut CLI call (negative control)")
    args = ap.parse_args()

    if not (ROOT / "src" / "vircut" / "__init__.py").is_file():
        print(f"error: no vircut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.reference = str(Path(args.reference).resolve())
    if not Path(args.reference).is_file():
        print(f"error: reference file {args.reference} not found", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run kills and waits for the running pass,
    # and the finally clause below removes the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t_run = time.monotonic()
    work = ROOT / ".bench_work" / f"{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--reference", args.reference, "--inject-fault", args.inject_fault]
    passes, setups, errors = [], [], []
    traced = None

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - t_run)

    try:
        durations = []
        while not passes or (time.monotonic() - t_run + statistics.median(durations)
                             <= args.seconds):
            t0 = time.monotonic()
            rec, t_spawn, err = spawn([*common, "--trace", "0", "--work",
                                       str(work / f"pass-{len(passes) + len(errors)}")], left())
            durations.append(time.monotonic() - t0)
            if rec is None:
                errors.append(err)
                if len(errors) >= 3 or left() < max(durations):
                    break
                continue
            passes.append(rec)
            setups.append((rec["t_ready"] - t_spawn, rec["setup_probe_s"]))
        while passes and len(setups) < SETUP_SAMPLES and left() > 10:
            rec, t_spawn, err = spawn([*common, "--trace", "0", "--setup-only", "--work",
                                       str(work / f"setup-{len(setups)}")], left())
            if rec is None:
                errors.append(err)
                break
            setups.append((rec["t_ready"] - t_spawn, rec["setup_probe_s"]))
        if args.trace and passes:
            traced, _, err = spawn([*common, "--trace", "1", "--work", str(work / "traced")],
                                   left())
            if traced is None:
                errors.append(err)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if not passes or (args.trace and traced is None):
        print("error: no pass completed; no result", file=sys.stderr)
        return 1

    checked = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in checked) + len(errors)
    failed = sum(p["failed"] for p in checked) + len(errors)
    stats = {
        "wall_ref_s": median_quartiles([p["wall_s"] * PROBE_REF_S / p["probe_s"]
                                        for p in passes]),
        "setup_s": median_quartiles([t * PROBE_REF_S / probe for t, probe in setups]),
        "peak_rss_mb": median_quartiles([p["peak_rss_mb"] for p in passes]),
        "wall_s": median_quartiles([p["wall_s"] for p in passes]),
        "probe_s": median_quartiles([p["probe_s"] for p in passes]),
        "setup_raw_s": median_quartiles([t for t, _ in setups]),
    }
    if args.workload == "exact-cli":
        stats["cold_call_s"] = median_quartiles([p["cold_call_s"] for p in passes])
        stats["warm_call_s"] = median_quartiles([w for p in passes for w in p["warm_call_s"]])

    env = environment(args.seed, args.workload)
    env["blas_threads"] = passes[0]["blas_threads"]
    print(f"vircut benchmark: workload {args.workload}, seed {args.seed}"
          f"{' (fixed inputs; seed unused)' if args.workload in FIXED_INPUTS else ''}, "
          f"{len(passes)} cold passes in {time.monotonic() - t_run:.1f} s")
    units = dict(END_TO_END, wall_s="s", probe_s="s", setup_raw_s="s", cold_call_s="s",
                 warm_call_s="s")
    for name, s in stats.items():
        print(f"  {name:<14} {s['median']:>12.6g} {units[name]:<3} median of {s['n']}, "
              f"quartiles {s['q1']:.6g} .. {s['q3']:.6g}")
    print(f"  {'error_rate':<14} {failed / attempted:>12.6g} {'1':<3} "
          f"{failed} of {attempted} checked operations failed")
    for p in checked:
        for problem in p["problems"]:
            print(f"    failed: {problem}")

    if args.trace:
        metrics = trace_metrics(traced, stats["wall_s"]["median"])
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    print("record: " + json.dumps({"environment": env, "stats": stats}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def trace_metrics(traced: dict, untraced_wall: float) -> dict:
    """Per-layer metrics of the traced pass; prints them with the coverage."""
    a = analyse(traced["spans"], traced["wall_s"])
    overhead = a["traced_total_s"] - untraced_wall
    metrics = {}
    print(f"traced pass: {traced['wall_s']:.3f} s, of which repeat probes "
          f"{a['repeat_probe_s']:.3f} s; traced total {a['traced_total_s']:.3f} s, "
          f"overhead {overhead:+.3f} s against the untraced median {untraced_wall:.3f} s")
    for name in LAYER_SPANS:
        value = a["layers"].get(name, 0.0)
        metrics[f"{name}_s"] = {"value": value, "unit": "s"}
        note = f"  ({a['probes'][name]} probe)" if name in a["probes"] else ""
        print(f"  {name + '_s':<36} {value:>12.6g} s{note}")
    for name, unit in COUNTS:
        value = traced["counts"].get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<36} {value:>12.6g} {unit}")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.coverage"] = {"value": a["coverage"], "unit": "ratio"}
    metrics["trace.uncovered_spans"] = {"value": len(a["uncovered"]), "unit": "count"}
    print(f"  coverage: layer spans cover {a['coverage']:.1%} of the traced pass "
          f"and {a['op_coverage']:.1%} of its {len(a['ops'])} operations")
    for op in a["ops"]:
        print(f"    operation {op['op']:>2} {op['name']!r:<34} {op['seconds']:9.4f} s, "
              f"layer spans cover {op['coverage']:.1%}")
    for op in a["uncovered"]:
        print(f"  WARNING: layer spans cover {op['coverage']:.1%} "
              f"(< {COVERAGE_WARNING:.0%}) of top-level span '{op['name']}' "
              f"({op['seconds']:.3f} s)")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
