#!/usr/bin/env python3
"""One cold pass of a vircut benchmark workload, in a process of its own.

run.py starts this script once per pass, so every pass begins with no
in-process memo left from an earlier one, as a fresh `vircut` invocation
or script run does.  The pass prints one JSON line, its record, last on
stdout.

  python3 perfbench/workloads.py --workload exact-cli --seed 3 --trace 0 \
      --work .bench_work/example

Re-recording the reference outputs (only on a commit whose outputs are
known to be right):

  for w in bounds-sweep exact-cli field-analysis; do
    python3 perfbench/workloads.py --workload $w --seed 0 --trace 0 \
        --work .bench_work/record --record perfbench/reference.json
  done
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from run import WORKLOADS  # noqa: E402
from tracing import Tracer  # noqa: E402
from vircut import (acceptance, bounds, cli, fields, rational, smear,  # noqa: E402
                    store, verma)

# bounds-sweep: the paper's main experiment, float mode, Ising vacuum.
SWEEP_C = Fraction(1, 2)
SWEEP_LEVELS = range(4, 13)
HEAT_EPS = (1e-4, 1e-2, 0.5, 3.0, 20.0)
FLOAT_REL_TOL = 1e-12       # r_hat^2 and q_hat against the reference
HEAT_IDENTITY_TOL = 1e-12
FLOAT_RELATION_TOL = 1e-10

# exact-cli: the Kac weight (7/10, 3/5), which has a null vector at level 3.
EXACT_C, EXACT_H, EXACT_N = Fraction(7, 10), Fraction(3, 5), 9
EXACT_ARGS = ["--c", str(EXACT_C), "--h", str(EXACT_H), "--N", str(EXACT_N)]
SMEAR_FIELDS = 3
FIELD_PLACEHOLDER = "<field csv>"

# field-analysis: no representation is built.
MOLLIFIER_K_MAX = 1 << 26
MOLLIFIER_TOL = 1e-3
PROFILE_SAMPLES, PROFILE_CUTOFF = 2000, 200
CRITERIA = ("heat-sup-closed-form", "piecewise-field")
M_HAT = 32 / (3 * math.pi)

# host speed probes between operations (see HostSpeed)
PROBE_SIZE = 70             # about 0.045 s on a calm host
SEGMENT_S = 0.3             # least work between two probes inside a pass


def host_probe(n: int = PROBE_SIZE) -> float:
    """Seconds for a fixed memo-heavy Fraction recursion that uses no vircut code.

    It measures how fast this CPU runs this kind of code at that moment."""
    start = time.perf_counter()
    memo = {}
    for i in range(n):
        for j in range(n):
            if i == 0 or j == 0:
                memo[i, j] = Fraction(1, i + j + 1)
            else:
                memo[i, j] = memo[i - 1, j] + memo[i, j - 1] * Fraction(i, i + j + 1)
    return time.perf_counter() - start


class HostSpeed:
    """Host probes taken between the operations of a pass.

    The host is shared and its speed drifts, also within a pass.  host_probe runs
    at the start and the end of the timed work, and before every operation
    that begins at least SEGMENT_S after the previous probe.  `wall_s` is
    the work between the probes, without them.  `probe_s` weights each
    stretch of work by the mean of the two probes around it (a time-weighted
    harmonic mean), so wall_s * PROBE_REF_S / probe_s rescales every
    stretch by the host speed measured next to it.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.work: list[float] = []
        self._mark = None

    def probe(self, force: bool = False) -> None:
        now = time.perf_counter()
        if self._mark is not None:
            if not force and now - self._mark < SEGMENT_S:
                return
            self.work.append(now - self._mark)
        self.readings.append(host_probe())
        self._mark = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return sum(self.work)

    @property
    def probe_s(self) -> float:
        scaled = sum(w * 2 / (a + b)
                     for w, a, b in zip(self.work, self.readings, self.readings[1:]))
        return self.wall_s / scaled


class Pass:
    """Checked operations of one pass: counts, failures and outputs.

    Every output compared with the reference is also kept in `outputs`, which
    is what --record writes.  With no reference (recording) nothing is
    compared, but the invariant checks still run.
    """

    def __init__(self, tracer: Tracer, reference):
        self.tracer = tracer
        self.reference = reference
        self.outputs: dict = {}
        self.attempted = 0
        self.problems: list[tuple[str, str]] = []
        self.counts: dict = {}
        self._op = ""
        self.host = HostSpeed()

    @contextlib.contextmanager
    def op(self, name: str):
        self.host.probe()
        self.attempted += 1
        self._op = name
        with self.tracer.op(name):
            try:
                yield
            except Exception as exc:  # a crash is a failed operation, not an abort
                self.fail(f"raised {type(exc).__name__}: {exc}")

    def fail(self, message: str) -> None:
        self.problems.append((self._op, message))

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def same(self, key: str, value, rel: float = 0.0) -> None:
        """Compare with the reference: exactly, or to `rel` relative."""
        value = json.loads(json.dumps(value))
        self.outputs[key] = value
        if self.reference is None:
            return
        if key not in self.reference:
            self.fail(f"no reference output {key!r}")
        elif not _agrees(value, self.reference[key], rel):
            self.fail(f"{key} differs from the reference")

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.problems})


def _agrees(got, want, rel: float) -> bool:
    if rel == 0.0 or isinstance(got, (str, bool)) or got is None:
        return got == want
    if isinstance(got, list):
        return (isinstance(want, list) and len(got) == len(want)
                and all(_agrees(g, w, rel) for g, w in zip(got, want)))
    return isinstance(want, (int, float)) and abs(got - want) <= rel * abs(want)


def forget_memos() -> None:
    """Drop every in-process memo of the package, as a new process would."""
    if hasattr(verma, "clear_caches"):
        verma.clear_caches()
    for mod in (acceptance, bounds, cli, fields, rational, smear, store, verma):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def block_keys(N: int):
    return [(n, k) for n in range(-N, N + 1) for k in range(max(0, n), N + 1)
            if 0 <= k - n <= N]


def fill_memos(tr: Tracer, c, h, N: int) -> list:
    """Traced passes only: PBW blocks first (act memo cold), then the Gram
    levels (act memo warm), so the rep build that follows finds both memos
    warm and its span keeps only the quotient and block assembly."""
    with tr.span("verma.monomial_block", "fill"):
        for n, k in block_keys(N):
            verma.monomial_block(n, k, c, h)
    with tr.span("verma.gram_matrix", "fill"):
        return [verma.gram_matrix(c, h, k).entries for k in range(N + 1)]


def rep_counts(rep) -> dict:
    monomial = sum(verma.partition_count(k) for k in range(rep.N + 1))
    return {"verma.monomial_states": monomial,
            "verma.quotient_states": rep.total_dim(),
            "verma.kept_ratio": rep.total_dim() / monomial,
            "verma.blocks": len(rep.blocks)}


def read_result(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())["result"]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# workloads


def bounds_sweep(ps: Pass, work: Path, args) -> dict:
    tr = ps.tracer
    c, h = SWEEP_C, Fraction(0)
    rep = summary = None
    q_cells = 0
    for N in SWEEP_LEVELS:
        with ps.op(f"N={N}"):
            if tr.enabled:
                fill_memos(tr, c, h, N)
            with tr.span("verma.truncated_rep"):
                rep = verma.truncated_rep(c, h, N, mode="float")
            with tr.span("bounds.estimate_r"):
                r = bounds.estimate_r(c, N, rep=rep)
            with tr.span("bounds.estimate_q"):
                q = bounds.estimate_q(c, N, rep=rep, r_report=r)
            q_cells += len(q.table)
            ps.same(f"bounds-sweep/N={N}/level_dims", list(rep.level_dims))
            ps.same(f"bounds-sweep/N={N}/r_sq", r.constant, FLOAT_REL_TOL)
            ps.same(f"bounds-sweep/N={N}/q_hat", q.constant, FLOAT_REL_TOL)
            ps.expect(bool(q.derived["chain_ok"]), "chain q_hat <= 3 r_hat^2 violated")
            ps.expect(r.verdict == "pass" and q.verdict == "pass",
                      f"verdicts r={r.verdict} q={q.verdict}")
    N = SWEEP_LEVELS[-1]
    with ps.op("heat-identity"):
        worst = 0.0
        for n in range(-N, N + 1):
            if n == 0:
                continue
            for eps in HEAT_EPS:
                with tr.span("smear.heat_identity_residual"):
                    worst = max(worst, smear.heat_identity_residual(rep, n, eps))
        ps.expect(worst <= HEAT_IDENTITY_TOL, f"heat identity residual {worst:.3e}")
    with ps.op("relations"):
        with tr.span("verma.relation_residual_summary"):
            summary = verma.relation_residual_summary(rep, 3)
        ps.expect(summary["max_abs"] <= FLOAT_RELATION_TOL,
                  f"float relation residual {summary['max_abs']:.3e}")
    if tr.enabled:
        ps.counts.update(rep_counts(rep))
        ps.counts["bounds.q_cells"] = q_cells
        if summary is not None:
            ps.counts["verma.relation_max_abs"] = summary["max_abs"]
    return {}


def prepare_exact_cli(work: Path, seed: int) -> list:
    """The seed's real rational fields, |n| <= 3, denominator 8, as CSV files."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(SMEAR_FIELDS):
        field = fields.random_real_field(rng, max_mode=3, denominator=8)
        path = work / f"F_{i}.csv"
        rows = ["n,re,im"] + [f"{n},{a.re},{a.im}"
                              for n, a in sorted(field.coefficients.items())]
        path.write_text("\n".join(rows) + "\n")
        out.append((path, field))
    return out


def exact_cli(ps: Pass, work: Path, args, inputs) -> dict:
    tr = ps.tracer
    c, h, N = EXACT_C, EXACT_H, EXACT_N
    cache = work / "cache"
    common = [*EXACT_ARGS, "--cache", str(cache)]
    if args.inject_fault != "none":
        common += ["--inject-fault", args.inject_fault]
    outs = []
    cold = None

    forget_memos()
    with ps.op("rep"):
        if tr.enabled:
            grams = fill_memos(tr, c, h, N)
            with tr.span("rational.psd_congruence", "repeat"):
                for g in grams:
                    rational.psd_congruence(g)
            with tr.span("verma.truncated_rep", "repeat"):
                rep = verma.truncated_rep(c, h, N)
            with tr.span("verma.relation_residual_summary", "repeat"):
                verma.relation_residual_summary(rep, 3)
            with tr.span("store.save_rep", "repeat"):
                store.save_rep(work / "probe-cache", rep)
            ps.counts.update(rep_counts(rep))
        outs.append(work / "out-rep")
        start = time.perf_counter()
        with tr.span("cli.main.rep"):
            code = cli.main(["rep", *common, "--out", str(outs[-1])])
        cold = time.perf_counter() - start
        ps.expect(code == 0, f"exit code {code}")
        ps.same("exact-cli/rep/result", read_result(outs[-1], "rep_report.json"))
        ps.counts["store.cache_bytes"] = dir_bytes(cache)

    warm = []
    for i, (path, field) in enumerate(inputs):
        forget_memos()
        with ps.op(f"smear F_{i}"):
            if tr.enabled:
                with tr.span("store.load_rep", "repeat"):
                    rep = store.load_rep(cache, c, h, N)
                with tr.span("smear.smear", "repeat"):
                    op = smear.smear(rep, field, cutoff=N)
                with tr.span("smear.hermiticity_residual", "repeat"):
                    smear.hermiticity_residual(op)
            outs.append(work / f"out-smear-{i}")
            start = time.perf_counter()
            with tr.span("cli.main.smear"):
                code = cli.main(["smear", "--field", str(path), *common,
                                 "--out", str(outs[-1])])
            warm.append(time.perf_counter() - start)
            ps.expect(code == 0, f"exit code {code}")
            result = read_result(outs[-1], "smear_report.json")
            ps.expect(result.get("field") == str(path), "report names another field")
            result["field"] = FIELD_PLACEHOLDER
            ps.same("exact-cli/smear/result", result)
    ps.counts["cli.report_bytes"] = sum(dir_bytes(o) for o in outs if o.is_dir())
    return {"cold_call_s": cold, "warm_call_s": warm}


def field_analysis(ps: Pass, work: Path, args) -> dict:
    tr = ps.tracer
    out = work / "out-field"
    with ps.op("cli field"):
        if tr.enabled:
            with tr.span("fields.coefficient_rows", "repeat"):
                fields.coefficient_rows(fields.build_piecewise_mobius(), 400)
        with tr.span("cli.main.field"):
            code = cli.main(["field", "piecewise-mobius", "--out", str(out)])
        ps.expect(code == 0, f"exit code {code}")
        result = read_result(out, "field_report.json")
        ps.same("field-analysis/field/result", result)
        m_hat = float(result["decay"]["constant"])
        ps.expect(abs(m_hat - M_HAT) <= FLOAT_REL_TOL * M_HAT,
                  f"M_hat {m_hat!r} is not 32/(3 pi)")
        ps.counts["cli.report_bytes"] = dir_bytes(out)

    pw = None
    with ps.op("mollifier"):
        pw = fields.build_piecewise_mobius()
        with tr.span("bounds.mollifier_report"):
            fejer = bounds.mollifier_report(pw, fields.FEJER, k_max=MOLLIFIER_K_MAX,
                                            tol=MOLLIFIER_TOL)
        ladder = [row["k"] for row in fejer.table]
        with tr.span("bounds.mollifier_report"):
            control = bounds.mollifier_report(fields.cosine_field(1), k_max=MOLLIFIER_K_MAX,
                                              tol=MOLLIFIER_TOL, ladder=ladder)
        errors = [row["error"] for row in fejer.table]
        ps.same("field-analysis/mollifier/errors", errors, FLOAT_REL_TOL)
        ps.expect(errors[-1] < MOLLIFIER_TOL, f"final mollifier error {errors[-1]:.3e}")
        ps.expect(all(a >= b for a, b in zip(errors, errors[1:])), "errors not monotone")
        ps.expect(fejer.verdict == "pass", f"verdict {fejer.verdict}")
        # the multiplier 1 - |n|/(k+1) is rounded, so the control holds to a few ulp of 1
        ps.expect(all(abs(row["error"] - 2 / (row["k"] + 1)) <= 8 * sys.float_info.epsilon
                      for row in control.table), "cosine control is not 2/(k+1)")

    with ps.op("profile"):
        worst = 0.0
        for i in range(PROFILE_SAMPLES):
            theta = 2.0 * math.pi * i / PROFILE_SAMPLES
            with tr.span("fields.evaluate"):
                value = fields.evaluate(pw, theta)
            with tr.span("fields.evaluate_series"):
                series = fields.evaluate_series(pw, theta, PROFILE_CUTOFF)
            worst = max(worst, abs(value - series))
        ps.same("field-analysis/profile/worst_gap", worst, FLOAT_REL_TOL)

    for name in CRITERIA:
        with ps.op(f"criterion {name}"):
            with tr.span("acceptance.run_criterion"):
                res = acceptance.run_criterion(name)
            ps.expect(res.passed, res.detail)
    return {}


# ---------------------------------------------------------------------------
# entry point


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description="one cold pass of a vircut workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory for this pass")
    ap.add_argument("--reference", default=str(HERE / "reference.json"))
    ap.add_argument("--record", help="merge this pass's outputs into FILE instead of checking")
    ap.add_argument("--inject-fault", default="none", choices=cli.FAULTS)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the first timed call would start")
    args = ap.parse_args()

    if not Path(verma.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"vircut imported from {verma.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    reference = None if args.record else json.loads(Path(args.reference).read_text())
    record_path = Path(args.record).resolve() if args.record else None
    # CLI calls get paths relative to the pass directory, so report sizes
    # do not depend on where the checkout lives
    Path(args.work).mkdir(parents=True, exist_ok=True)
    os.chdir(args.work)
    work = Path(".")
    inputs = prepare_exact_cli(work, args.seed) if args.workload == "exact-cli" else None
    ps = Pass(Tracer(bool(args.trace)), reference)

    t_ready = time.monotonic()
    ps.host.probe(force=True)
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready, "setup_probe_s": ps.host.readings[0]}))
        return 0
    if args.workload == "bounds-sweep":
        extra = bounds_sweep(ps, work, args)
    elif args.workload == "exact-cli":
        extra = exact_cli(ps, work, args, inputs)
    else:
        extra = field_analysis(ps, work, args)
    ps.host.probe(force=True)

    record = {
        "t_ready": t_ready,
        "setup_probe_s": ps.host.readings[0],
        "wall_s": ps.host.wall_s,
        "probe_s": ps.host.probe_s,
        "probes": len(ps.host.readings),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": ps.attempted,
        "failed": ps.failed,
        "problems": [f"{op}: {msg}" for op, msg in ps.problems[:20]],
        "blas_threads": blas_threads(),
        "counts": ps.counts,
        "spans": ps.tracer.spans,
        **extra,
    }
    if record_path:
        merged = json.loads(record_path.read_text()) if record_path.exists() else {}
        merged.update(ps.outputs)
        record_path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
