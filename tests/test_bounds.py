"""Bound-constant experiments: r, q, decay, mollifier convergence."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vircut import bounds, rational, smear, verma
from vircut.bounds import (
    DEFAULT_EPS_GRID,
    _BLOCK,
    _fill_weights,
    _weight_series_chunks,
    decay_report,
    estimate_q,
    estimate_r,
    mollifier_report,
    parse_eps_grid,
)
from vircut.cli import write_rows_csv
from vircut.fields import FEJER, PiecewiseMobiusField, cosine_field
from vircut.smear import heat_identity_residual

# Frozen from independent sweeps of the c = 1/2 vacuum module at N = 8.
R_SQ_N8 = 1.0000000000000002
Q_HAT_N8 = 0.13011474896219252

# float.hex of every rung of the glued field's Fejer ladder: "mollifier" to
# 2^23 (four 2^21 chunks of the weight series), recorded while the series
# still read |f_hat(n)| through the complex closed form; "mollifier_2_26"
# to 2^26, recorded while each chunk still ran one cumsum over all its modes;
# "mollifier_one_chunk" at four tops up to 2^21 + 2 (one chunk, then two),
# recorded while the chunks still ran one after another.
GLUED_BITS = json.loads(
    (Path(__file__).parent / "data" / "glued_field_bits.json").read_text())

# SHA-256 of scripts/mollifier_curve.py's CSV, recorded at the same time.
MOLLIFIER_CSV_PINS = json.loads(
    (Path(__file__).parent / "data" / "mollifier_csv_sha256.json").read_text())

# SHA-256 of scripts/field_profile.py's two CSVs, recorded while
# fields.evaluate_series still exponentiated every mode |n| <= cutoff.
FIELD_PROFILE_CSV_PINS = json.loads(
    (Path(__file__).parent / "data" / "field_profile_csv_sha256.json").read_text())


@pytest.fixture(scope="module")
def r_n8(ising8_float):
    return estimate_r(Fraction(1, 2), 8, rep=ising8_float)


@pytest.fixture(scope="module")
def q_n8(ising8_float, r_n8):
    return estimate_q(Fraction(1, 2), 8, rep=ising8_float, r_report=r_n8)


# ---------------------------------------------------------------------------
# energy-bound ratio r


def test_r_constant_and_witness(r_n8):
    assert r_n8.constant == pytest.approx(R_SQ_N8, rel=1e-12)
    assert (r_n8.witness["k"], r_n8.witness["n"]) == (7, 0)
    assert r_n8.witness["reproduced"] is True
    assert r_n8.verdict == "pass"
    assert r_n8.derived["r_hat"] == pytest.approx(1.0, rel=1e-12)


def test_r_table_skips_the_degenerate_cell(r_n8):
    assert all((row["k"], row["n"]) != (0, 0) for row in r_n8.table)
    assert r_n8.derived["skipped"] > 0
    assert r_n8.derived["cells"] == len(r_n8.table)


def test_r_is_nondecreasing_in_the_truncation(r_n8):
    r4 = estimate_r(Fraction(1, 2), 4)
    r6 = estimate_r(Fraction(1, 2), 6)
    assert r4.constant <= r6.constant <= r_n8.constant


# Closed-form cells.  At h = 0 and small c the largest ratio is an L_0 cell,
# ||L_0 v_k||^2 / k^2 = 1; at h > 0 it is L_0 at level 1, (1 + h)^2; at large
# c it is the vacuum cell ||L_{-N} Omega||^2 / N^3 = (c/12)(1 - 1/N^2), which
# is also q_hat.
@pytest.mark.parametrize("c, h, N, r_sq", [
    *[(Fraction(c), Fraction(0), N, 1) for c in ("1/2", "7/10", "1", "2") for N in (8, 12)],
    *[(Fraction(c), Fraction(h), 12, (1 + Fraction(h)) ** 2)
      for c, h in (("7/10", "3/5"), ("7/10", "3/2"), ("1/2", "1/2"))],
], ids=str)
def test_r_reads_the_l0_cell(c, h, N, r_sq):
    report = estimate_r(c, N, h=h)
    assert report.constant == pytest.approx(float(r_sq), rel=1e-14, abs=0)
    assert report.witness["n"] == 0


@pytest.mark.parametrize("c, N", [(Fraction(100), 12), (Fraction(25), 8)], ids=str)
def test_r_and_q_read_the_vacuum_cell_at_large_c(c, N):
    r = estimate_r(c, N)
    q = estimate_q(c, N, r_report=r)
    want = float(c / 12 * (1 - Fraction(1, N * N)))
    assert r.constant == pytest.approx(want, rel=1e-14, abs=0)
    assert q.constant == pytest.approx(want, rel=1e-14, abs=0)
    assert r.witness["n"] == q.witness["n"] == -N


# ---------------------------------------------------------------------------
# heat-commutator constant q


def test_q_constant_and_witness(q_n8):
    assert q_n8.constant == pytest.approx(Q_HAT_N8, rel=1e-9)
    assert q_n8.witness["n"] == -1
    assert q_n8.witness["level"] == 7
    # the winning eps is the injected closed-form maximizer ln(8/7)
    assert q_n8.witness["eps"] == pytest.approx(math.log(8.0 / 7.0), rel=1e-12)
    assert q_n8.witness["reproduced"] is True
    assert q_n8.verdict == "pass"


def test_q_chain_inequality(q_n8, r_n8):
    assert q_n8.derived["chain_ok"] is True
    assert q_n8.derived["chain_bound"] == 3.0 * r_n8.constant
    assert q_n8.constant <= q_n8.derived["chain_bound"]


def test_q_table_holds_columns_not_a_row_dict_per_cell():
    c = Fraction(1, 2)
    rep = verma.truncated_rep(c, Fraction(0), 12, mode="float")
    r = estimate_r(c, 12, rep=rep)  # fills the rep's block norms first
    tracemalloc.start()
    try:
        q = estimate_q(c, 12, rep=rep, r_report=r)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a five-key dict per cell held 1141 KiB
    assert held < 512 * 1024
    rows = list(q.table)
    assert len(q.table) == len(rows) == 4910
    header = ["n", "eps", "value", "level", "injected"]  # q_grid.csv's
    assert {tuple(row) for row in rows} == {tuple(header)}
    assert {tuple(map(type, row.values())) for row in rows + [q.table[0], q.table[-1]]} \
        == {(int, float, float, int, bool)}
    assert rows[-1] == q.table[-1] and rows[0] == q.table[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_matrix_has_nan_norm(bad):
    mat = np.eye(3)
    mat[1, 2] = bad
    assert math.isnan(rational.opnorm(mat))


def test_q_factor_cells_respect_the_closed_form_sup(q_n8):
    assert not any("fm_sup" in w for w in q_n8.warnings)


def test_q_is_deterministic(ising8_float, r_n8):
    grid = parse_eps_grid("1e-3:10:40")
    a = estimate_q(Fraction(1, 2), 8, eps_grid=grid, rep=ising8_float,
                   r_report=r_n8)
    b = estimate_q(Fraction(1, 2), 8, eps_grid=grid, rep=ising8_float,
                   r_report=r_n8)
    assert a == b


def _counted_opnorms(monkeypatch) -> dict:
    """Count opnorm calls by the module that makes them: verma's are the
    block-norm memo's, bounds's the witness recomputes, smear's the heat
    identity's literal commutators."""
    calls = {"verma": 0, "bounds": 0, "smear": 0}

    def counter(name):
        def counted(mat, real=rational.opnorm):
            calls[name] += 1
            return real(mat)
        return counted

    for name, mod in (("verma", verma), ("bounds", bounds), ("smear", smear)):
        monkeypatch.setattr(mod, "opnorm", counter(name))
    return calls


def _witness_mode_blocks(rep, q) -> int:
    return sum(1 for m, _ in rep.blocks if m == q.witness["n"])


def test_r_q_and_the_heat_identity_take_each_block_norm_once(monkeypatch):
    calls = _counted_opnorms(monkeypatch)
    verma._module.cache_clear()
    rep = verma.truncated_rep(Fraction(1, 2), 0, 8, "float")
    r = estimate_r(Fraction(1, 2), 8, rep=rep)
    q = estimate_q(Fraction(1, 2), 8, rep=rep, r_report=r)
    for n in range(-8, 9):
        if n:
            heat_identity_residual(rep, n, 0.5)
    assert calls["verma"] == len(rep.blocks)
    # the r witness, then every block of the q witness's mode, afresh
    assert calls["bounds"] == 1 + _witness_mode_blocks(rep, q)
    # the literal commutator of every block with n != 0
    assert calls["smear"] == sum(1 for m, _ in rep.blocks if m != 0)


def test_a_sweep_over_n_takes_each_block_norm_once_per_point(monkeypatch):
    calls = _counted_opnorms(monkeypatch)
    verma._module.cache_clear()
    witnesses = 0
    for N in range(4, 13):
        rep = verma.truncated_rep(Fraction(1, 2), 0, N, "float")
        r = estimate_r(Fraction(1, 2), N, rep=rep)
        q = estimate_q(Fraction(1, 2), N, rep=rep, r_report=r)
        witnesses += 1 + _witness_mode_blocks(rep, q)
    assert calls["verma"] == len(verma.block_keys(12))
    assert calls["bounds"] == witnesses


def test_q_witness_check_does_not_reuse_the_sweep_norms(ising8_float, r_n8, q_n8,
                                                        monkeypatch):
    # the memoized norm of the witness block reads one part in 2^30 high
    n, level = q_n8.witness["n"], q_n8.witness["level"]
    blk, norm = ising8_float.norm_memo[n, level]
    assert blk is ising8_float.blocks[(n, level)] and norm is not None
    monkeypatch.setitem(ising8_float.norm_memo, (n, level), (blk, norm * (1 + 2.0 ** -30)))
    q = estimate_q(Fraction(1, 2), 8, rep=ising8_float, r_report=r_n8)
    assert (q.witness["n"], q.witness["level"]) == (n, level)
    assert q.witness["reproduced"] is False and q.verdict == "fail"


def test_a_replaced_block_takes_a_fresh_norm():
    verma._module.cache_clear()
    rep = verma.truncated_rep(Fraction(1, 2), 0, 8, "float")
    r = estimate_r(Fraction(1, 2), 8, rep=rep)
    key = (r.witness["n"], r.witness["k"])
    doubled = replace(rep, blocks={**rep.blocks, key: rep.blocks[key] * 2})
    assert doubled.norm_memo is rep.norm_memo
    assert estimate_r(Fraction(1, 2), 8, rep=doubled).constant == pytest.approx(4 * r.constant,
                                                                           rel=1e-14)
    # the memo still pairs the point's own block with its own norm
    assert rep.norm_memo[key][0] is rep.blocks[key]
    assert estimate_r(Fraction(1, 2), 8, rep=rep) == r


def test_q_grid_validation(ising8_float, r_n8):
    with pytest.raises(ValueError, match="nonempty and positive"):
        estimate_q(Fraction(1, 2), 8, eps_grid=[], rep=ising8_float, r_report=r_n8)
    with pytest.raises(ValueError, match="nonempty and positive"):
        estimate_q(Fraction(1, 2), 8, eps_grid=[0.5, -1.0], rep=ising8_float,
                   r_report=r_n8)


def test_q_needs_its_r_report(ising8_float):
    with pytest.raises(TypeError, match="r_report"):
        estimate_q(Fraction(1, 2), 8, rep=ising8_float)


def test_default_eps_grid(q_n8):
    grid = parse_eps_grid(DEFAULT_EPS_GRID)
    assert grid.size == 200
    assert grid[0] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(20.0)
    assert np.all(np.diff(np.log(grid)) > 0)
    assert np.array_equal(grid, np.logspace(math.log10(1e-4), math.log10(20.0), 200))
    # estimate_q's default grid is this one
    assert q_n8.parameters["eps_grid_size"] == 200


@pytest.mark.parametrize("spec, message", [
    ("1e-4:20", "must be lo:hi:count"),
    ("1e-4:20:x", "bad eps grid"),
    ("1:2:0", "is empty"),
    ("20:1e-4:5", "needs 0 < lo < hi"),
    ("0:1:5", "needs 0 < lo < hi"),
])
def test_bad_eps_grid_specs_are_named(spec, message):
    with pytest.raises(ValueError, match=message):
        parse_eps_grid(spec)


@pytest.mark.parametrize("spec", ["1e-4:20", "20:1e-4:5"])
def test_bounds_sweep_script_rejects_a_bad_eps_grid(tmp_path, spec):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_bounds_sweep.py"
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    done = subprocess.run([sys.executable, str(script), "--levels", "4:4",
                           "--eps-grid", spec, "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "error: " in done.stderr and repr(spec) in done.stderr
    assert not (tmp_path / "bounds_sweep.csv").exists()


@pytest.mark.parametrize("args, message", [
    (["--levels", "4:x"], "bad levels '4:x'"),
    (["--c", "1/0"], "bad --c '1/0'"),
    (["--levels", "6:4"], "levels '6:4' are empty"),
    (["--levels", "1:2"], "levels '1:2' go below 2"),
    # the point is checked as `vircut bounds` checks it
    (["--c", "0"], "central charge must be positive, got 0"),
    (["--h=-1/2"], "lowest weight must be nonnegative, got -1/2"),
])
def test_bounds_sweep_script_rejects_bad_arguments(tmp_path, args, message):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_bounds_sweep.py"
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    done = subprocess.run([sys.executable, str(script), *args,
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert f"error: {message}" in done.stderr
    assert not (tmp_path / "bounds_sweep.csv").exists()


def test_bounds_sweep_script_reports_a_non_unitary_point(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_bounds_sweep.py"
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    done = subprocess.run([sys.executable, str(script), "--c", "1/2", "--h", "1/3",
                           "--levels", "4:4", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: Gram matrix at level 2 is indefinite for "
                                  "c=1/2, h=1/3")
    assert not (tmp_path / "bounds_sweep.csv").exists()


# ---------------------------------------------------------------------------
# coefficient decay


def test_piecewise_decay_constant(piecewise):
    report = decay_report(piecewise, 400)
    assert report.constant == piecewise.decay_constant == 32.0 / (3.0 * math.pi)
    assert report.witness["n"] == 2
    assert 0 < report.derived["stabilization_ratio"] < 1


def test_piecewise_decay_is_stable_under_the_cutoff(piecewise):
    assert decay_report(piecewise, 200).constant == \
        decay_report(piecewise, 400).constant


def test_decay_validation(piecewise):
    with pytest.raises(ValueError, match="n_max must be >= 2"):
        decay_report(piecewise, 1)


# ---------------------------------------------------------------------------
# mollifier convergence


def test_cosine_mollifier_errors_are_exactly_two_over_k_plus_one():
    report = mollifier_report(cosine_field(1), FEJER, k_max=8,
                              ladder=[1, 2, 4, 8], tol=0.5)
    got = {row["k"]: row["error"] for row in report.table}
    assert got == pytest.approx({k: 2.0 / (k + 1) for k in (1, 2, 4, 8)},
                                rel=1e-15)
    assert report.derived["monotone"] is True
    assert report.verdict == "pass"


def test_piecewise_mollifier_ladder(piecewise):
    report = mollifier_report(piecewise, FEJER, k_max=1 << 14, tol=0.1)
    errors = [row["error"] for row in report.table]
    assert all(b <= a for a, b in zip(errors, errors[1:]))
    assert 0.01 < errors[-1] < 0.1  # scales like 1/sqrt(k)
    assert all(row["tail_bound"] > 0 for row in report.table)
    assert report.verdict == "pass"


@pytest.mark.parametrize("kwargs, match", [
    ({"k_max": 0}, "k_max must be >= 1, got 0"),
    ({"k_max": -3}, "k_max must be >= 1, got -3"),
    ({"ladder": []}, "at least one smoothing order"),
    ({"ladder": [-1, 4]}, "must be >= 0, got -1"),
])
@pytest.mark.parametrize("kind", ["piecewise", "cosine"])
def test_mollifier_rejects_bad_ladders(piecewise, kind, kwargs, match):
    field = piecewise if kind == "piecewise" else cosine_field(1)
    with pytest.raises(ValueError, match=match):
        mollifier_report(field, FEJER, **kwargs)


@pytest.mark.parametrize("ladder", [[0], [1], [0, 1]])
def test_piecewise_mollifier_needs_a_top_order_of_two(piecewise, ladder):
    with pytest.raises(ValueError, match=f"order >= 2, got {ladder[-1]}"):
        mollifier_report(piecewise, FEJER, ladder=ladder)


def test_cosine_mollifier_accepts_order_zero():
    report = mollifier_report(cosine_field(1), FEJER, ladder=[0], tol=2.5)
    assert report.table == [{"k": 0, "error": 2.0, "tail_bound": 0.0}]


def test_mollifier_script_rejects_k_max_zero(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "mollifier_curve.py"
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    done = subprocess.run([sys.executable, str(script), "--k-max", "0",
                           "--out", str(tmp_path)], capture_output=True,
                          text=True, env=env)
    assert done.returncode != 0
    assert "k_max must be >= 1, got 0" in done.stderr
    assert not (tmp_path / "mollifier_curve.csv").exists()


@pytest.mark.parametrize("args, message", [
    (["--samples", "0"], "--samples must be >= 1, got 0"),
    (["--cutoff", "0"], "--cutoff must be >= 1, got 0"),
])
def test_field_profile_script_rejects_empty_sizes(tmp_path, args, message):
    script = Path(__file__).resolve().parents[1] / "scripts" / "field_profile.py"
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    out = tmp_path / "profile"
    done = subprocess.run([sys.executable, str(script), *args, "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert message in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""
    assert not (out / "profile.csv").exists()


@pytest.mark.parametrize("pin", FIELD_PROFILE_CSV_PINS, ids=lambda pin: " ".join(pin["argv"]))
def test_field_profile_script_csv_bytes_are_pinned(pin, tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "field_profile.py"
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    done = subprocess.run([sys.executable, str(script), *pin["argv"],
                           "--out", str(tmp_path)], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in pin["sha256"]}
    assert got == pin["sha256"]


@pytest.mark.parametrize("pin", MOLLIFIER_CSV_PINS, ids=lambda pin: " ".join(pin["argv"]))
def test_mollifier_script_csv_bytes_are_pinned(pin, tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "mollifier_curve.py"
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    done = subprocess.run([sys.executable, str(script), *pin["argv"],
                           "--out", str(tmp_path)], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in pin["sha256"]}
    assert got == pin["sha256"]


@pytest.mark.parametrize("name, args", [
    ("run_bounds_sweep.py", ["--levels", "4:4"]),
    # k_max 0 and cutoff 0 are refused after --out is made; the --out error
    # comes first
    ("mollifier_curve.py", ["--k-max", "0"]),
    ("field_profile.py", ["--cutoff", "0"]),
])
def test_scripts_refuse_a_file_as_out_before_any_work(tmp_path, name, args):
    script = Path(__file__).resolve().parents[1] / "scripts" / name
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    taken = tmp_path / "taken"
    taken.write_text("")
    done = subprocess.run([sys.executable, str(script), *args, "--out", str(taken)],
                          capture_output=True, text=True, env=env)
    assert done.returncode != 0
    assert "FileExistsError" in done.stderr and "must be >= 1" not in done.stderr
    assert done.stdout == ""


def test_bounds_sweep_script_fails_on_an_ill_conditioned_rep(tmp_path):
    # the float quotient at (25/28, 15/28), N=12 misses the relation budget
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_bounds_sweep.py"
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    done = subprocess.run([sys.executable, str(script), "--c", "25/28", "--h", "15/28",
                           "--levels", "12:12", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 1
    assert "WARNING: verdicts r=pass q=pass; bracket relations" in done.stdout
    header, row = (tmp_path / "bounds_sweep.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["verdicts_ok"] == "False"


def test_bounds_sweep_refuses_a_rescaled_level(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_bounds_sweep.py"
    spec = importlib.util.spec_from_file_location("run_bounds_sweep", script)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    build = verma.truncated_rep

    def level_5_halved(c, h, N, mode):
        # a similarity: the relations hold and the adjointness breaks
        rep = build(c, h, N, mode=mode)
        return replace(rep, blocks={
            (n, k): blk * (2 if k == 5 else 1) / (2 if k - n == 5 else 1)
            for (n, k), blk in rep.blocks.items()})

    monkeypatch.setattr(verma, "truncated_rep", level_5_halved)
    row = sweep.sweep_level(Fraction(1, 2), Fraction(0), 8, parse_eps_grid(DEFAULT_EPS_GRID))
    assert row["verdicts_ok"] is False
    out = capsys.readouterr().out
    assert "WARNING: verdicts r=pass q=pass; bracket relations |m|,|n|<=3: max abs " in out
    assert "(tolerance 1e-10); adjointness L_-n = L_n^*: max abs " in out


def _ladder_bits(report):
    return [{"k": row["k"], "error": float.hex(row["error"]),
             "tail_bound": float.hex(row["tail_bound"])} for row in report.table]


def test_piecewise_mollifier_bits_are_pinned(piecewise):
    pin = GLUED_BITS["mollifier"]
    report = mollifier_report(piecewise, FEJER, k_max=pin["k_max"])
    assert _ladder_bits(report) == pin["rows"]


def test_the_full_criterion_ladder_to_2_26_is_pinned(piecewise):
    # the acceptance criterion's ladder: 32 chunks of 2^21, side by side in
    # 1024 steps of 512 rows
    pin = GLUED_BITS["mollifier_2_26"]
    assert pin["k_max"] == 1 << 26
    report = mollifier_report(piecewise, FEJER, k_max=pin["k_max"])
    assert _ladder_bits(report) == pin["rows"]


def _full_chunk_series(field, k_points, chunk):
    """The weight series with one cumsum per whole chunk, as it ran before
    the chunks were split into blocks."""
    k_points = sorted(set(int(k) for k in k_points))
    n_max = k_points[-1]
    cum_v = 0.0
    cum_w = 0.0
    out = {}
    targets = iter(k_points)
    target = next(targets)
    lo = 2
    while lo <= n_max:
        hi = min(lo + chunk - 1, n_max)
        while target is not None and target < lo:
            out[target] = (cum_v, cum_w)
            target = next(targets, None)
        sel = np.arange(lo + (2 - lo) % 4, hi + 1, 4, dtype=np.float64)
        if sel.size:
            w = 2.0 * PiecewiseMobiusField.closed_kernel(sel) * (1.0 + sel ** 1.5)
            v = sel * w
            cw = np.cumsum(w)
            cv = np.cumsum(v)
            while target is not None and lo <= target <= hi:
                idx = int(np.searchsorted(sel, target + 0.5)) - 1
                out[target] = (cum_v + (cv[idx] if idx >= 0 else 0.0),
                               cum_w + (cw[idx] if idx >= 0 else 0.0))
                target = next(targets, None)
            cum_v += float(cv[-1])
            cum_w += float(cw[-1])
        else:
            while target is not None and lo <= target <= hi:
                out[target] = (cum_v, cum_w)
                target = next(targets, None)
        lo = hi + 1
    for k in k_points:
        if k not in out:
            out[k] = (cum_v, cum_w)
    return out, cum_v, cum_w


@pytest.mark.parametrize("pin", GLUED_BITS["mollifier_one_chunk"],
                         ids=lambda pin: str(pin["k_max"]))
def test_one_chunk_ladders_keep_their_bits(piecewise, pin):
    # up to 2^21 the series is one chunk, one column of the block beside an
    # empty partner: numpy would sum a lone column pairwise
    ladder = [row["k"] for row in pin["rows"]]
    assert (_weight_series_chunks(ladder)
            == _full_chunk_series(piecewise, ladder, 1 << 21))
    report = mollifier_report(piecewise, FEJER, k_max=pin["k_max"])
    assert _ladder_bits(report) == pin["rows"]


# Chunk boundaries: at chunk size s the chunks start at lo = 2 + s i and end
# at hi = lo + s - 1, so 2, 6, 7, 12, 66, 130, 1026 open a chunk at some size
# below and 5, 6, 11, 65, 129, 1025, 2049 close one.
CARRY_LADDER = [1, 2, 5, 6, 7, 11, 12, 65, 66, 129, 130, 1025, 1026, 2049, 3001]

# SPAN = 2^17 integers hold 2^15 modes.  Within 6 of these multiples of it
# lie, at the chunk sizes near SPAN below, a chunk's first and last mode
# and targets between two chunks, before the next chunk's first mode.
SPAN = 1 << 17
BLOCK_LADDER = [edge + d for edge in (SPAN, 2 * SPAN, 3 * SPAN, 16 * SPAN, 17 * SPAN)
                for d in range(-6, 7)]


def _step_edges(n_max, chunk):
    """Targets within 6 of the first mode of a row step of the series to
    n_max: steps 1, 2 and the last, in the first, a middle and the last
    chunk.  A step holds max(1, _BLOCK // columns) rows of every chunk, and
    a lone chunk has an empty partner column."""
    chunks = -(-(n_max - 1) // chunk)
    rows = max(1, _BLOCK // max(2, chunks))
    out = set()
    for j in (0, chunks // 2, chunks - 1):
        lo = 2 + j * chunk
        hi = min(lo + chunk - 1, n_max)
        start = lo + (2 - lo) % 4
        for s in {1, 2, (hi - start) // (4 * rows)}:
            edge = start + 4 * rows * s
            out.update(k for k in range(edge - 6, edge + 7) if lo <= k <= hi)
    return out


@pytest.mark.parametrize("chunk", [4, 5, 64, 1024, SPAN - 4, SPAN, SPAN + 4,
                                   3 * SPAN + 8, 1 << 21])
def test_weight_series_carries_across_chunks(piecewise, chunk):
    # a chunk of a few modes costs a Python loop step, so only chunks of a
    # thousand integers and more walk the block ladder past 2^21
    ladder = CARRY_LADDER + (BLOCK_LADDER if chunk >= 1024 else [])
    if chunk in (1024, 1 << 21):
        # 2177 columns of 7 rows a step, and 2 columns of 8192
        ladder = sorted(set(ladder) | _step_edges(ladder[-1], chunk))
    want, want_v, want_w = _full_chunk_series(piecewise, ladder, chunk)
    got, got_v, got_w = _weight_series_chunks(ladder, chunk=chunk)
    assert sorted(got) == ladder
    assert got == want
    assert (got_v, got_w) == (want_v, want_w)


def test_fill_weights_matches_the_closed_form_bit_for_bit():
    # every mode n = 2 mod 4 up to 2^26, in slices shaped as the series'
    # (2, rows, chunks) steps: a one-ulp change to a single term can round
    # away in the ladder's sums, so the terms are compared one by one
    rows, cols = 1 << 12, 32
    n = np.empty((rows, cols))
    u = np.empty_like(n)
    block = np.empty((2, rows, cols))
    step = 4 * rows * cols
    for first in range(2, 1 << 26, step):
        n[...] = np.arange(first, first + step, 4, dtype=np.float64).reshape(rows, cols)
        _fill_weights(n, u, block)
        w = 2.0 * PiecewiseMobiusField.closed_kernel(n) * (1.0 + n ** 1.5)
        assert np.array_equal(block[1].view(np.int64), w.view(np.int64))
        assert np.array_equal(block[0].view(np.int64), (n * w).view(np.int64))
    assert n[-1, -1] == (1 << 26) - 2


def test_weight_series_memory_stays_flat(piecewise):
    # a step holds at most _BLOCK modes across all chunks, so the 32 chunks
    # of 2^26 take no more than the 4 of 2^23 (5% for the Python bookkeeping
    # of three more targets), and 1024 chunks of 2^12 stay under 2 MB
    def peak(k_max, chunk=1 << 21):
        ladder = [1 << j for j in range(k_max.bit_length())]
        tracemalloc.start()
        try:
            _weight_series_chunks(ladder, chunk=chunk)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(1 << 26) <= 1.05 * peak(1 << 23)
    assert peak(1 << 22, chunk=1 << 12) < 2e6


def test_report_csv_round_trip(tmp_path, piecewise):
    report = decay_report(piecewise, 10)
    path = tmp_path / "decay.csv"
    write_rows_csv(path, list(report.table[0]), report.table)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,abs_coefficient,scaled"
    assert len(lines) == 1 + len(report.table)
