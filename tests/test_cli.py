"""Command-line interface: exit codes, reports, determinism, fault hook."""

import dataclasses
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vircut import acceptance, cli, store, verma
from vircut.cli import encode, main
from vircut.rational import CFrac

FAULT = ("--inject-fault", "central-denominator-13")


def run(*argv):
    return main([str(a) for a in argv])


def read_report(out, name):
    with open(out / name) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# rep


def test_rep_exact(tmp_path, capsys):
    assert run("rep", "--c", "1/2", "--N", "4", "--out", tmp_path) == 0
    report = read_report(tmp_path, "rep_report.json")
    assert report["meta"]["command"] == "rep"
    assert report["result"]["level_dims"] == [1, 0, 1, 1, 2]
    assert report["result"]["relations"]["exact_zero"] is True
    assert report["result"]["admissible_central_charge"] is True
    rows = (tmp_path / "level_dims.csv").read_text().strip().splitlines()
    assert rows[0] == "level,dimension"
    assert len(rows) == 6
    assert "PASS" in capsys.readouterr().out


def test_rep_uses_the_cache_on_the_second_run(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ("rep", "--c", "1/2", "--N", "4", "--out", tmp_path / "o1",
            "--cache", cache)
    assert run(*argv) == 0
    assert "(built)" in capsys.readouterr().out
    assert run("rep", "--c", "1/2", "--N", "4", "--out", tmp_path / "o2",
               "--cache", cache) == 0
    assert "(cache)" in capsys.readouterr().out


def test_rep_float_mode(tmp_path):
    assert run("rep", "--c", "1/2", "--N", "4", "--mode", "float",
               "--out", tmp_path) == 0
    report = read_report(tmp_path, "rep_report.json")
    # floats are serialized as repr strings for bit-stable reports
    assert float(report["result"]["relations"]["max_abs"]) <= 1e-10


def test_numpy_floats_are_written_as_plain_reprs(tmp_path):
    assert run("rep", "--c", "1/2", "--N", "4", "--mode", "float",
               "--out", tmp_path) == 0
    measured = read_report(tmp_path, "rep_report.json")["result"]["measured_central_charge"]
    assert float(measured) == 0.5
    assert encode(np.float64(0.1)) == "0.1"


@pytest.mark.parametrize("value", [np.complex128(1.5 - 2j), CFrac(1, 2), np.int64(3),
                                   np.arange(2), {1, 2}, object()])
def test_encode_refuses_what_reports_do_not_hold(value):
    with pytest.raises(TypeError, match="reports cannot hold"):
        encode({"result": [value]})


def test_rep_rejects_non_unitary_weights(tmp_path):
    assert run("rep", "--c", "1/2", "--h", "1/3", "--N", "4",
               "--out", tmp_path) == 1


@pytest.mark.parametrize("argv", [
    ("rep", "--mode", "float", "--N", "6", "--c", "1e160"),  # eigh fails to converge
    ("bounds", "--N", "6", "--c", "1e160"),
    ("rep", "--mode", "float", "--N", "4", "--c", "1e400"),  # c itself is not a float64
    ("bounds", "--N", "4", "--c", "1e300"),  # level 4 used to read as null
], ids=["rep-eigh", "bounds-eigh", "rep-c", "bounds-dims"])
def test_float_overflow_is_refused(argv, tmp_path, capsys):
    assert run(*argv, "--out", tmp_path) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: float mode overflows float64")
    assert not any(tmp_path.glob("*_report.json"))


def test_exact_mode_is_not_limited_by_float64(tmp_path):
    assert run("rep", "--c", "1e300", "--N", "4", "--out", tmp_path) == 0
    result = read_report(tmp_path, "rep_report.json")["result"]
    assert result["level_dims"] == [1, 0, 1, 1, 2]
    assert result["relations"]["exact_zero"] is True


def test_rep_rejects_too_small_truncation(tmp_path):
    assert run("rep", "--N", "1", "--out", tmp_path) == 2


def test_rep_rejects_unknown_mode(tmp_path):
    assert run("rep", "--mode", "interval", "--out", tmp_path) == 2


# ---------------------------------------------------------------------------
# fault injection


def test_fault_breaks_relations_where_the_gram_stays_positive(tmp_path):
    # c = 2 is built at 12c/13 = 24/13 > 1, so the Gram stays positive,
    # but labelled c = 2; the relation checker reads c from the label.
    code = run("rep", "--c", "2", "--mode", "float", "--N", "5", *FAULT,
               "--out", tmp_path)
    assert code == 1
    report = read_report(tmp_path, "rep_report.json")
    assert float(report["result"]["relations"]["max_abs"]) > 1e-3


def test_fault_turns_the_ising_gram_indefinite(tmp_path):
    assert run("rep", "--c", "1/2", "--N", "5", *FAULT, "--out", tmp_path) == 1


@pytest.mark.parametrize("argv", [
    ("smear", "--mode", "float", "--field", "mode:2"),
    ("rep", "--mode", "float"),
    ("rep", "--mode", "exact"),
], ids=" ".join)
def test_faulted_indefinite_build_names_the_requested_c_and_the_fault(tmp_path, capsys,
                                                                       argv):
    # built at 12c/13 = 6/13, below the unitary range at level 6; the error
    # must not read as if c = 1/2 itself were refused
    code = run(*argv, "--c", "1/2", "--h", "0", "--N", "6", *FAULT, "--out", tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "indefinite for c=6/13" in err
    assert ("built at c=6/13 = 12c/13 for the requested c=1/2 "
            "by --inject-fault central-denominator-13") in err
    assert list(tmp_path.iterdir()) == []


def test_faulted_build_keeps_the_error_class(tmp_path):
    cfg = cli.RunConfig(c=Fraction(1, 2), N=6, mode="float",
                        inject_fault="central-denominator-13")
    with pytest.raises(verma.NonUnitaryError, match="requested c=1/2") as info:
        cli._build_rep(cfg)
    assert isinstance(info.value.__cause__, verma.NonUnitaryError)
    assert type(info.value) is type(info.value.__cause__)


def test_clean_run_after_fault(tmp_path):
    run("rep", "--c", "2", "--mode", "float", "--N", "4", *FAULT,
        "--out", tmp_path / "bad")
    assert run("rep", "--c", "2", "--mode", "float", "--N", "4",
               "--out", tmp_path / "good") == 0


def test_faulted_run_does_not_poison_the_cache(tmp_path):
    argv = ("rep", "--c", "2", "--mode", "float", "--N", "4",
            "--cache", tmp_path / "cache")
    assert run(*argv, *FAULT, "--out", tmp_path / "bad") == 1
    assert run(*argv, "--out", tmp_path / "good") == 0


def test_warm_cache_does_not_hide_the_fault(tmp_path):
    argv = ("rep", "--c", "2", "--mode", "float", "--N", "4",
            "--cache", tmp_path / "cache")
    assert run(*argv, "--out", tmp_path / "good") == 0
    assert run(*argv, *FAULT, "--out", tmp_path / "bad") == 1


def test_fault_flag_only_where_a_rep_is_built(tmp_path):
    assert run("field", "mode:2", *FAULT, "--out", tmp_path) == 2
    assert run("check-all", *FAULT, "--out", tmp_path) == 2


def test_report_config_records_the_fault(tmp_path):
    argv = ("rep", "--c", "2", "--mode", "float", "--N", "5")
    assert run(*argv, *FAULT, "--out", tmp_path / "bad") == 1
    config = read_report(tmp_path / "bad", "rep_report.json")["config"]
    assert config["inject_fault"] == "central-denominator-13"
    assert run(*argv, "--out", tmp_path / "good") == 0
    assert read_report(tmp_path / "good", "rep_report.json")["config"]["inject_fault"] == "none"
    assert run("field", "mode:2", "--out", tmp_path / "field") == 0
    assert "inject_fault" not in read_report(tmp_path / "field", "field_report.json")["config"]


def test_faulted_bounds_fail_and_name_the_residual(tmp_path, capsys):
    assert run("bounds", "--c", "2", "--N", "6", *FAULT, "--out", tmp_path) == 1
    out = capsys.readouterr().out
    # the label's central term exceeds the built one by (2 - 24/13) (27 - 3)/12 = 4/13
    assert "bracket relations |m|,|n|<=3: max abs 3.077e-01 (tolerance 1e-10)\nFAIL" in out
    assert read_report(tmp_path, "bounds_report.json")["result"]["ok"] is False


def test_faulted_float_smear_fails_and_names_the_residual(tmp_path, capsys):
    assert run("smear", "--field", "piecewise-mobius", "--c", "2", "--h", "1", "--N", "6",
               "--mode", "float", *FAULT, "--out", tmp_path) == 1
    assert "max abs 3.077e-01 (tolerance 1e-10)\nFAIL" in capsys.readouterr().out
    assert read_report(tmp_path, "smear_report.json")["result"]["ok"] is False


@pytest.mark.parametrize("h", ["1", "0"])
def test_faulted_exact_smear_reads_the_wrong_central_charge(tmp_path, capsys, h):
    # mode:2 is not real, so no hermiticity check runs; at h = 0 the vacuum
    # norm compares two zeros; only the central charge sees the fault
    argv = ("smear", "--field", "mode:2", "--c", "2", "--h", h, "--N", "6")
    assert run(*argv, *FAULT, "--out", tmp_path / "bad") == 1
    assert "central charge read from the rep: 24/13, label 2\nFAIL" in capsys.readouterr().out
    assert read_report(tmp_path / "bad", "smear_report.json")["result"]["ok"] is False
    assert run(*argv, "--out", tmp_path / "good") == 0
    assert "central charge" not in capsys.readouterr().out


def test_inject_fault_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("inject_fault = central-denominator-13\n")
    assert run("rep", "--config", cfg, "--out", tmp_path) == 2
    assert "unknown config key 'inject_fault'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep defaults\nc = 7/10\nN = 4\n")
    assert run("rep", "--config", cfg, "--out", tmp_path) == 0
    report = read_report(tmp_path, "rep_report.json")
    assert report["config"]["c"] == "7/10"
    assert report["config"]["N"] == 4


def test_flags_override_the_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("N = 4\n")
    assert run("rep", "--config", cfg, "--N", "5", "--out", tmp_path) == 0
    assert read_report(tmp_path, "rep_report.json")["config"]["N"] == 5


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("levels = 4\n")
    assert run("rep", "--config", cfg, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "run.cfg:1: unknown config key 'levels'" in err


def test_seed_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n")
    assert run("rep", "--config", cfg, "--out", tmp_path) == 2
    assert "run.cfg:1: unknown config key 'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("text, argv", [
    ("cutoff = 0\n", ("rep", "--N", "4")),
    ("eps_grid = 5:1:10\n", ("field", "mode:2")),
])
def test_keys_a_command_does_not_read_are_ignored(tmp_path, text, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run(*argv, "--config", cfg, "--out", tmp_path) == 0


def test_keys_a_command_reads_are_validated(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cutoff = 0\n")
    assert run("field", "piecewise-mobius", "--config", cfg, "--out", tmp_path) == 2
    assert "cutoff must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("c = 1/0\n", "bad rational parameter"),
    ("h = x\n", "bad rational parameter"),
    ("N = 3.5\n", "bad integer parameter"),
    ("N = 3.5\nc = 1/0\n", "bad rational parameter"),  # rationals are parsed first
])
def test_bad_values_name_their_kind(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run("rep", "--config", cfg, "--out", tmp_path) == 2
    assert message in capsys.readouterr().err


def test_one_settings_table_covers_every_key():
    settings = set(cli._SETTINGS)
    assert settings == {f.name for f in dataclasses.fields(cli.RunConfig)}
    assert set(cli._CONFIG_KEYS) == settings - {"inject_fault"}
    assert set(cli._FLAGS) == settings | {"config"}
    assert set().union(*cli.READS.values()) | {"out"} == settings


def test_missing_config_file(tmp_path):
    assert run("rep", "--config", tmp_path / "nope.cfg", "--out", tmp_path) == 2


def test_empty_eps_grid(tmp_path):
    assert run("bounds", "--eps-grid", "1:2:0", "--out", tmp_path) == 2


def test_backwards_eps_grid(tmp_path):
    assert run("bounds", "--eps-grid", "5:1:10", "--out", tmp_path) == 2


# ---------------------------------------------------------------------------
# field


def test_field_piecewise(tmp_path):
    assert run("field", "piecewise-mobius", "--cutoff", "50",
               "--out", tmp_path) == 0
    report = read_report(tmp_path, "field_report.json")
    corners = {c["corner"]: c for c in report["result"]["corners"]}
    assert corners["1"]["value_left"] == "0"
    assert corners["1"]["d2_jump"] == "4"
    assert report["result"]["decay"]["witness"]["n"] == 2
    lines = (tmp_path / "field_coefficients.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 13  # n = 2 mod 4 with |n| <= 50, both signs


def test_field_single_mode(tmp_path):
    assert run("field", "mode:3", "--out", tmp_path) == 0
    report = read_report(tmp_path, "field_report.json")
    assert report["result"]["support"] == [3]
    assert report["result"]["real"] is False


def test_field_csv_round_trip(tmp_path):
    csv_path = tmp_path / "f.csv"
    csv_path.write_text("n,re,im\n2,1/2,0\n-2,1/2,0\n")
    assert run("field", csv_path, "--out", tmp_path) == 0
    report = read_report(tmp_path, "field_report.json")
    assert report["result"]["support"] == [-2, 2]
    assert report["result"]["real"] is True


def test_field_csv_reality_violation(tmp_path, capsys):
    csv_path = tmp_path / "f.csv"
    csv_path.write_text("2,1/2,0\n-2,1/3,0\n")
    assert run("field", csv_path, "--out", tmp_path) == 2
    assert "reality violated at modes [-2, 2]" in capsys.readouterr().err


def test_field_csv_short_row(tmp_path, capsys):
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("n,re,im\n2,1/2\n")
    assert run("field", csv_path, "--out", tmp_path) == 2
    assert "short.csv:2: expected n,re,im" in capsys.readouterr().err


def test_field_csv_bad_number(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("2,one half,0\n")
    assert run("field", csv_path, "--out", tmp_path) == 2
    assert "bad.csv:1:" in capsys.readouterr().err


def test_field_csv_duplicate_mode(tmp_path, capsys):
    csv_path = tmp_path / "dup.csv"
    csv_path.write_text("2,1/2,0\n2,1/3,0\n")
    assert run("field", csv_path, "--out", tmp_path) == 2
    assert "duplicate mode 2" in capsys.readouterr().err


def test_field_unknown_spec(tmp_path):
    assert run("field", "wavelet:3", "--out", tmp_path) == 2


def test_field_rejects_a_zero_cutoff(tmp_path, capsys):
    assert run("field", "--cutoff", "0", "piecewise-mobius", "--out", tmp_path) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: cutoff must be at least 1, got 0"]


def test_field_mode_zero_default_cutoff(tmp_path):
    assert run("field", "mode:0", "--out", tmp_path) == 0
    report = read_report(tmp_path, "field_report.json")
    assert report["result"]["cutoff"] == 1
    assert report["result"]["norm"]["partial_sum"] == repr(1.0)


# ---------------------------------------------------------------------------
# smear


def test_smear_exact_field_on_exact_rep(tmp_path):
    csv_path = tmp_path / "cos2.csv"
    csv_path.write_text("2,1/2,0\n-2,1/2,0\n")
    assert run("smear", "--field", csv_path, "--c", "1/2", "--N", "4",
               "--out", tmp_path) == 0
    report = read_report(tmp_path, "smear_report.json")
    vac = report["result"]["vacuum_norm"]
    assert vac["closed"] == vac["matrix"] == "1/16"
    assert report["result"]["hermiticity"]["exact_zero"] is True


def test_exact_smear_reads_the_cache_rep_wrote(tmp_path):
    point = ("--c", "7/10", "--h", "3/5", "--N", "9", "--cache", tmp_path / "cache")
    assert run("rep", *point, "--out", tmp_path / "rep") == 0
    real = tmp_path / "real.csv"
    real.write_text("n,re,im\n0,1/3,0\n2,1/2,-1/5\n-2,1/2,1/5\n")
    for name, field in (("mode-2", "mode:2"), ("real", real)):
        assert run("smear", "--field", field, *point, "--out", tmp_path / name) == 0
        result = read_report(tmp_path / name, "smear_report.json")["result"]
        assert result["rep_source"] == "cache" and result["ok"] is True


def test_smear_piecewise_needs_float_rep(tmp_path, capsys):
    assert run("smear", "--c", "1/2", "--N", "4", "--out", tmp_path) == 2
    assert "exact representation needs an exact field" in capsys.readouterr().err


def test_bare_smear_names_the_fix(tmp_path, capsys):
    # the default field has coefficients a/pi and the default mode is exact
    assert run("smear", "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "piecewise-mobius is not one" in err
    assert "mode:n or a CSV of p/q entries" in err and "--mode float" in err
    assert not (tmp_path / "smear_report.json").exists()


def test_smear_exact_mode_refuses_a_decimal_csv(tmp_path, capsys):
    path = tmp_path / "decimal.csv"
    path.write_text("n,re,im\n2,0.25,-0.1\n-2,0.25,0.1\n")
    assert run("smear", "--field", path, "--c", "1/2", "--N", "4",
               "--out", tmp_path / "out") == 2
    assert f"{path} is not one" in capsys.readouterr().err


def test_smear_piecewise_on_float_rep(tmp_path):
    assert run("smear", "--c", "1/2", "--N", "4", "--mode", "float",
               "--out", tmp_path) == 0
    report = read_report(tmp_path, "smear_report.json")
    assert report["result"]["bias_warnings"]  # infinite support, finite cutoff
    assert report["result"]["vacuum_norm"]["ok"] is True


def test_smear_rejects_a_zero_cutoff(tmp_path, capsys):
    assert run("smear", "--field", "mode:2", "--cutoff", "0", "--N", "4",
               "--out", tmp_path) == 2
    assert "cutoff must be at least 1" in capsys.readouterr().err


def test_smear_non_real_field_skips_hermiticity(tmp_path):
    assert run("smear", "--field", "mode:2", "--c", "1/2", "--N", "4",
               "--out", tmp_path) == 0
    report = read_report(tmp_path, "smear_report.json")
    assert report["result"]["hermiticity"] is None
    assert report["result"]["hermiticity_ok"] is True


# ---------------------------------------------------------------------------
# the rep gate on a mutated cache

# (c, h, N) of each mode's mutated cache
MUTATED = {"float": ("1/2", "0", 8), "exact": ("7/10", "3/5", 9)}


def _rescaled(rep):
    """rep with the level-5 basis halved: blocks out of level 5 times 2,
    into it divided by 2, exact in both arithmetics.  A similarity keeps
    every bracket relation and breaks only the adjointness L_-n = L_n^*."""
    return dataclasses.replace(rep, blocks={
        (n, k): blk * (2 if k == 5 else 1) / (2 if k - n == 5 else 1)
        for (n, k), blk in rep.blocks.items()})


def _dropped(rep):
    """rep with the last state of level 8 dropped from every block (and
    from the exact norms).  The compressed rep stays hermitian with
    L_0 = h + k; only the bracket relations break."""
    def cut(k):
        return slice(None, -1 if k == 8 else None)
    return dataclasses.replace(
        rep, level_dims=tuple(d - (k == 8) for k, d in enumerate(rep.level_dims)),
        blocks={(n, k): blk[cut(k - n), cut(k)] for (n, k), blk in rep.blocks.items()},
        basis_norms=rep.basis_norms and tuple(d[cut(k)] for k, d in enumerate(rep.basis_norms)))


def _mutated_cache(cache, mode, mutate):
    """A digest-valid cache of mutate(rep) at MUTATED[mode]; returns the
    flags of its point."""
    c, h, N = MUTATED[mode]
    rep = verma.truncated_rep(Fraction(c), Fraction(h), N, mode=mode)
    store.save_rep(cache, mutate(rep), c=Fraction(c), h=Fraction(h))
    return ("--c", c, "--h", h, "--N", N, "--mode", mode, "--cache", cache)


def _argv(command, point):
    """argv of command at point; bounds builds in float mode and takes no
    --mode."""
    if command[0] == "bounds":
        i = point.index("--mode")
        point = point[:i] + point[i + 2:]
    return (*command, *point)


def test_float_smear_refuses_a_rescaled_level(tmp_path, capsys):
    point = _mutated_cache(tmp_path / "cache", "float", _rescaled)
    # mode:-3 is not real, so no hermiticity check runs; only the gate sees it
    assert run("smear", "--field", "mode:-3", *point, "--out", tmp_path) == 1
    out = capsys.readouterr().out
    assert "\nadjointness L_-n = L_n^*: max abs " in out and out.endswith("\nFAIL\n")
    result = read_report(tmp_path, "smear_report.json")["result"]
    assert result["rep_source"] == "cache" and result["ok"] is False


def _old_format_norms_four_cache(cache):
    """The float rescaled cache in the format of earlier versions, which
    wrote a "norms:k" row per level before the blocks, with level 5's row
    at 4.0 and the digest restamped.  Read as norms squared, those rows
    would make the halved basis orthogonal and the weighted adjointness
    hold.  Returns the flags of its point."""
    point = _mutated_cache(cache, "float", _rescaled)
    c, h, N = MUTATED["float"]
    path = store.rep_cache_path(cache, c, h, N, "float")
    lines = path.read_text().splitlines(keepends=True)[:-1]
    dims = next(ln for ln in lines if ln.startswith("dims ")).split()[1:]
    first_block = next(i for i, ln in enumerate(lines) if ln.startswith("matrix block:"))
    norms = []
    for k, dim in enumerate(map(int, dims)):
        entry = (4.0 if k == 5 else 1.0).hex()
        norms += [f"matrix norms:{k} 1 {dim}\n", " ".join([entry] * dim) + "\n"]
    body = "".join(lines[:first_block] + norms + lines[first_block:])
    path.write_text(body + f"digest {hashlib.sha256(body.encode()).hexdigest()}\n")
    assert "matrix norms:5 1 2\n0x1.0000000000000p+2 0x1.0000000000000p+2\n" in body
    return point


@pytest.mark.parametrize("command", [("bounds",), ("rep",), ("smear", "--field", "mode:2")],
                         ids=["bounds", "rep", "smear"])
def test_a_float_cache_with_norms_other_than_one_exits_one(tmp_path, capsys, command):
    # a float file's norms rows go unread, so the gate sees the rescaled blocks
    point = _old_format_norms_four_cache(tmp_path / "cache")
    capsys.readouterr()
    assert run(*_argv(command, point), "--out", tmp_path / "out") == 1
    out = capsys.readouterr().out
    assert out.endswith("\nadjointness L_-n = L_n^*: max abs 8.436e+00 (tolerance 1e-10)\nFAIL\n")
    # bounds now writes its failing report
    result = read_report(tmp_path / "out", f"{command[0]}_report.json")["result"]
    assert result["relations_ok" if command[0] == "rep" else "ok"] is False


def test_exact_smear_refuses_a_rescaled_level(tmp_path, capsys):
    point = _mutated_cache(tmp_path / "cache", "exact", _rescaled)
    assert run("smear", "--field", "mode:2", *point, "--out", tmp_path) == 1
    out = capsys.readouterr().out
    assert "\nadjointness L_-n = L_n^*: nonzero, max " in out and out.endswith("\nFAIL\n")
    assert read_report(tmp_path, "smear_report.json")["result"]["ok"] is False


@pytest.mark.parametrize("mode", sorted(MUTATED))
def test_rep_refuses_a_rescaled_level(tmp_path, capsys, mode):
    point = _mutated_cache(tmp_path / "cache", mode, _rescaled)
    assert run("rep", *point, "--out", tmp_path) == 1
    out = capsys.readouterr().out
    # the relations hold; the adjointness line follows theirs
    relations = "exact zero" if mode == "exact" else "max abs "
    assert f"\nbracket relations |m|,|n|<=3: {relations}" in out
    assert "\nadjointness L_-n = L_n^*: " in out and out.endswith("\nFAIL\n")
    assert read_report(tmp_path, "rep_report.json")["result"]["relations_ok"] is False


@pytest.mark.parametrize("mode, command, relations", [
    ("exact", ("rep",), "nonzero rational, max 2.784e+01"),
    ("float", ("rep",), "max abs 4.445e+01 (tolerance 1e-10)"),
    ("float", ("smear", "--field", "mode:2"), "max abs 4.445e+01 (tolerance 1e-10)"),
    ("float", ("bounds",), "max abs 4.445e+01 (tolerance 1e-10)"),
], ids=["exact-rep", "float-rep", "float-smear", "float-bounds"])
def test_a_dropped_state_fails_the_relation_sweep(tmp_path, capsys, mode, command, relations):
    # exact smear does not run the relation sweep, so it passes this cache
    point = _mutated_cache(tmp_path / "cache", mode, _dropped)
    assert run(*_argv(command, point), "--out", tmp_path) == 1
    out = capsys.readouterr().out
    assert f"\nbracket relations |m|,|n|<=3: {relations}\nFAIL\n" in out


# ---------------------------------------------------------------------------
# bounds


def test_bounds_small_run(tmp_path):
    assert run("bounds", "--c", "1/2", "--N", "4",
               "--eps-grid", "1e-3:10:40", "--out", tmp_path) == 0
    report = read_report(tmp_path, "bounds_report.json")
    result = report["result"]
    assert result["r"]["verdict"] == "pass"
    assert result["q"]["verdict"] == "pass"
    assert result["chain"]["ok"] is True
    assert result["fm_violations"] == 0
    for name in ("r_cells.csv", "q_grid.csv", "fm_table.csv"):
        assert (tmp_path / name).exists()


CSV_PINS = json.loads((Path(__file__).parent / "data" / "bounds_csv_sha256.json").read_text())


@pytest.mark.parametrize("pin", CSV_PINS, ids=lambda pin: " ".join(pin["argv"]) or "default")
def test_bounds_csv_bytes_are_pinned(pin, tmp_path):
    assert run("bounds", *pin["argv"], "--out", tmp_path) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in pin["sha256"]}
    assert got == pin["sha256"]


def test_bounds_fail_where_the_float_quotient_is_ill_conditioned(tmp_path, capsys):
    # at (25/28, 15/28), N=12 the float rep misses the relation budget
    assert run("bounds", "--c", "25/28", "--h", "15/28", "--N", "12", "--out", tmp_path) == 1
    assert "(tolerance 1e-10)\nFAIL" in capsys.readouterr().out


def test_bounds_reports_are_deterministic(tmp_path):
    argv = ("bounds", "--c", "1/2", "--N", "4",
            "--eps-grid", "1e-3:10:40")
    assert run(*argv, "--out", tmp_path / "a") == 0
    assert run(*argv, "--out", tmp_path / "b") == 0
    a = read_report(tmp_path / "a", "bounds_report.json")
    b = read_report(tmp_path / "b", "bounds_report.json")
    assert a["result"] == b["result"]
    assert {k: v for k, v in a["config"].items() if k != "out"} == \
        {k: v for k, v in b["config"].items() if k != "out"}
    assert (tmp_path / "a" / "q_grid.csv").read_bytes() == \
        (tmp_path / "b" / "q_grid.csv").read_bytes()


def test_bounds_uses_the_cache(tmp_path, monkeypatch):
    argv = ("bounds", "--c", "1/2", "--N", "4", "--eps-grid", "1e-3:10:40",
            "--cache", tmp_path / "cache")
    assert run(*argv, "--out", tmp_path / "a") == 0
    assert (tmp_path / "cache" / "rep_c1_2_h0_N4_float_quotient.txt").is_file()

    def no_build(*args, **kwargs):
        raise AssertionError("the second run must load the cached rep")

    monkeypatch.setattr(store, "truncated_rep", no_build)
    assert run(*argv, "--out", tmp_path / "b") == 0
    assert read_report(tmp_path / "a", "bounds_report.json")["result"] == \
        read_report(tmp_path / "b", "bounds_report.json")["result"]


def test_a_nan_in_a_float_cache_exits_one(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ("bounds", "--c", "1/2", "--N", "4", "--eps-grid", "1e-3:10:40",
            "--cache", cache, "--out", tmp_path / "out")
    assert run(*argv) == 0
    path = store.rep_cache_path(cache, "1/2", "0", 4, "float")
    lines = path.read_text().splitlines(keepends=True)[:-1]
    row = 1 + next(i for i, ln in enumerate(lines) if ln.startswith("matrix block:"))
    lines[row] = " ".join(["nan", *lines[row].split()[1:]]) + "\n"
    body = "".join(lines)
    path.write_text(body + f"digest {hashlib.sha256(body.encode()).hexdigest()}\n")
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "invalid literal 'nan'" in err


def test_faulted_bounds_are_the_bounds_at_twelve_thirteenths_c(tmp_path):
    argv = ("bounds", "--N", "4", "--eps-grid", "1e-3:10:40")
    run(*argv, "--c", "2", *FAULT, "--out", tmp_path / "fault")
    run(*argv, "--c", "24/13", "--out", tmp_path / "scaled")
    run(*argv, "--c", "2", "--out", tmp_path / "healthy")

    def q_hat(out):
        return read_report(out, "bounds_report.json")["result"]["q"]["constant"]

    assert q_hat(tmp_path / "fault") == q_hat(tmp_path / "scaled") == \
        repr(0.14423076923076922)
    assert q_hat(tmp_path / "healthy") == repr(0.15625000000000003)


def test_bounds_has_no_mode(tmp_path):
    # bounds always builds in float, so it takes no --mode and reports none
    assert run("bounds", "--N", "4", "--mode", "float", "--out", tmp_path) == 2
    assert run("bounds", "--N", "4", "--eps-grid", "1e-3:10:40",
               "--out", tmp_path) == 0
    config = read_report(tmp_path, "bounds_report.json")["config"]
    assert "mode" not in config
    assert config["N"] == 4


# ---------------------------------------------------------------------------
# check-all


def test_check_all_with_a_small_battery(tmp_path, capsys, monkeypatch):
    subset = tuple((name, fn) for name, fn in acceptance.CRITERIA
                   if name in ("heat-sup-closed-form", "vacuum-spectrum"))
    monkeypatch.setattr(acceptance, "CRITERIA", subset)
    assert run("check-all", "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "[ 1/2] PASS" in out and "[ 2/2] PASS" in out
    report = read_report(tmp_path, "acceptance_report.json")
    assert [row["name"] for row in report["result"]["criteria"]] == \
        ["vacuum-spectrum", "heat-sup-closed-form"]
    assert report["result"]["all_passed"] is True


def test_check_all_reports_failures(tmp_path, capsys, monkeypatch):
    def broken():
        return False, "synthetic failure"

    monkeypatch.setattr(acceptance, "CRITERIA",
                        (("synthetic", broken),))
    assert run("check-all", "--out", tmp_path) == 1
    assert "FAIL synthetic" in capsys.readouterr().out.replace("  ", " ")


# ---------------------------------------------------------------------------
# argparse plumbing


def test_no_subcommand_is_an_error():
    assert run() == 2


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "check-all" in capsys.readouterr().out


def test_flags_a_command_does_not_read_are_rejected(tmp_path):
    assert run("field", "mode:2", "--c", "1/2", "--out", tmp_path) == 2
    assert run("check-all", "--N", "3", "--out", tmp_path) == 2
    assert run("rep", "--seed", "1", "--out", tmp_path) == 2


@pytest.mark.parametrize("command, flags", [
    ("rep", "--c --h --N --mode --cache --inject-fault"),
    ("field", "--cutoff"),
    ("smear", "--c --h --N --mode --cache --cutoff --inject-fault --field"),
    ("bounds", "--c --h --N --eps-grid --cache --inject-fault"),
    ("check-all", ""),
], ids=["rep", "field", "smear", "bounds", "check-all"])
def test_help_lists_exactly_the_flags_a_command_reads(command, flags, capsys):
    assert run(command, "--help") == 0
    listed = set(re.findall(r"(?<![\w-])--[\w-]+", capsys.readouterr().out))
    assert listed == {"--help", "--config", "--out", *flags.split()}


# ---------------------------------------------------------------------------
# byte identity of the result blocks

# The decoded `result` object of each command, recorded before the
# coefficient, block-set and matrix-helper code was consolidated.  Floats
# are repr strings, so equality is bit for bit.  A change that means to
# move a reported number re-records this file.
RECORDED = json.loads((Path(__file__).parent / "data" / "cli_results.json").read_text())


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_result_blocks_are_unchanged(command, tmp_path, capsys):
    want = RECORDED[command]
    assert run(*command.split(), "--out", tmp_path) == want["exit"]
    assert read_report(tmp_path, want["report"])["result"] == want["result"]


@pytest.mark.parametrize("old, new", [
    ("matrix block:1,4 1 2\n", "matrix block:1,4 x 2\n"),
    (None, "1/0"),
], ids=["row-count", "zero-denominator"])
def test_a_corrupt_cache_entry_exits_one(tmp_path, capsys, old, new):
    cache = tmp_path / "cache"
    argv = ("smear", "--field", "mode:2", "--c", "1/2", "--N", "4", "--cache", cache,
            "--out", tmp_path / "out")
    assert run(*argv) == 0
    path = store.rep_cache_path(cache, "1/2", "0", 4, "exact")
    lines = path.read_text().splitlines(keepends=True)[:-1]
    if old is None:  # the first entry of the first block row
        row = 1 + next(i for i, ln in enumerate(lines) if ln.startswith("matrix block:"))
        lines[row] = " ".join([new, *lines[row].split()[1:]]) + "\n"
    else:
        lines = [new if ln == old else ln for ln in lines]
    body = "".join(lines)
    path.write_text(body + f"digest {hashlib.sha256(body.encode()).hexdigest()}\n")
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
