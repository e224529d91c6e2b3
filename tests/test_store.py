"""On-disk cache round-trips, validation, and corruption detection."""

import hashlib
import json
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from vircut import cli, verma
from vircut.store import (
    CacheError,
    load_or_build_rep,
    load_rep,
    rep_cache_path,
    save_rep,
)

C, H = Fraction(1, 2), Fraction(0)

# SHA-256 of exact cache files.  The first two were recorded when every
# exact product still ran through np.dot on Fraction object arrays, the
# third, (1, 1/4, 10), whose quotient drops rank from level 2 on, while the
# congruence still returned Fraction rows.
PINNED = json.loads((Path(__file__).parent / "data" / "exact_cache_sha256.json").read_text())


def _blocks_equal(a, b) -> bool:
    if set(a.blocks) != set(b.blocks):
        return False
    for key, blk in a.blocks.items():
        other = b.blocks[key]
        if blk.shape != other.shape:
            return False
        if not all(x == y for x, y in zip(np.ravel(blk), np.ravel(other))):
            return False
    return True


# ---------------------------------------------------------------------------
# representations


def test_exact_rep_round_trip(tmp_path, ising8):
    save_rep(tmp_path, ising8)
    loaded = load_rep(tmp_path, C, H, 8)
    assert loaded is not None
    assert loaded.level_dims == ising8.level_dims
    assert loaded.c == C and loaded.mode == "exact"
    assert _blocks_equal(loaded, ising8)
    for k in range(9):
        if loaded.dim(k):
            assert loaded.norms(k) == ising8.norms(k)


@pytest.mark.parametrize("pin", PINNED, ids=lambda p: f"{p['c']},{p['h']},N{p['N']}")
def test_exact_cache_file_bytes_are_pinned(tmp_path, pin):
    rep = verma.truncated_rep(Fraction(pin["c"]), Fraction(pin["h"]), pin["N"])
    path = save_rep(tmp_path, rep)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pin["sha256"]


@pytest.mark.parametrize("pin", PINNED, ids=lambda p: f"{p['c']},{p['h']},N{p['N']}")
def test_vircut_rep_writes_the_pinned_exact_cache_files(tmp_path, pin):
    assert cli.main(["rep", "--c", pin["c"], "--h", pin["h"], "--N", str(pin["N"]),
                     "--cache", str(tmp_path / "cache"),
                     "--out", str(tmp_path / "report")]) == 0
    path, = (tmp_path / "cache").iterdir()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pin["sha256"]


def test_float_rep_round_trip_is_bit_exact(tmp_path, ising8_float):
    save_rep(tmp_path, ising8_float, c=C, h=H)
    loaded = load_rep(tmp_path, C, H, 8, mode="float")
    assert loaded is not None
    assert loaded.level_dims == ising8_float.level_dims
    for key, blk in ising8_float.blocks.items():
        assert np.array_equal(loaded.blocks[key], blk)


def test_a_float_file_stores_no_norms_and_loads_old_norms_rows_unread(tmp_path, ising8_float):
    # a float basis is orthonormal; earlier versions still wrote each
    # level's norms as a "norms:k" row of 1.0 before the blocks
    path = save_rep(tmp_path, ising8_float, c=C, h=H)
    lines = path.read_text().splitlines()[:-1]
    assert not any(ln.startswith("matrix norms:") for ln in lines)
    first_block = next(i for i, ln in enumerate(lines) if ln.startswith("matrix block:"))
    norms = []
    for k, dim in enumerate(ising8_float.level_dims):
        norms += [f"matrix norms:{k} 1 {dim}", " ".join([(1.0).hex()] * dim)]
    _restamp(path, lines[:first_block] + norms + lines[first_block:])
    loaded = load_rep(tmp_path, C, H, 8, mode="float")
    assert loaded.basis_norms is None and list(loaded.blocks) == list(ising8_float.blocks)
    for key, blk in ising8_float.blocks.items():
        assert loaded.blocks[key].tobytes() == blk.tobytes()


def test_a_float_rep_holds_float_labels(tmp_path, ising8_float):
    relabelled = replace(ising8_float, c=Fraction(2))
    assert type(relabelled.c) is float and relabelled.c == 2.0
    save_rep(tmp_path, ising8_float, c=C, h=H)
    loaded = load_rep(tmp_path, C, H, 8, mode="float")
    assert (type(loaded.c), type(loaded.h)) == (float, float)
    assert (loaded.c, loaded.h) == (0.5, 0.0)


def test_float_rep_needs_its_exact_key(tmp_path, ising8_float):
    with pytest.raises(CacheError, match="exact .c, h. key"):
        save_rep(tmp_path, ising8_float)


def test_float_rep_key_must_match(tmp_path, ising8_float):
    with pytest.raises(CacheError, match="does not match"):
        save_rep(tmp_path, ising8_float, c=Fraction(3, 4), h=H)


def test_monomial_rep_is_not_cacheable(tmp_path):
    rep = verma.monomial_action(C, Fraction(1, 2), 4)
    with pytest.raises(CacheError, match="monomial-basis representations are not cacheable"):
        save_rep(tmp_path, rep)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_file_with_transform_sections_still_loads(tmp_path, mode):
    # schema-1 files used to carry each level's basis rows as
    # "transform:k" sections; the loader verifies and skips them
    rep = verma.truncated_rep(C, H, 4, mode=mode)
    path = save_rep(tmp_path, rep, c=C, h=H)
    lines = path.read_text().splitlines()[:-1]
    assert not any("transform:" in ln for ln in lines)
    first_block = next(i for i, ln in enumerate(lines) if ln.startswith("matrix block:"))
    transforms = []
    for k in range(5):
        p = verma.partition_count(k)
        transforms += [f"matrix transform:{k} {rep.dim(k)} {p}"]
        transforms += [" ".join(["1"] * p)] * rep.dim(k)
    _restamp(path, lines[:first_block] + transforms + lines[first_block:])
    loaded = load_rep(tmp_path, C, H, 4, mode=mode)
    assert loaded.level_dims == rep.level_dims
    assert _blocks_equal(loaded, rep)
    assert loaded.basis_norms == rep.basis_norms


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_an_unread_section_is_skipped_unparsed(tmp_path, mode):
    rep = verma.truncated_rep(C, H, 4, mode=mode)
    path = save_rep(tmp_path, rep, c=C, h=H)
    lines = path.read_text().splitlines()[:-1]
    first_block = next(i for i, ln in enumerate(lines) if ln.startswith("matrix block:"))
    # no entry parser takes these, in either mode
    extra = ["matrix notes 2 3", "not a number", "1/0 nan 1.5"]
    _restamp(path, lines[:first_block] + extra + lines[first_block:])
    loaded = load_rep(tmp_path, C, H, 4, mode=mode)
    assert _blocks_equal(loaded, rep)


def test_tensor_rep_is_not_cacheable(tmp_path, ising8):
    pair = verma.tensor_rep(ising8, ising8, 4)
    with pytest.raises(CacheError, match="not cacheable"):
        save_rep(tmp_path, pair)


def test_load_or_build_rep_reports_its_source(tmp_path):
    rep, source = load_or_build_rep(tmp_path, C, H, 4)
    assert source == "built"
    path = rep_cache_path(tmp_path, C, H, 4, "exact")
    assert path.name == "rep_c1_2_h0_N4_exact_quotient.txt" and path.exists()
    again, source = load_or_build_rep(tmp_path, C, H, 4)
    assert source == "cache"
    assert _blocks_equal(rep, again)


# ---------------------------------------------------------------------------
# corruption and mismatches


def _restamp(path, lines):
    """Write `lines` with a valid digest, so only their content is wrong."""
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    path.write_text("\n".join(lines) + f"\ndigest {digest}\n")


def test_tampered_file_is_rejected(tmp_path):
    path = save_rep(tmp_path, verma.truncated_rep(C, H, 4))
    lines = path.read_text().splitlines()
    row = 1 + next(i for i, ln in enumerate(lines) if ln.startswith("matrix block:"))
    first, *rest = lines[row].split()
    lines[row] = " ".join([str(Fraction(first) + 1), *rest])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError, match="digest"):
        load_rep(tmp_path, C, H, 4)


def test_truncated_file_is_rejected(tmp_path):
    path = save_rep(tmp_path, verma.truncated_rep(C, H, 4))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(CacheError):
        load_rep(tmp_path, C, H, 4)


def test_file_without_norms_is_rejected(tmp_path):
    path = save_rep(tmp_path, verma.truncated_rep(C, H, 2))
    lines = path.read_text().splitlines()[:-1]
    start = lines.index("matrix norms:0 1 1")
    _restamp(path, lines[:start] + lines[start + 6:])
    assert not any(ln.startswith("matrix norms:") for ln in path.read_text().splitlines())
    with pytest.raises(CacheError, match="missing norms for level 0"):
        load_rep(tmp_path, C, H, 2)


def test_garbage_file_is_rejected(tmp_path):
    path = rep_cache_path(tmp_path, C, H, 2, "exact")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("not a cache at all\n")
    with pytest.raises(CacheError, match="not a cache file"):
        load_rep(tmp_path, C, H, 2)


def test_kind_mismatch_is_rejected(tmp_path):
    path = rep_cache_path(tmp_path, C, H, 2, "exact")
    _restamp(path, ["vircut-cache 1 gram", "c 1/2", "h 0", "level 2",
                    "matrix entries 1 1", "1"])
    with pytest.raises(CacheError, match="expected a rep file, found 'gram'"):
        load_rep(tmp_path, C, H, 2)


def test_stale_schema_rebuilds(tmp_path):
    _, source = load_or_build_rep(tmp_path, C, H, 2)
    assert source == "built"
    path = rep_cache_path(tmp_path, C, H, 2, "exact")
    lines = path.read_text().splitlines()[:-1]
    assert lines[0] == "vircut-cache 1 rep"
    # restamp the digest so only the schema version looks old
    _restamp(path, ["vircut-cache 0 rep"] + lines[1:])
    assert load_rep(tmp_path, C, H, 2) is None
    rebuilt, source = load_or_build_rep(tmp_path, C, H, 2)
    assert source == "built"
    assert rebuilt.level_dims == (1, 0, 1)
    assert path.read_text().startswith("vircut-cache 1 rep\n")  # rewritten fresh
    assert load_rep(tmp_path, C, H, 2) is not None


def test_header_mismatch_is_rejected(tmp_path):
    path = save_rep(tmp_path, verma.truncated_rep(C, H, 2))
    target = rep_cache_path(tmp_path, C, Fraction(1, 2), 2, "exact")
    target.write_text(path.read_text())
    with pytest.raises(CacheError, match="header"):
        load_rep(tmp_path, C, Fraction(1, 2), 2)


def test_block_outside_the_truncation_is_rejected(tmp_path):
    # a retitled block keeps the count right; its level k - n = -2 would
    # wrap to dims[-2] if only the count were checked
    path = save_rep(tmp_path, verma.truncated_rep(C, H, 4))
    lines = path.read_text().splitlines()[:-1]
    row = lines.index("matrix block:1,4 1 2")
    lines[row] = "matrix block:6,4 1 2"
    _restamp(path, lines)
    with pytest.raises(CacheError, match=r"\['block:6,4'\] are not in the truncation, "
                                         r"\['block:1,4'\] are missing"):
        load_rep(tmp_path, C, H, 4)


def _with_first_block_entry(lines, text):
    """lines with the first entry of the first block row replaced by text."""
    row = 1 + next(i for i, ln in enumerate(lines) if ln.startswith("matrix block:"))
    first, *rest = lines[row].split()
    return lines[:row] + [" ".join([text, *rest])] + lines[row + 1:]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: _with_first_block_entry(lines, "1/0"), "denominator"),
    (lambda lines: _with_first_block_entry(lines, "1/-2"), "denominator"),
    # the writer never emits a decimal, which Fraction("1.5") would take
    (lambda lines: _with_first_block_entry(lines, "1.5"), "invalid literal"),
    (lambda lines: _with_first_block_entry(lines, "1e3"), "invalid literal"),
    # int() would read these three as 10/3, 3/4 and 3
    (lambda lines: _with_first_block_entry(lines, "1_0/3"), "invalid literal"),
    (lambda lines: _with_first_block_entry(lines, "\u0663/4"), "invalid literal"),
    (lambda lines: _with_first_block_entry(lines, "+3"), "invalid literal"),
    (lambda lines: [ln.replace("matrix block:1,4 1 2", "matrix block:1,4 x 2")
                    for ln in lines], "bad matrix header"),
    (lambda lines: [ln.replace("matrix block:1,4 1 2", "matrix block:1,4 -1 2")
                    for ln in lines], "bad matrix header"),
    (lambda lines: [ln.replace("matrix block:1,4 1 2", "matrix block:1,4 1")
                    for ln in lines], "bad matrix header"),
    (lambda lines: [ln + " x" if ln.startswith("dims ") else ln for ln in lines],
     "bad dims line"),
], ids=["zero-denominator", "negative-denominator", "decimal", "exponent",
        "underscore", "arabic-indic-digit", "plus-sign", "row-count", "negative-row-count",
        "short-header", "dims"])
def test_a_corrupt_entry_or_header_is_a_cache_error(tmp_path, edit, message):
    path = save_rep(tmp_path, verma.truncated_rep(C, H, 4))
    lines = path.read_text().splitlines()[:-1]
    assert "matrix block:1,4 1 2" in lines
    _restamp(path, edit(lines))
    with pytest.raises(CacheError, match=message):
        load_rep(tmp_path, C, H, 4)


@pytest.mark.parametrize("text", ["nan", "-inf", "0x1p0", "1.5", "0X1.0000000000000P+0"])
def test_a_float_entry_must_be_the_hex_text_of_a_finite_float(tmp_path, text):
    # float.fromhex takes every one of these, and the writer emits none:
    # it writes float.hex() of a finite float
    path = save_rep(tmp_path, verma.truncated_rep(C, H, 4, mode="float"), c=C, h=H)
    _restamp(path, _with_first_block_entry(path.read_text().splitlines()[:-1], text))
    with pytest.raises(CacheError, match=re.escape(f"invalid literal '{text}' for a float entry")):
        load_rep(tmp_path, C, H, 4, mode="float")


def test_exact_entries_parse_to_the_written_fractions(tmp_path):
    rep = verma.truncated_rep(Fraction(7, 10), Fraction(3, 5), 7)
    path = save_rep(tmp_path, rep)
    assert any("/" in ln and "-" in ln for ln in path.read_text().splitlines()
               if not ln.startswith(("matrix", "digest", "c ", "h ")))
    loaded = load_rep(tmp_path, rep.c, rep.h, 7)
    for key, blk in rep.blocks.items():
        other = loaded.blocks[key]
        assert all(type(y) is Fraction and x == y
                   for x, y in zip(blk.ravel(), other.ravel()))
