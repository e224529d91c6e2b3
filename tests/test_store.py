"""On-disk cache round-trips, validation, and corruption detection."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from vircut import verma
from vircut.store import (
    CacheError,
    load_or_build_rep,
    load_rep,
    rep_cache_path,
    save_rep,
)

C, H = Fraction(1, 2), Fraction(0)


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


def test_float_rep_round_trip_is_bit_exact(tmp_path, ising8_float):
    save_rep(tmp_path, ising8_float, c=C, h=H)
    loaded = load_rep(tmp_path, C, H, 8, mode="float")
    assert loaded is not None
    assert loaded.level_dims == ising8_float.level_dims
    for key, blk in ising8_float.blocks.items():
        assert np.array_equal(loaded.blocks[key], blk)


def test_float_rep_needs_its_exact_key(tmp_path, ising8_float):
    with pytest.raises(CacheError, match="exact .c, h. key"):
        save_rep(tmp_path, ising8_float)


def test_float_rep_key_must_match(tmp_path, ising8_float):
    with pytest.raises(CacheError, match="does not match"):
        save_rep(tmp_path, ising8_float, c=Fraction(3, 4), h=H)


def test_monomial_rep_round_trip(tmp_path):
    rep = verma.truncated_rep(C, Fraction(1, 2), 4, basis="monomial")
    save_rep(tmp_path, rep)
    loaded = load_rep(tmp_path, C, Fraction(1, 2), 4, basis="monomial")
    assert loaded is not None
    assert loaded.basis == "monomial"
    assert loaded.basis_norms is None
    assert _blocks_equal(loaded, rep)


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
    for k in range(5):
        assert list(loaded.norms(k)) == list(rep.norms(k))


def test_tensor_rep_is_not_cacheable(tmp_path, ising8):
    pair = verma.tensor_rep(ising8, ising8, 4)
    with pytest.raises(CacheError, match="not cacheable"):
        save_rep(tmp_path, pair)


def test_load_or_build_rep_reports_its_source(tmp_path):
    rep, source = load_or_build_rep(tmp_path, C, H, 4)
    assert source == "built"
    assert rep_cache_path(tmp_path, C, H, 4, "exact", "quotient").exists()
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


def test_garbage_file_is_rejected(tmp_path):
    path = rep_cache_path(tmp_path, C, H, 2, "exact", "quotient")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("not a cache at all\n")
    with pytest.raises(CacheError, match="not a cache file"):
        load_rep(tmp_path, C, H, 2)


def test_kind_mismatch_is_rejected(tmp_path):
    path = rep_cache_path(tmp_path, C, H, 2, "exact", "quotient")
    _restamp(path, ["vircut-cache 1 gram", "c 1/2", "h 0", "level 2",
                    "matrix entries 1 1", "1"])
    with pytest.raises(CacheError, match="expected a rep file, found 'gram'"):
        load_rep(tmp_path, C, H, 2)


def test_stale_schema_rebuilds(tmp_path):
    _, source = load_or_build_rep(tmp_path, C, H, 2)
    assert source == "built"
    path = rep_cache_path(tmp_path, C, H, 2, "exact", "quotient")
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
    target = rep_cache_path(tmp_path, C, Fraction(1, 2), 2, "exact", "quotient")
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
