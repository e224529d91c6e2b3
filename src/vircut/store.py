"""Versioned on-disk cache for truncated representations.

Only quotient-basis reps, the ones truncated_rep builds by default, are
cached: the raw monomial action and tensor products are refused.  The
format is plain text so a cached matrix can be read (and diffed) by
eye: a magic line carrying the schema version, a small key/value header
identifying the object, one section per stored matrix (the basis norms
"norms:k" of each level and the blocks "block:n,k"), and a trailing
sha256 digest over everything above it.  Sections of other names are
verified and parsed but not read, so files that also carry the per-level
basis rows ("transform:k", written by earlier versions) still load.
Exact-mode entries are written as p/q strings and parse back to the
identical Fraction; float-mode entries use float.hex(), which
round-trips bit for bit.  Loading is strict about integrity and lenient
about age: a wrong digest, a malformed body, or block sections other
than those of verma.block_keys(N) raise CacheError, while a
file written under an older schema version is treated as absent so the
caller rebuilds it.  Schema migration is deliberately not attempted.  A
file is keyed by the (c, h) the representation was built at: the CLI's
injected fault builds at 12c/13 and is cached there, never under the c
it is labelled with.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .rational import as_fraction, fmt_rational
from .verma import TruncatedRep, block_keys, truncated_rep

SCHEMA_VERSION = 1
_MAGIC = "vircut-cache"


class CacheError(RuntimeError):
    """A cache file exists but cannot be trusted or parsed."""


# ---------------------------------------------------------------------------
# scalar and matrix encoding


def _fmt_entry(x, mode: str) -> str:
    if mode == "exact":
        return fmt_rational(as_fraction(x))
    return float(x).hex()


def _parse_entry(s: str, mode: str):
    if mode == "exact":
        return Fraction(s)
    return float.fromhex(s)


def _matrix_lines(tag: str, mat: np.ndarray, mode: str) -> list[str]:
    mat = np.atleast_2d(mat)
    rows, cols = mat.shape
    lines = [f"matrix {tag} {rows} {cols}"]
    for i in range(rows):
        lines.append(" ".join(_fmt_entry(mat[i, j], mode) for j in range(cols)))
    return lines


def _parse_matrix(header: str, body: list[str], mode: str) -> tuple[str, np.ndarray]:
    parts = header.split()
    if len(parts) != 4 or parts[0] != "matrix":
        raise CacheError(f"bad matrix header: {header!r}")
    tag, rows, cols = parts[1], int(parts[2]), int(parts[3])
    if len(body) != rows:
        raise CacheError(f"matrix {tag}: expected {rows} rows, found {len(body)}")
    if mode == "exact":
        mat = np.empty((rows, cols), dtype=object)
    else:
        mat = np.zeros((rows, cols))
    for i, line in enumerate(body):
        vals = line.split()
        if len(vals) != cols:
            raise CacheError(f"matrix {tag} row {i}: expected {cols} entries")
        for j, s in enumerate(vals):
            try:
                mat[i, j] = _parse_entry(s, mode)
            except ValueError as exc:
                raise CacheError(f"matrix {tag} row {i}: {exc}") from exc
    return tag, mat


# ---------------------------------------------------------------------------
# file framing


def _digest(lines: list[str]) -> str:
    payload = "\n".join(lines) + "\n"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _write_file(path: Path, lines: list[str]) -> None:
    lines = lines + [f"digest {_digest(lines)}"]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tmp.replace(path)


def _read_file(path: Path) -> Optional[tuple[dict, list[str]]]:
    """Verify framing and digest; return (header dict, section lines).

    None means the file is absent or written under a different schema
    version, i.e. the caller should rebuild.  Corruption raises.
    """
    if not path.is_file():
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise CacheError(f"{path}: empty cache file")
    magic = lines[0].split()
    if len(magic) != 3 or magic[0] != _MAGIC:
        raise CacheError(f"{path}: not a cache file")
    if magic[1] != str(SCHEMA_VERSION):
        return None
    if magic[2] != "rep":
        raise CacheError(f"{path}: expected a rep file, found {magic[2]!r}")
    if not lines[-1].startswith("digest "):
        raise CacheError(f"{path}: missing digest line")
    stored = lines[-1].split()[1]
    if _digest(lines[:-1]) != stored:
        raise CacheError(f"{path}: digest mismatch, refusing to load")
    header = {}
    i = 1
    while i < len(lines) - 1 and not lines[i].startswith("matrix "):
        key, _, value = lines[i].partition(" ")
        header[key] = value
        i += 1
    return header, lines[i:-1]


def _sections(lines: list[str], mode: str) -> dict:
    out = {}
    i = 0
    while i < len(lines):
        header = lines[i]
        rows = int(header.split()[2]) if header.startswith("matrix ") else 0
        tag, mat = _parse_matrix(header, lines[i + 1 : i + 1 + rows], mode)
        if tag in out:
            raise CacheError(f"duplicate matrix section {tag!r}")
        out[tag] = mat
        i += 1 + rows
    return out


def _slug(x: Union[Fraction, int]) -> str:
    return fmt_rational(as_fraction(x)).replace("/", "_").replace("-", "m")


# ---------------------------------------------------------------------------
# truncated representations


def rep_cache_path(root, c, h, N: int, mode: str) -> Path:
    c, h = as_fraction(c), as_fraction(h)
    return Path(root) / f"rep_c{_slug(c)}_h{_slug(h)}_N{N}_{mode}_quotient.txt"


def save_rep(root, rep: TruncatedRep, c=None, h=None) -> Path:
    """Write rep under its exact parameter key.

    Exact-mode reps carry Fraction parameters and key themselves; a
    float-mode rep only remembers float(c), so the exact key must be
    passed in (load_or_build_rep does).  Monomial-basis reps and tensor
    products are refused.
    """
    if rep.basis != "quotient":
        raise CacheError(f"{rep.basis}-basis representations are not cacheable")
    try:
        cv = as_fraction(rep.c if c is None else c)
        hv = as_fraction(rep.h if h is None else h)
    except TypeError as exc:
        raise CacheError("float-mode representation needs its exact (c, h) key") from exc
    if float(cv) != float(rep.c) or float(hv) != float(rep.h):
        raise CacheError(f"cache key ({cv}, {hv}) does not match the representation")
    path = rep_cache_path(root, cv, hv, rep.N, rep.mode)
    lines = [
        f"{_MAGIC} {SCHEMA_VERSION} rep",
        f"c {fmt_rational(cv)}",
        f"h {fmt_rational(hv)}",
        f"N {rep.N}",
        f"mode {rep.mode}",
        "basis quotient",
        "order revlex",
        "dims " + " ".join(str(d) for d in rep.level_dims),
    ]
    for k in range(rep.N + 1):
        norms = np.asarray(rep.basis_norms[k], dtype=object).reshape(1, -1)
        lines += _matrix_lines(f"norms:{k}", norms, rep.mode)
    for (n, k) in sorted(rep.blocks):
        lines += _matrix_lines(f"block:{n},{k}", rep.blocks[(n, k)], rep.mode)
    _write_file(path, lines)
    return path


def load_rep(root, c, h, N: int, mode: str = "exact") -> Optional[TruncatedRep]:
    c, h = as_fraction(c), as_fraction(h)
    path = rep_cache_path(root, c, h, N, mode)
    found = _read_file(path)
    if found is None:
        return None
    header, body = found
    want = {"c": fmt_rational(c), "h": fmt_rational(h), "N": str(N),
            "mode": mode, "basis": "quotient"}
    for key, value in want.items():
        if header.get(key) != value:
            raise CacheError(f"{path}: header {key}={header.get(key)!r}, expected {value!r}")
    if "dims" not in header:
        raise CacheError(f"{path}: missing dims line")
    dims = tuple(int(d) for d in header["dims"].split())
    if len(dims) != N + 1:
        raise CacheError(f"{path}: dims line has {len(dims)} levels, expected {N + 1}")
    sections = _sections(body, mode)

    norms = []
    for k in range(N + 1):
        row = sections.get(f"norms:{k}")
        if row is None:
            raise CacheError(f"{path}: missing norms for level {k}")
        flat = row.reshape(-1)
        if flat.shape[0] != dims[k]:
            raise CacheError(f"{path}: norms at level {k} have wrong length")
        norms.append(tuple(flat) if mode == "exact" else np.asarray(flat, dtype=float))

    keys = {f"block:{n},{k}": (n, k) for n, k in block_keys(N)}
    tags = {tag for tag in sections if tag.startswith("block:")}
    if tags != set(keys):
        raise CacheError(f"{path}: block sections {sorted(tags - set(keys))} are not "
                         f"in the truncation, {sorted(set(keys) - tags)} are missing")
    blocks = {}
    for tag, (n, k) in keys.items():
        mat = sections[tag]
        if mat.shape != (dims[k - n], dims[k]):
            raise CacheError(f"{path}: block {tag} has shape {mat.shape}, "
                             f"expected {(dims[k - n], dims[k])}")
        blocks[(n, k)] = mat

    return TruncatedRep(
        c=c if mode == "exact" else float(c),
        h=h if mode == "exact" else float(h),
        N=N,
        mode=mode,
        level_dims=dims,
        blocks=blocks,
        basis_norms=tuple(norms),
    )


def load_or_build_rep(root, c, h, N: int, mode: str = "exact") -> tuple[TruncatedRep, str]:
    """Return (rep, source) where source is "cache" or "built".

    A stale-schema or absent file triggers a rebuild (and a rewrite when
    root is given); a corrupt file raises CacheError instead of being
    silently replaced.
    """
    if root is not None:
        cached = load_rep(root, c, h, N, mode)
        if cached is not None:
            return cached, "cache"
    rep = truncated_rep(c, h, N, mode=mode)
    if root is not None:
        save_rep(root, rep, c=c, h=h)
    return rep, "built"
