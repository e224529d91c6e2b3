"""Mutation battery: break a float rep on purpose and see which checks notice.

Each mutation changes the blocks (and level dims) or the c label of the
float (c, h, N) = (1/2, 0, 12) quotient, and each check runs on the mutated rep
as the CLI and the acceptance battery run it.  A check's outcome is
"pass", "fail", or "LinAlgError" when it raises that.  The table pins
which check catches which mutation, the blind spots included: the r and q
witnesses recompute their cells from the same mutated blocks, the chain
only compares the two estimates, and the heat identity and every norm are
blind to a block's transposition and to a permutation of one block's
states, so only the relation sweep, and the gates that run it, fail the
L_0 mutation and the relabelled c.  A NaN block has NaN norm, which every check reads as a
failure.  Rescaling the level-5 basis is a similarity, which keeps every
bracket relation, and it moves r_hat^2 while the r witness, recomputed
from the same blocks, still reproduces it: only hermiticity and the
adjointness half of the rep gate, which read the basis as orthonormal,
catch it.  Dropping one state of level 8 from every block compresses the
rep onto the other states: the blocks stay adjoint pairs and L_0 stays
(h + k) on each level, so only the relation sweep (max abs 7.4e+01) and
the gates that run it fail.  The rep_verdict column is that gate (verma.rep_verdict: the
relation sweep and the adjointness L_-n = L_n^*), which every command
that trusts a rep reads; the bounds column is the exit status of
`vircut bounds` run on the mutated rep.  The store column saves the
mutant under (1/2, 0) and loads it back: the store refuses the NaN block
(the writer's hex text of nan is no entry the parser takes) and the
relabelled c (its key no longer matches), and loads every other mutant
to the same blocks, leaving it to the gate.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from vircut import bounds, cli, fields, smear, store, verma

HEAT_EPS = (1e-4, 1e-2, 0.5, 3.0, 20.0)
HEAT_TOL = 1e-12  # the commutator-chain criterion's budget

# L_{-1} from level 3 to level 4 (2 x 1), inside the relation sweep's window
NAN_BLOCK = (-1, 3)
# L_1 from level 5 to level 4: square (2 x 2) and not symmetric
TRANSPOSED_BLOCK = (1, 5)
# L_{-1} from level 7 to level 8 (5 x 3), whose first two rows differ
PERMUTED_BLOCK = (-1, 7)
# level 8 has 5 states; the last one is dropped from every block that touches it
DROPPED_LEVEL = 8

# every mode |n| <= 12 with coefficient 1: a real field whose smear reads
# every block
FIELD = fields.FourierField(dict.fromkeys(range(-12, 13), 1), real=True)

CHECKS = ("relations", "hermiticity", "heat identity", "r witness", "q witness",
          "chain_ok", "rep_verdict", "bounds", "store")

# which check catches which mutation ("pass" means it does not)
EXPECTED = {
    "none": dict.fromkeys(CHECKS, "pass"),
    "L_0 -> 1.5 L_0 + 0.01": {"relations": "fail", "hermiticity": "pass",
                              "heat identity": "pass", "r witness": "pass",
                              "q witness": "pass", "chain_ok": "pass",
                              "rep_verdict": "fail", "bounds": "fail",
                              "store": "pass"},
    "NaN in one block": dict.fromkeys(CHECKS, "fail"),
    "one block transposed": {"relations": "fail", "hermiticity": "fail",
                             "heat identity": "pass", "r witness": "pass",
                             "q witness": "pass", "chain_ok": "pass",
                             "rep_verdict": "fail", "bounds": "fail",
                             "store": "pass"},
    "c relabelled c + 1/2": {"relations": "fail", "hermiticity": "pass",
                             "heat identity": "pass", "r witness": "pass",
                             "q witness": "pass", "chain_ok": "pass",
                             "rep_verdict": "fail", "bounds": "fail",
                             "store": "fail"},
    "level 5 rescaled": {"relations": "pass", "hermiticity": "fail",
                         "heat identity": "pass", "r witness": "pass",
                         "q witness": "pass", "chain_ok": "pass",
                         "rep_verdict": "fail", "bounds": "fail",
                         "store": "pass"},
    "one block's states permuted": {"relations": "fail", "hermiticity": "fail",
                                    "heat identity": "pass", "r witness": "pass",
                                    "q witness": "pass", "chain_ok": "pass",
                                    "rep_verdict": "fail", "bounds": "fail",
                                    "store": "pass"},
    "one state of level 8 dropped": {"relations": "fail", "hermiticity": "pass",
                                     "heat identity": "pass", "r witness": "pass",
                                     "q witness": "pass", "chain_ok": "pass",
                                     "rep_verdict": "fail", "bounds": "fail",
                                     "store": "pass"},
}


@pytest.fixture(scope="module")
def rep():
    return verma.truncated_rep(Fraction(1, 2), Fraction(0), 12, mode="float")


def _with_blocks(rep, changed):
    return replace(rep, blocks={**rep.blocks, **changed})


def _mutants(rep):
    scaled_l0 = {(0, k): 1.5 * rep.blocks[0, k] + 0.01 * np.eye(rep.dim(k))
                 for k in range(rep.N + 1)}
    nan = rep.blocks[NAN_BLOCK].copy()
    nan[0, 0] = math.nan
    permuted = rep.blocks[PERMUTED_BLOCK][[1, 0, 2, 3, 4]]
    # the level-5 basis halved: blocks out of level 5 x 2 and into it x 0.5,
    # exact in binary; the L_0 block (0, 5) is both and stays as it is
    rescaled = {(n, k): blk * (2.0 if k == 5 else 1.0) * (0.5 if k - n == 5 else 1.0)
                for (n, k), blk in rep.blocks.items() if 5 in (k, k - n)}
    # the last state of level 8: its row leaves each block into level 8 and
    # its column each block out of it
    last = rep.dim(DROPPED_LEVEL) - 1
    dropped = {(n, k): blk[:last if k - n == DROPPED_LEVEL else None,
                           :last if k == DROPPED_LEVEL else None]
               for (n, k), blk in rep.blocks.items() if DROPPED_LEVEL in (k, k - n)}
    dims = list(rep.level_dims)
    dims[DROPPED_LEVEL] = last
    return {
        "none": rep,
        "L_0 -> 1.5 L_0 + 0.01": _with_blocks(rep, scaled_l0),
        "NaN in one block": _with_blocks(rep, {NAN_BLOCK: nan}),
        "one block transposed": _with_blocks(
            rep, {TRANSPOSED_BLOCK: rep.blocks[TRANSPOSED_BLOCK].T.copy()}),
        "c relabelled c + 1/2": replace(rep, c=rep.c + Fraction(1, 2)),
        "level 5 rescaled": _with_blocks(rep, rescaled),
        "one block's states permuted": _with_blocks(rep, {PERMUTED_BLOCK: permuted}),
        "one state of level 8 dropped": replace(_with_blocks(rep, dropped),
                                                level_dims=tuple(dims)),
    }


def _outcome(check):
    try:
        return "pass" if check() else "fail"
    except np.linalg.LinAlgError:  # a check that raises has noticed, loudly
        return "LinAlgError"


def _heat_identity_ok(rep):
    # a NaN residual fails here, where max over the residuals would drop it
    return all(smear.heat_identity_residual(rep, n, eps) <= HEAT_TOL
               for n in range(-rep.N, rep.N + 1) if n for eps in HEAT_EPS)


def _hermiticity_ok(rep):
    herm = smear.hermiticity_residual(smear.smear(rep, FIELD))
    return verma.residual_verdict(rep.mode, herm.zero, herm.max_abs)[0]


def _bounds_ok(rep, out):
    """`vircut bounds` at the rep's point, run on the rep itself."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_build_rep", lambda cfg: (rep, "built"))
        return cli.main(["bounds", "--c", "1/2", "--N", str(rep.N), "--out", str(out)]) == 0


def _store_ok(rep, root):
    """Whether rep saves under (1/2, 0) and loads back; a CacheError, at
    save or at load, is the store noticing.  A load that changed a block
    would be a store fault, so it fails the test."""
    c, h = Fraction(1, 2), Fraction(0)
    try:
        store.save_rep(root, rep, c=c, h=h)
        loaded = store.load_rep(root, c, h, rep.N, mode="float")
    except store.CacheError:
        return False
    assert loaded.level_dims == rep.level_dims and set(loaded.blocks) == set(rep.blocks)
    assert all(loaded.blocks[key].tobytes() == blk.tobytes() for key, blk in rep.blocks.items())
    return True


def _table_row(rep, out):
    row = {"relations": _outcome(lambda: verma.relation_verdict(rep)[1]),
           "hermiticity": _outcome(lambda: _hermiticity_ok(rep)),
           "heat identity": _outcome(lambda: _heat_identity_ok(rep))}
    try:
        r_report = bounds.estimate_r(rep.c, rep.N, rep=rep)
        q_report = bounds.estimate_q(rep.c, rep.N, rep=rep, r_report=r_report)
    except np.linalg.LinAlgError:
        row.update(dict.fromkeys(CHECKS[3:6], "LinAlgError"))
    else:
        row.update({"r witness": "pass" if r_report.witness["reproduced"] else "fail",
                    "q witness": "pass" if q_report.witness["reproduced"] else "fail",
                    "chain_ok": "pass" if q_report.derived["chain_ok"] else "fail"})
    return {**row, "rep_verdict": _outcome(lambda: verma.rep_verdict(rep)[1]),
            "bounds": _outcome(lambda: _bounds_ok(rep, out)),
            "store": _outcome(lambda: _store_ok(rep, out / "cache"))}


def test_the_mutated_blocks_differ_from_the_originals(rep):
    b = rep.blocks[TRANSPOSED_BLOCK]
    assert b.shape == (2, 2) and not np.array_equal(b, b.T)
    assert rep.blocks[NAN_BLOCK].shape == (2, 1)
    permuted = rep.blocks[PERMUTED_BLOCK]
    assert permuted.shape == (5, 3) and not np.array_equal(permuted[0], permuted[1])


def test_the_rescaled_level_moves_r_hat(rep):
    # its r witness reproduces the moved constant, so the table shows a pass
    rescaled = _mutants(rep)["level 5 rescaled"]
    assert (bounds.estimate_r(rep.c, rep.N, rep=rescaled).constant
            != bounds.estimate_r(rep.c, rep.N, rep=rep).constant)


def test_every_mutation_is_caught_and_the_table_is_pinned(rep, tmp_path, capsys):
    table = {name: _table_row(mutant, tmp_path / str(i))
             for i, (name, mutant) in enumerate(_mutants(rep).items())}
    assert table == EXPECTED
    for name, row in table.items():
        if name != "none":
            assert "fail" in row.values(), name
