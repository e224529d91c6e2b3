"""Mutation battery: break a float rep on purpose and see which checks notice.

Each mutation changes the blocks of the float (c, h, N) = (1/2, 0, 12)
quotient, and each check runs on the mutated rep as the CLI and the
acceptance battery run it.  A check's outcome is "pass", "fail", or
"LinAlgError" when it raises that.  The table pins which check catches
which mutation, the blind spots included: the r and q witnesses recompute
their cells from the same mutated blocks, the chain only compares the two
estimates, and the heat identity and every norm are blind to a block's
transposition, so only the relation sweep fails the L_0 and transposed
mutations.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from vircut import bounds, smear, verma

HEAT_EPS = (1e-4, 1e-2, 0.5, 3.0, 20.0)
HEAT_TOL = 1e-12  # the commutator-chain criterion's budget

# L_{-1} from level 3 to level 4 (2 x 1), inside the relation sweep's window
NAN_BLOCK = (-1, 3)
# L_1 from level 5 to level 4: square (2 x 2) and not symmetric
TRANSPOSED_BLOCK = (1, 5)

CHECKS = ("relations", "heat identity", "r witness", "q witness", "chain_ok")

# which check catches which mutation ("pass" means it does not)
EXPECTED = {
    "none": dict.fromkeys(CHECKS, "pass"),
    "L_0 -> 1.5 L_0 + 0.01": {"relations": "fail", "heat identity": "pass",
                              "r witness": "pass", "q witness": "pass",
                              "chain_ok": "pass"},
    "NaN in one block": {"relations": "fail", "heat identity": "LinAlgError",
                         "r witness": "LinAlgError", "q witness": "LinAlgError",
                         "chain_ok": "LinAlgError"},
    "one block transposed": {"relations": "fail", "heat identity": "pass",
                             "r witness": "pass", "q witness": "pass",
                             "chain_ok": "pass"},
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
    return {
        "none": rep,
        "L_0 -> 1.5 L_0 + 0.01": _with_blocks(rep, scaled_l0),
        "NaN in one block": _with_blocks(rep, {NAN_BLOCK: nan}),
        "one block transposed": _with_blocks(
            rep, {TRANSPOSED_BLOCK: rep.blocks[TRANSPOSED_BLOCK].T.copy()}),
    }


def _outcome(check):
    try:
        return "pass" if check() else "fail"
    except np.linalg.LinAlgError:  # a check that raises has noticed, loudly
        return "LinAlgError"


def _heat_identity_ok(rep):
    worst = 0.0
    for n in range(-rep.N, rep.N + 1):
        if n:
            for eps in HEAT_EPS:
                worst = max(worst, smear.heat_identity_residual(rep, n, eps))
    return worst <= HEAT_TOL


def _table_row(rep):
    row = {"relations": _outcome(lambda: verma.relation_verdict(rep)[1]),
           "heat identity": _outcome(lambda: _heat_identity_ok(rep))}
    try:
        r_report = bounds.estimate_r(rep.c, rep.N, rep=rep)
        q_report = bounds.estimate_q(rep.c, rep.N, rep=rep, r_report=r_report)
    except np.linalg.LinAlgError:
        return {**row, **dict.fromkeys(CHECKS[2:], "LinAlgError")}
    return {**row,
            "r witness": "pass" if r_report.witness["reproduced"] else "fail",
            "q witness": "pass" if q_report.witness["reproduced"] else "fail",
            "chain_ok": "pass" if q_report.derived["chain_ok"] else "fail"}


def test_the_mutated_blocks_differ_from_the_originals(rep):
    b = rep.blocks[TRANSPOSED_BLOCK]
    assert b.shape == (2, 2) and not np.array_equal(b, b.T)
    assert rep.blocks[NAN_BLOCK].shape == (2, 1)


def test_every_mutation_is_caught_and_the_table_is_pinned(rep):
    table = {name: _table_row(mutant) for name, mutant in _mutants(rep).items()}
    assert table == EXPECTED
    for name, row in table.items():
        if name != "none":
            assert "fail" in row.values(), name
