"""Tensor products and central-charge additivity."""

from fractions import Fraction

from vircut.verma import (
    measure_central_charge,
    relation_residual_summary,
    tensor_rep,
    truncated_rep,
)


def _vacuum(c, N=4):
    return truncated_rep(Fraction(c), 0, N)


def test_tensor_level_dimensions():
    a = _vacuum(Fraction(1, 2))
    t = tensor_rep(a, a, 4)
    # graded pieces of the product of two vacuum towers (1,0,1,1,2)
    assert t.level_dims == (1, 0, 2, 2, 5)


def test_central_charge_adds_exactly():
    a = _vacuum(Fraction(1, 2))
    b = _vacuum(Fraction(4, 5))
    assert measure_central_charge(tensor_rep(a, a, 4)) == 1
    assert measure_central_charge(tensor_rep(a, b, 4)) == Fraction(13, 10)


def test_tensor_satisfies_relations_exactly():
    a = _vacuum(Fraction(1, 2))
    b = _vacuum(Fraction(4, 5))
    t = tensor_rep(a, b, 4)
    summary = relation_residual_summary(t, max_mode=2)
    assert summary["exact_zero"]


def test_tensor_inner_product_data_present():
    a = _vacuum(Fraction(1, 2))
    t = tensor_rep(a, a, 4)
    assert t.basis_norms is not None
    assert t.basis == "tensor"  # the pairing of factor bases
    assert len(t.norms(4)) == t.dim(4)
