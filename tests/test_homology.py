import pytest
from hypothesis import given, settings, strategies as st

from conftest import from_rows, named_algebra

from hopfcalc.calculus import Calculus
from hopfcalc.homology import (ChainComplex, HomologyTable, cobar_complex,
                               compare_cotor, homology_dims)
from hopfcalc.hopf import permute_basis
from hopfcalc.modules import trivial_modcomod


def test_calculus_homology_of_group_algebra_z2():
    H = named_algebra("kZ2")
    rep, _ = compare_cotor(Calculus.khat(H), None, 3)
    assert rep.passed, str(rep)
    assert "homology_dims=[2, 0, 0]" in {c.name for c in rep.checks}


def test_cotor_of_dual_z2_depends_on_characteristic():
    # over Q the coalgebra is cosemisimple and everything above degree 0
    # vanishes; over F2 the classifying-space homology survives forever
    D = named_algebra("dualZ2")
    cx = cobar_complex(D, trivial_modcomod(D), 3)
    assert homology_dims(cx).dims() == [1, 0, 0]
    rep, _ = compare_cotor(Calculus.khat(D), None, 3)
    assert rep.passed and "homology_dims=[2, 0, 0]" in {c.name for c in rep.checks}
    D2 = named_algebra("dualZ2_F2")
    cx2 = cobar_complex(D2, trivial_modcomod(D2), 3)
    assert homology_dims(cx2).dims() == [1, 1, 1]


def test_cotor_of_symmetric_group_vanishes_over_q():
    H = named_algebra("kS3")
    cx = cobar_complex(H, trivial_modcomod(H), 3)
    assert homology_dims(cx).dims() == [1, 0, 0]


def test_calculus_homology_of_taft_algebra():
    rep, _ = compare_cotor(Calculus.khat(named_algebra("taft327")), None, 3)
    assert rep.passed, str(rep)
    assert "homology_dims=[3, 2, 2]" in {c.name for c in rep.checks}


@pytest.mark.parametrize("name", ["kZ3", "dualZ2", "sweedler"])
def test_calculus_complex_agrees_with_cobar_chain_level(name):
    H = named_algebra(name)
    for calc in (Calculus.k(H), Calculus.khat(H)):
        rep, _ = compare_cotor(calc, None, 3)
        assert rep.passed, str(rep)
        rep, _ = compare_cotor(calc, trivial_modcomod(H), 3)
        assert rep.passed, str(rep)


@settings(max_examples=8, deadline=None)
@given(st.permutations(list(range(4))))
def test_homology_invariant_under_basis_permutation(perm):
    H = permute_basis(named_algebra("kZ4"), list(perm))
    cx = cobar_complex(H, trivial_modcomod(H), 3)
    base = cobar_complex(named_algebra("kZ4"),
                         trivial_modcomod(named_algebra("kZ4")), 3)
    assert homology_dims(cx).dims() == homology_dims(base).dims()


def test_chain_complex_rejects_nonsquaring_differential():
    from hopfcalc.fields import QQ
    d0 = from_rows([[1], [0]], QQ)
    d1 = from_rows([[1, 0]], QQ)
    with pytest.raises(ValueError):
        ChainComplex(QQ, [1, 2, 1], [d0, d1])


def test_chain_complex_rejects_shape_mismatch():
    from hopfcalc.fields import QQ
    d0 = from_rows([[1], [0]], QQ)
    with pytest.raises(ValueError):
        ChainComplex(QQ, [1, 3], [d0])


def test_cobar_rejects_curved_coefficients():
    H = named_algebra("sweedler")
    X = trivial_modcomod(H)
    X.coaction[0][2 * X.dim] = H.field.one()     # spoil coassociativity
    with pytest.raises(ValueError):
        cobar_complex(H, X, 2)


def test_homology_table_formatting():
    t = HomologyTable([(0, 2), (1, 0)])
    assert t.dims() == [2, 0]
    assert "2" in str(t)
