"""The cotor constructions against their column-by-column references.

``Calculus.differential``, ``coefficient_complex`` and ``cobar_complex``
are built as sums and products of Kronecker products of small structure
matrices.  The references below build the same matrices column by column
from the formulas, one ``vec_add`` at a time; the two must agree entry for
entry and in scalar type (``Fraction`` over Q, int over F_p).
"""
import argparse

import pytest

from conftest import named_algebra
from test_calculus import reference_differential, three_calculi

from hopfcalc import cli
from hopfcalc.connections import coefficient_complex, connection_from_coaction
from hopfcalc.fields import Field
from hopfcalc.homology import _basepoint_coadjoint, cobar_complex
from hopfcalc.linalg import Matrix, Vec, tensor_decode, vec_add
from hopfcalc.modules import coadjoint_comodule, regular_modcomod, trivial_modcomod

# (algebra, field, calculus, coefficients) of the verdicts of the
# cotor_homology benchmark workload; None is the bare calculus complex
CASES = [
    ("group:Z3", "Q", "khat", "trivial"), ("dualgroup:Z3", "Q", "k", "trivial"),
    ("sweedler", "Q", "k", "trivial"), ("sweedler", "Q", "khat", "trivial"),
    ("group:S3", "Q", "khat", "trivial"), ("taft:3:2", "F7", "k", "trivial"),
    ("sweedler", "Q", "k", "regular"), ("group:S3", "Q", "khat", "regular"),
    ("dualgroup:Z3", "Q", "general", "regular"), ("taft:3:2", "F7", "k", "regular"),
    ("group:Z4", "Q", "khat", "coadjoint"), ("group:Z5", "Q", "k", "coadjoint"),
    ("group:S3", "Q", "k", "coadjoint"), ("group:S3", "Q", "general", None),
    ("group:Z4", "Q", "general", None), ("sweedler", "Q", "k", None),
    ("taft:3:2", "F7", "k", None),
]


def identify(calc, X, v: Vec) -> Vec:
    """The basis identification C^n (x) B (x) X -> C^n (x) X sending the
    B slot into the module by acting: c... (x) b (x) x -> c... (x) bx."""
    f = calc.field
    bd, xd = calc.B.dim, X.dim
    out: Vec = {}
    for fl, c in v.items():
        head, bx = divmod(fl, bd * xd)
        b, x = divmod(bx, xd)
        for x2, c2 in X.action.get((b, x), {}).items():
            vec_add(f, out, {head * xd + x2: f.mul(c, c2)})
    return out


def reference_coefficient_complex(calc, conn, max_degree):
    """The differentials of ``coefficient_complex``, column by column: the
    column of c (x) x is d(c (x) 1) (x)_B x plus (-1)^n (c (x) 1) . nabla(x),
    each identified into C^(n+1) (x) X by acting with its B slot."""
    X = conn.X
    f = calc.field
    cd, bd, xd = calc.cdim, calc.B.dim, X.dim
    dims = [cd ** n * xd for n in range(max_degree + 1)]
    diffs = []
    for n in range(max_degree):
        sign = f.one() if n % 2 == 0 else f.neg(f.one())
        d = Matrix(dims[n + 1], dims[n], f)
        for col in range(dims[n]):
            head, x = divmod(col, xd)
            rep: Vec = {head * bd + u: cu for u, cu in calc.B.unit.items()}
            dpart = calc.differential(n).apply(rep)
            acc = identify(calc, X, {fl * xd + x: c for fl, c in dpart.items()})
            for fl2, c2 in conn.nabla.column(x).items():
                ci, x2 = divmod(fl2, xd)
                rep2: Vec = {ci * bd + u: cu for u, cu in calc.B.unit.items()}
                prod = calc.product_apply(rep, n, rep2, 1)
                lifted = {fl3 * xd + x2: c3 for fl3, c3 in prod.items()}
                vec_add(f, acc, identify(calc, X, lifted), f.mul(sign, c2))
            d._init_column(col, acc)
        diffs.append(d)
    return diffs


def reference_cobar_complex(comul, I, cd, X, max_degree):
    """The differentials of ``cobar_complex``, column by column: for the
    column of c^1 (x) ... (x) c^n (x) x,

        -(I (x) col) + sum_j (-1)^j (... Delta(c^(j+1)) ...)
                     + (-1)^n (c^1 (x) ... (x) c^n (x) rho(x))."""
    f = X.field
    xd = X.dim
    dims = [cd ** n * xd for n in range(max_degree + 1)]
    diffs = []
    for n in range(max_degree):
        d = Matrix(dims[n + 1], dims[n], f)
        front_stride = cd ** n * xd
        sign_n = f.one() if n % 2 == 0 else f.neg(f.one())
        for col in range(dims[n]):
            idx = tensor_decode(col, [cd] * n + [xd])
            acc: Vec = {}
            for u, cu in I.items():
                vec_add(f, acc, {u * front_stride + col: f.neg(cu)})
            sign = f.one()
            for j in range(n):
                prefix = 0
                for a in idx[:j]:
                    prefix = prefix * cd + a
                tail_dims = [cd] * (n - 1 - j) + [xd]
                tail_flat = 0
                tail_stride = 1
                for a, dd in zip(idx[j + 1:], tail_dims):
                    tail_flat = tail_flat * dd + a
                for dd in tail_dims:
                    tail_stride *= dd
                for fl2, c2 in comul[idx[j]].items():
                    vec_add(f, acc,
                            {(prefix * cd * cd + fl2) * tail_stride + tail_flat:
                             f.mul(sign, c2)})
                sign = f.neg(sign)
            prefix = 0
            for a in idx[:n]:
                prefix = prefix * cd + a
            for fl2, c2 in X.coaction[idx[n]].items():
                vec_add(f, acc, {prefix * cd * xd + fl2: f.mul(sign_n, c2)})
            d._init_column(col, acc)
        diffs.append(d)
    return diffs


def build_case(name, field, kind, coeffs, degree):
    """The calculus and the module (None for the bare complex) of one case,
    built as the ``homology`` command line builds them."""
    H = cli.builtin_hopf(name, Field.parse(field))
    args = argparse.Namespace(calculus=kind, module=coeffs, coalgebra="regular",
                              alpha=None, beta=None)
    calc = cli.build_cli_calculus(args, H, degree)
    return calc, cli.resolve_module(args, H) if coeffs else None


def cobar_inputs(calc):
    """(comul, grouplike, dim) of the coalgebra of the cobar oracle."""
    if calc.kind == "general":
        return calc.C.comul, calc.C.grouplike, calc.C.dim
    return calc.B.comul, calc.B.unit, calc.B.dim


def assert_same(got, want):
    """Equal matrices, and the same scalar type for every entry."""
    assert len(got) == len(want)
    for n, (d, ref) in enumerate(zip(got, want)):
        assert d == ref, n
        assert all(type(v) is type(ref.data[k]) for k, v in d.data.items()), n


def assert_matches_references(calc, X, degree):
    if X is None:
        assert_same([calc.differential(n) for n in range(degree)],
                    [reference_differential(calc, n) for n in range(degree)])
        X = _basepoint_coadjoint(calc)
    else:
        conn = connection_from_coaction(calc, X)
        assert_same(coefficient_complex(calc, conn, degree).diffs,
                    reference_coefficient_complex(calc, conn, degree))
    comul, I, cd = cobar_inputs(calc)
    C_or_H = calc.C if calc.kind == "general" else calc.B
    assert_same(cobar_complex(C_or_H, X, degree).diffs,
                reference_cobar_complex(comul, I, cd, X, degree))


@pytest.mark.parametrize("case", CASES, ids=["-".join(map(str, c)) for c in CASES])
def test_cotor_builds_match_the_references(case):
    assert_matches_references(*build_case(*case, 3), 3)


def test_cotor_builds_match_the_references_at_degree_4():
    assert_matches_references(*build_case("sweedler", "Q", "k", "regular", 4), 4)


def scaled_modules(H):
    X = coadjoint_comodule(H)
    X.action = {k: dict(v) for k, v in H.mul.items()}
    return [trivial_modcomod(H), regular_modcomod(H), X]


def test_scaled_kZ3_cotor_builds_match_the_references():
    H = named_algebra("kZ3_scaled")
    for calc in three_calculi(H):
        assert_matches_references(calc, None, 3)
        for X in scaled_modules(H):
            assert_matches_references(calc, X, 3)


def test_scaled_kZ3_cotor_builds_take_the_exact_path():
    # the coproduct of kZ3_scaled is not integral, so every differential
    # above degree 0 has a Fraction entry and is built by the Fraction
    # fallback of the Matrix kernels
    H = named_algebra("kZ3_scaled")
    for calc in three_calculi(H):
        mats = [calc.differential(n) for n in range(1, 3)]
        mats += cobar_complex(H, _basepoint_coadjoint(calc), 3).diffs[1:]
        for X in scaled_modules(H):
            mats += coefficient_complex(calc, connection_from_coaction(calc, X), 3).diffs[1:]
            mats += cobar_complex(H, X, 3).diffs[1:]
        for m in mats:
            assert m._to_csr() is None, calc
            assert any(v.denominator != 1 for _, v in m.entries()), calc


@pytest.mark.parametrize("case", CASES, ids=["-".join(map(str, c)) for c in CASES])
def test_integral_cotor_builds_are_born_in_csr(case):
    # no silent fallback: on integral structure constants every
    # differential, coefficient complex and cobar complex is stored as
    # int64 CSR, never as a dict
    calc, X = build_case(*case, 3)
    mats = [calc.differential(n) for n in range(3)]
    if X is not None:
        mats += coefficient_complex(calc, connection_from_coaction(calc, X), 3).diffs
    C_or_H = calc.C if calc.kind == "general" else calc.B
    mats += cobar_complex(C_or_H, X or _basepoint_coadjoint(calc), 3).diffs
    for m in mats:
        assert m._dict is None, (case, m)
