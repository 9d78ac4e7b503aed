"""The cotor constructions against their column-by-column references.

``Calculus.differential``, ``coefficient_complex`` and ``cobar_complex``
are built as sums and products of Kronecker products of small structure
matrices.  The references below build the same matrices column by column
from the formulas, one ``vec_add`` at a time; the two must agree entry for
entry and in scalar type (``Fraction`` over Q, int over F_p).
"""
import argparse
import dataclasses

import numpy as np
import pytest

from conftest import (ACCEPTANCE_ALGEBRAS, DictCoalgebra, apply, column, named_algebra,
                      reference_basepoint_coadjoint, vec_add, vec_tensor)
from test_calculus import reference_differential, reference_product_form, three_calculi

from hopfcalc import cli
from hopfcalc.calculus import Calculus
from hopfcalc.connections import coefficient_complex, connection_from_coaction
from hopfcalc.fields import _PRIME_LIMIT, Field, is_prime
from hopfcalc.homology import _basepoint_coadjoint, cobar_complex
from hopfcalc.hopf import BialgebraMorphism, permute_basis
from hopfcalc.linalg import Matrix, Vec, tensor_decode
from hopfcalc.modules import (BimoduleCoalgebra, coadjoint_comodule, regular_modcomod,
                              trivial_modcomod)

# (algebra, field, calculus, coefficients) of the verdicts of the
# cotor_homology benchmark workload; None is the bare calculus complex
BENCH_CASES = [
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
# a prime above 2^62, whose entries p - 1 are objects, and kZ3_scaled over Q,
# whose coproduct is not integral: every cobar differential above degree 0
# is summed on the exact path of ``kron_sum``
P_HUGE = next(n for n in range(2**62 + 1, _PRIME_LIMIT, 2) if is_prime(n))
CASES = BENCH_CASES + [("sweedler", f"F{P_HUGE}", "k", "regular"),
                       ("kZ3_scaled", "Q", "khat", "coadjoint")]


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
        cols = []
        prod = calc.product(n, 1)   # built on demand, so once per degree
        for col in range(dims[n]):
            head, x = divmod(col, xd)
            rep: Vec = {head * bd + u: cu for u, cu in calc.B.unit.items()}
            dpart = apply(calc.differential(n), rep)
            acc = identify(calc, X, {fl * xd + x: c for fl, c in dpart.items()})
            for fl2, c2 in column(conn.nabla, x).items():
                ci, x2 = divmod(fl2, xd)
                rep2: Vec = {ci * bd + u: cu for u, cu in calc.B.unit.items()}
                lifted = {fl3 * xd + x2: c3 for fl3, c3 in
                          apply(prod, vec_tensor(f, rep, rep2, calc.degree_dim(1))).items()}
                vec_add(f, acc, identify(calc, X, lifted), f.mul(sign, c2))
            cols.append(acc)
        diffs.append(Matrix.from_columns(cols, dims[n + 1], f))
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
        cols = []
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
            cols.append(acc)
        diffs.append(Matrix.from_columns(cols, dims[n + 1], f))
    return diffs


def build_case(name, field, kind, coeffs, degree):
    """The calculus and the module (None for the bare complex) of one case,
    built as the ``homology`` command line builds them (``kZ3_scaled`` is the
    tests' own algebra)."""
    H = named_algebra(name) if name == "kZ3_scaled" else cli.builtin_hopf(name, Field.parse(field))
    args = argparse.Namespace(calculus=kind, module=coeffs, coalgebra="regular",
                              alpha=None, beta=None)
    calc = cli.build_cli_calculus(args, H, degree)
    return calc, cli.resolve_module(args, H) if coeffs else None


def cobar_inputs(calc):
    """(comul, grouplike, dim) of the coalgebra of the cobar oracle: the
    dict twin of C for the generalized calculus, H's own tables for K and
    K-hat."""
    if calc.kind == "general":
        C = DictCoalgebra.of(calc.C)
        return C.comul, C.grouplike, C.dim
    return calc.B.comul, calc.B.unit, calc.B.dim


def assert_same(got, want):
    """Equal matrices, and the same scalar type for every entry."""
    assert len(got) == len(want)
    for n, (d, ref) in enumerate(zip(got, want)):
        assert d == ref, n
        ref_data = ref.data
        assert all(type(v) is type(ref_data[k]) for k, v in d.data.items()), n


def assert_matches_references(calc, X, degree):
    if X is None:
        assert_same([calc.differential(n) for n in range(degree)],
                    [reference_differential(calc, n) for n in range(degree)])
        X = _basepoint_coadjoint(calc)
    else:
        conn = connection_from_coaction(calc, X)
        assert_same(coefficient_complex(conn, degree).diffs,
                    reference_coefficient_complex(calc, conn, degree))
    comul, I, cd = cobar_inputs(calc)
    assert_same(cobar_complex(calc.C, X, degree).diffs,
                reference_cobar_complex(comul, I, cd, X, degree))


@pytest.mark.parametrize("case", CASES, ids=["-".join(map(str, c)) for c in CASES])
def test_cotor_builds_match_the_references(case):
    assert_matches_references(*build_case(*case, 3), 3)


@pytest.mark.parametrize("case", CASES[len(BENCH_CASES):],
                         ids=["-".join(map(str, c)) for c in CASES[len(BENCH_CASES):]])
def test_exact_path_cotor_builds_hold_objects(case):
    # the cases past the benchmark's: the oracle's sums above degree 0 are
    # object arrays (test_cotor_builds_match_the_references holds them to the
    # column-by-column references)
    calc, X = build_case(*case, 3)
    assert all(d._csr[2].dtype == object for d in cobar_complex(calc.C, X, 3).diffs[1:])


@pytest.mark.parametrize("case", [c for c in BENCH_CASES if c[3]],
                         ids=["-".join(map(str, c)) for c in BENCH_CASES if c[3]])
def test_coefficient_recursion_matches_both_references_at_degree_4(case):
    # the 13 module cases of the benchmark: the recursion, its product form
    # from the full D_n at the unit and the column-by-column reference agree
    calc, X = build_case(*case, 4)
    conn = connection_from_coaction(calc, X)
    got = coefficient_complex(conn, 4).diffs
    assert_same(got, reference_product_form(calc, conn, 4))
    assert_same(got, reference_coefficient_complex(calc, conn, 4))


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
    # fallback of the Matrix kernels, and stored with object values
    H = named_algebra("kZ3_scaled")
    for calc in three_calculi(H):
        mats = [calc.differential(n) for n in range(1, 3)]
        mats += cobar_complex(calc.C, _basepoint_coadjoint(calc), 3).diffs[1:]
        for X in scaled_modules(H):
            mats += coefficient_complex(connection_from_coaction(calc, X), 3).diffs[1:]
            mats += cobar_complex(calc.C, X, 3).diffs[1:]
        for m in mats:
            assert m._csr[2].dtype == object, calc
            assert any(v.denominator != 1 for _, v in m.entries()), calc


@pytest.mark.parametrize("case", BENCH_CASES, ids=["-".join(map(str, c)) for c in BENCH_CASES])
def test_integral_cotor_builds_are_born_in_csr(case):
    # no silent fallback: on integral structure constants every
    # differential, coefficient complex and cobar complex is stored as
    # int64 values, never as objects
    calc, X = build_case(*case, 3)
    mats = [calc.differential(n) for n in range(3)]
    if X is not None:
        mats += coefficient_complex(connection_from_coaction(calc, X), 3).diffs
    mats += cobar_complex(calc.C, X or _basepoint_coadjoint(calc), 3).diffs
    for m in mats:
        assert m._csr[2].dtype == np.int64, (case, m)


def every_calculus(H):
    """k, khat, and the generalized calculus over the regular bimodule
    coalgebra with alpha and beta each one of id, S and S^-1."""
    C = BimoduleCoalgebra.from_hopf(H)
    maps = [BialgebraMorphism.identity(H), BialgebraMorphism.antipode(H),
            BialgebraMorphism.antipode_inverse(H)]
    return [Calculus.k(H), Calculus.khat(H)] + [Calculus.general(C, a, b)
                                                for a in maps for b in maps]


def typed(table):
    return [sorted((i, type(v), v) for i, v in col.items()) for col in table]


@pytest.mark.parametrize("name", ACCEPTANCE_ALGEBRAS + ["kZ3_scaled"])
def test_the_basepoint_coadjoint_matches_its_reference(name, monkeypatch):
    # the coaction table, scalar types included, equals the per-basis loop
    # over the dict tables; and it is built without the calculus's sandwich
    # matrix, products or differentials, which it is the oracle for
    calls = []
    for method in ("_sandwich_matrix", "product", "differential"):
        monkeypatch.setattr(Calculus, method, lambda *args, method=method: calls.append(method))
    for calc in every_calculus(named_algebra(name)):
        X = _basepoint_coadjoint(calc)
        assert typed(X.coaction) == typed(reference_basepoint_coadjoint(calc)), calc
        assert X.coalgebra is calc.C and X.dim == calc.B.dim and X.action is None
    assert calls == []


@pytest.mark.parametrize("name", ["taft327", "kZ3_scaled", "sweedler"])
def test_the_coadjoint_and_a_relabeling_take_no_field_arithmetic(name, monkeypatch):
    # both are products of the structure matrices, so they run with
    # Field.add, sub and mul raising; each algebra is a copy with an empty
    # memo, so that its structure matrices and S^-1 are built under the patch
    H, G = (dataclasses.replace(named_algebra(name)) for _ in range(2))
    want_k = reference_basepoint_coadjoint(Calculus.k(dataclasses.replace(H)))
    perm = list(range(H.dim))[::-1]
    inv = {p: a for a, p in enumerate(perm)}
    want_s = [{inv[i]: c for i, c in column(H.antipode, p).items()} for p in perm]

    def field_arithmetic(*args):
        raise AssertionError("called Field arithmetic")

    with monkeypatch.context() as patch:
        for method in ("add", "sub", "mul"):
            patch.setattr(Field, method, field_arithmetic)
        X = coadjoint_comodule(H)
        general = Calculus.general(BimoduleCoalgebra.from_hopf(G),
                                   BialgebraMorphism.antipode(G),
                                   BialgebraMorphism.antipode_inverse(G))
        Y = _basepoint_coadjoint(general)
        P = permute_basis(H, perm)
    assert typed(X.coaction) == typed(want_k)
    assert typed(Y.coaction) == typed(reference_basepoint_coadjoint(general))
    assert [column(P.antipode, a) for a in range(H.dim)] == want_s
