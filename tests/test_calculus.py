import argparse
import ast
import dataclasses
import functools
import itertools
import pathlib
import random
import types

import numpy as np
import pytest

from conftest import (ACCEPTANCE_ALGEBRAS, DictCoalgebra, Ref, apply, basis_vec, column,
                      comultiply_iter, degree_dims, from_rows, hopf_conj, lact, multiply,
                      named_algebra, product_apply, ract, unit_element, vec_add, vec_tensor,
                      with_column)

from hopfcalc import calculus, cli, connections, homology, hopf, linalg, modules
from hopfcalc.calculus import Calculus, _witness, verify_dga
from hopfcalc.fields import Field
from hopfcalc.hopf import BialgebraMorphism, permute_basis
from hopfcalc.linalg import Matrix, Vec, identity_defect_witness, tensor_decode, tensor_encode
from hopfcalc.connections import coefficient_complex, connection_from_coaction
from hopfcalc.modules import BimoduleCoalgebra, action_matrix, trivial_modcomod

ROOT = pathlib.Path(__file__).resolve().parent.parent


def hopf_oracle(kind: str, H):
    """What the per-entry references below read of K (``kind`` "k") or
    K-hat ("khat") over H: its kind and H, with no calculus built."""
    return types.SimpleNamespace(kind=kind, B=H)


def reference_tables(calc):
    """(cd, comul, g): the dimension, coproduct table and basepoint of C
    that the references read, H's own tables for K and K-hat and the dict
    twin of C for the generalized calculus."""
    if calc.kind == "general":
        C = DictCoalgebra.of(calc.C)
        return C.dim, C.comul, C.grouplike
    return calc.B.dim, calc.B.comul, calc.B.unit


def reference_sand(calc):
    """sand(a, c, z) = alpha(e_a) . e_c . beta(e_z) in C, through the
    structure maps one basis vector at a time: a . c . S^-1(z) for K and
    a . c . S(z) for K-hat, with conj from H itself (``hopf_conj``), and
    through the dict twin of C and alpha, beta for the generalized
    calculus."""
    f = calc.B.field
    if calc.kind == "general":
        C, alpha, beta = DictCoalgebra.of(calc.C), calc.alpha.matrix, calc.beta.matrix

        def sand(a, c, z):
            return ract(C, lact(C, apply(alpha, basis_vec(f, a)), basis_vec(f, c)),
                        apply(beta, basis_vec(f, z)))
    else:
        H, conj = calc.B, hopf_conj(calc.kind, calc.B)

        def sand(a, c, z):
            return multiply(H, multiply(H, basis_vec(f, a), basis_vec(f, c)),
                            apply(conj, basis_vec(f, z)))
    return functools.cache(sand)


def reference_sandwich_matrix(calc) -> Matrix:
    """The sandwich matrix column by column, the oracle for
    ``Calculus._sandwich_matrix``: column (b, c) is the sum of
    sand(b_(1), c, b_(3)) (x) b_(2) over Delta^(2)(b)."""
    f, bd, sand = calc.B.field, calc.B.dim, reference_sand(calc)
    cd = reference_tables(calc)[0]
    cols = []
    for b in range(bd):
        legs = comultiply_iter(calc.B, basis_vec(f, b), 2)
        for c in range(cd):
            col: Vec = {}
            for fl, cl in legs.items():
                b12, b3 = divmod(fl, bd)
                b1, b2 = divmod(b12, bd)
                vec_add(f, col, {s * bd + b2: v for s, v in sand(b1, c, b3).items()}, cl)
            cols.append(col)
    return Matrix.from_columns(cols, cd * bd, f)


def reference_product(calc, n: int, m: int) -> Matrix:
    """The graded product by direct enumeration, the oracle for
    ``Calculus.product``: for u = prefix (x) b and v = c_1 (x) ... (x) c_m (x) w,
    sum over the legs l_0 (x) ... (x) l_2m of Delta^(2m)(b) of

        prefix (x) sand(l_0, c_1, l_2m) (x) ... (x) sand(l_(m-1), c_m, l_(m+1))
               (x) l_m w."""
    f, bd, sand = calc.B.field, calc.B.dim, reference_sand(calc)
    cd = reference_tables(calc)[0]
    cols = []
    for cu in range(cd ** n * bd):
        uidx = tensor_decode(cu, [cd] * n + [bd])
        prefix = 0
        for a in uidx[:n]:
            prefix = prefix * cd + a
        b = uidx[n]
        comul = comultiply_iter(calc.B, basis_vec(f, b), 2 * m)
        legs = [(tensor_decode(fl, [bd] * (2 * m + 1)), c) for fl, c in comul.items()]
        for cv in range(cd ** m * bd):
            vidx = tensor_decode(cv, [cd] * m + [bd])
            acc: Vec = {}
            for l, cl in legs:
                term: Vec = {prefix: cl}
                for k in range(1, m + 1):
                    piece = sand(l[k - 1], vidx[k - 1], l[2 * m + 1 - k])
                    term = vec_tensor(f, term, piece, cd)
                final = calc.B.mul.get((l[m], vidx[m]), {})
                vec_add(f, acc, vec_tensor(f, term, final, bd))
            cols.append(acc)
    return Matrix.from_columns(cols, cd ** (n + m) * bd, f)


def reference_differential(calc, n: int) -> Matrix:
    """The differential by direct enumeration, the oracle for
    ``Calculus.differential``: column by column, the basepoint term, the
    interior coproducts with alternating signs and the sandwich on the B
    slot, as in the module docstring of ``hopfcalc.calculus``."""
    f, bd = calc.B.field, calc.B.dim
    cd, comul_c, basepoint = reference_tables(calc)
    sandwich = reference_sandwich_matrix(calc)
    dims = [cd] * n + [bd]
    front_stride = cd ** n * bd
    neg = f.neg(f.one())
    sign_n = f.one() if n % 2 == 0 else neg
    cols = []
    for col in range(front_stride):
        idx = tensor_decode(col, dims)
        acc: Vec = {}
        for u, cu in basepoint.items():
            vec_add(f, acc, {u * front_stride + col: f.mul(neg, cu)})
        sign = f.one()
        for j in range(n):
            prefix = 0
            for a in idx[:j]:
                prefix = prefix * cd + a
            tail_flat = 0
            tail_stride = 1
            for a, d in zip(idx[j + 1:], dims[j + 1:]):
                tail_flat = tail_flat * d + a
                tail_stride *= d
            for fl2, c2 in comul_c[idx[j]].items():
                fl = (prefix * cd * cd + fl2) * tail_stride + tail_flat
                vec_add(f, acc, {fl: f.mul(sign, c2)})
            sign = f.neg(sign)
        prefix = 0
        for a in idx[:n]:
            prefix = prefix * cd + a
        # sand(b_(1), I, b_(3)) (x) b_(2): the sandwich at the basepoint
        for u, cu in basepoint.items():
            for fl2, c2 in column(sandwich, idx[n] * cd + u).items():
                vec_add(f, acc, {prefix * cd * bd + fl2: f.mul(sign_n, f.mul(cu, c2))})
        cols.append(acc)
    return Matrix.from_columns(cols, cd ** (n + 1) * bd, f)


def reference_graded_unit(calc: Calculus, max_degree: int) -> bool:
    """The unit as a two-sided identity, basis vector by basis vector
    through product(0, n) and product(n, 0): the oracle for the
    ``graded_unit`` line of ``verify_dga``."""
    f = calc.field
    one = unit_element(calc)
    for n in range(max_degree + 1):
        # product(n, 0) is built on demand, so once per degree
        left, right = calc.product(0, n), calc.product(n, 0)
        for i in range(calc.degree_dim(n)):
            e = basis_vec(f, i)
            if (apply(left, vec_tensor(f, one, e, calc.degree_dim(n))) != e
                    or apply(right, vec_tensor(f, e, one, calc.degree_dim(0))) != e):
                return False
    return True


def graded_unit_line(calc: Calculus, max_degree: int) -> str:
    """The status of the ``graded_unit`` line, which carries no witness."""
    rep = verify_dga(calc, max_degree=max_degree)
    line = next(c for c in rep.checks if c.name == "graded_unit")
    assert line.witness is None
    return line.status


def three_calculi(H):
    C = BimoduleCoalgebra.from_hopf(H)
    return [Calculus.k(H), Calculus.khat(H),
            Calculus.general(C, BialgebraMorphism.identity(H),
                             BialgebraMorphism.antipode(H))]


def four_calculi(H):
    """``three_calculi`` and the generalized calculus with alpha = S and
    beta = S^-1, whose alpha slot is not the identity, so that a sandwich
    that ignores alpha shows."""
    return three_calculi(H) + [Calculus.general(
        BimoduleCoalgebra.from_hopf(H), BialgebraMorphism.antipode(H),
        BialgebraMorphism.antipode_inverse(H))]


@pytest.mark.parametrize("name", ["kZ2", "kZ3", "dualZ2", "dualZ2_F2", "sweedler",
                                  "kZ3_scaled"])
def test_dga_axioms_hold_for_both_hopf_calculi(name):
    H = named_algebra(name)
    for calc in (Calculus.k(H), Calculus.khat(H)):
        rep = verify_dga(calc, max_degree=3)
        assert rep.passed, str(rep)


def test_dga_axioms_for_general_calculus():
    H = named_algebra("sweedler")
    C = BimoduleCoalgebra.from_hopf(H)
    calc = Calculus.general(C, BialgebraMorphism.identity(H),
                            BialgebraMorphism.antipode(H))
    assert verify_dga(calc, max_degree=3).passed


def test_degree_dims():
    H = named_algebra("sweedler")
    calc = Calculus.k(H)
    assert [calc.degree_dim(n) for n in range(4)] == [4, 16, 64, 256]
    assert degree_dims(calc, 2) == [4, 4, 4]


def test_corrupted_differential_is_detected():
    H = named_algebra("kZ3")
    calc = Calculus.khat(H)
    d1 = calc.differential(1)
    col = dict(column(d1, 0))
    k = next(iter(col)) if col else 0
    col[k] = calc.field.add(col.get(k, calc.field.zero()), calc.field.one())
    calc._diff[1] = with_column(d1, 0, col)
    rep = verify_dga(calc, max_degree=2)
    assert not rep.passed
    bad = rep.failures()[0]
    assert bad.witness is not None


@pytest.mark.parametrize("name", ACCEPTANCE_ALGEBRAS + ["kZ3_scaled"])
def test_sandwich_matrix_matches_the_reference_loop(name):
    # kZ3_scaled takes the Fraction path of Matrix.kron and @
    for calc in four_calculi(named_algebra(name)):
        assert calc._sandwich_matrix() == reference_sandwich_matrix(calc), calc


@pytest.mark.parametrize("name", ["kZ3", "sweedler", "dualZ2", "taft327", "kZ3_scaled"])
def test_products_match_the_reference_enumeration(name):
    for calc in four_calculi(named_algebra(name)):
        for n in range(3):
            for m in range(3 - n):
                assert calc.product(n, m) == reference_product(calc, n, m), (calc, n, m)


@pytest.mark.parametrize("name", ["kZ3", "sweedler", "dualZ2", "dualZ2_F2", "taft327"])
def test_differentials_match_the_reference_enumeration(name):
    for calc in four_calculi(named_algebra(name)):
        for n in range(4):
            d, ref = calc.differential(n), reference_differential(calc, n)
            assert d == ref, (calc, n)
            # the same scalar type too: Fraction over Q, int over F_p
            ref_data = ref.data
            assert all(type(v) is type(ref_data[k]) for k, v in d.data.items())


def reference_product_form(calc: Calculus, conn, max_degree: int):
    """The coefficient differentials in their product form, from the full
    D_n at the unit, D_n L_n with L_n = I_(C^n) (x) u:

        d_X^n = (I_(C^(n+1)) (x) act) (D_n L_n (x) I_X) + (-1)^n I_(C^n) (x) K.

    The tests-only oracle of the recursion d_X^n = E (x) I - I_C (x) d_X^(n-1)
    of ``connections.coefficient_complex``, which builds none of these
    products."""
    f, cd, xd = calc.field, calc.cdim, conn.X.dim
    act, u, K = action_matrix(conn.X), calc.B.unit_column(), connections._leibniz_term(conn)

    def eye(k):
        return Matrix.identity(k, f)

    out = []
    for n in range(max_degree):
        at_unit = calc.differential(n) @ eye(cd ** n).kron(u)
        d, tail = eye(cd ** (n + 1)).kron(act) @ at_unit.kron(eye(xd)), eye(cd ** n).kron(K)
        out.append(d - tail if n % 2 else d + tail)
    return out


@pytest.mark.parametrize("name", ["kZ3", "sweedler", "dualZ2", "dualZ2_F2", "kS3", "taft327",
                                  "kZ3_scaled", "kZ2"])
def test_differential_at_unit_matches_the_full_product(name):
    # the coefficient differentials of the recursion against their product
    # form from the full D_n at the unit (``reference_product_form``), in
    # every degree of the calculus: the same stored CSR arrays, of the same
    # dtype.  dualZ2 and dualZ2_F2 have their basepoint off a basis vector,
    # and kZ3_scaled takes the Fraction path
    H = named_algebra(name)
    for calc in four_calculi(H):
        for coeffs in ("trivial", "regular", "coadjoint"):
            conn = connection_from_coaction(
                calc, cli.resolve_module(argparse.Namespace(module=coeffs), H))
            got = coefficient_complex(conn, calc.max_degree).diffs
            want = reference_product_form(calc, conn, calc.max_degree)
            assert len(got) == len(want) == calc.max_degree
            for n, (d, w) in enumerate(zip(got, want)):
                assert d == w and all(a.dtype == b.dtype and np.array_equal(a, b)
                                      for a, b in zip(d._csr, w._csr)), (calc, coeffs, n)


def test_the_recursion_of_the_coefficient_differentials_needs_a_unital_action():
    # with the action of Sweedler's trivial module doubled, the product form
    # does not obey the recursion (the refusal is tested in test_homology)
    H = named_algebra("sweedler")
    X = trivial_modcomod(H)
    X.action = {k: {x: H.field.of(2) * c for x, c in v.items()} for k, v in X.action.items()}
    calc = Calculus.k(H)
    conn = connection_from_coaction(calc, X)
    d = reference_product_form(calc, conn, 2)
    assert d[1] != connections._coefficient_differential(calc, d[0])


@pytest.mark.parametrize("name", ["kZ3", "sweedler", "kS3"])
def test_products_are_block_copies_of_the_degree_zero_row(name):
    for calc in three_calculi(named_algebra(name)):
        for n in range(1, 4):
            for m in range(4 - n):
                eye = Matrix.identity(calc.cdim ** n, calc.field)
                assert calc.product(n, m) == eye.kron(calc.product(0, m)), (calc, n, m)


def reference_inferred_lines(calc: Calculus, max_degree: int):
    """Every line of ``verify_dga``'s report computed in full, as (name,
    status, witness) in report order: every d_squared_zero[n],
    leibniz[n,m] and associativity[n,m,l], and ``graded_unit`` through
    ``reference_graded_unit``.  The oracle for the lines ``verify_dga``
    emits, inferred ones included."""
    f = calc.field
    product = functools.lru_cache(maxsize=None)(calc.product)
    d = calc.differential

    def eye(n):
        return Matrix.identity(calc.degree_dim(n), f)

    def line(family, degs, terms):
        w = identity_defect_witness(f, terms)
        return (f"{family}[{','.join(map(str, degs))}]", "pass" if w is None else "fail",
                None if w is None else _witness(calc, w, list(degs)))

    out = [line("d_squared_zero", (n,), [(1, [d(n + 1), d(n)])]) for n in range(max_degree)]
    for n in range(max_degree):
        for m in range(max_degree - n):
            sign = 1 if n % 2 == 0 else -1
            out.append(line("leibniz", (n, m), [
                (1, [d(n + m), product(n, m)]),
                (-1, [product(n + 1, m), (d(n), eye(m))]),
                (-sign, [product(n, m + 1), (eye(n), d(m))]),
            ]))
    for n in range(max_degree + 1):
        for m in range(max_degree + 1 - n):
            for l in range(max_degree + 1 - n - m):
                out.append(line("associativity", (n, m, l), [
                    (1, [product(n + m, l), (product(n, m), eye(l))]),
                    (-1, [product(n, m + l), (eye(n), product(m, l))]),
                ]))
    out.append(("graded_unit", "pass" if reference_graded_unit(calc, max_degree) else "fail",
                None))
    return out


def inferred_lines(calc: Calculus, max_degree: int):
    """Every line of ``verify_dga``'s report, as (name, status, witness)."""
    rep = verify_dga(calc, max_degree=max_degree)
    return [(c.name, c.status, c.witness) for c in rep.checks]


def takes_the_inferred_path(calc: Calculus) -> bool:
    """The hypotheses of ``verify_dga``'s associativity inference, computed
    here: the two lowest associativity lines and the right unit
    mu (I_B (x) u) = I."""
    f, bd = calc.field, calc.B.dim
    low = reference_inferred_lines(calc, 1)
    right_unit = (calc.product(0, 0) @ Matrix.identity(bd, f).kron(calc.B.unit_column())
                  == Matrix.identity(bd, f))
    return right_unit and all(status == "pass" for name, status, _ in low
                              if name in ("associativity[0,0,0]", "associativity[0,0,1]"))


def assert_lines_match_the_oracle(calc: Calculus, max_degree: int):
    got = inferred_lines(calc, max_degree)
    assert got == reference_inferred_lines(calc, max_degree), calc
    return got


def test_corrupted_product_gives_the_full_associativity_witnesses():
    H = named_algebra("sweedler")
    calc = Calculus.khat(H)
    f = calc.field
    p01 = calc.product(0, 1)
    col = dict(column(p01, 5))
    k = next(iter(col)) if col else 0
    col[k] = f.add(col.get(k, f.zero()), f.one())
    calc._prod[1] = with_column(p01, 5, col)
    rep = verify_dga(calc, max_degree=3)
    got = [(c.name, c.witness) for c in rep.checks if c.name.startswith("associativity")]
    full = [(name, w) for name, _, w in reference_inferred_lines(calc, 3)
            if name.startswith("associativity")]
    assert got == full
    failing = [name for name, w in full if w is not None]
    assert "associativity[0,1,0]" in failing and "associativity[1,1,0]" in failing


def test_golden_dga_lines_match_the_full_oracle():
    # the Taft(3,2) line at degree 4 is checked at degree 3: its full
    # oracle takes ~35 s and 2.7 GB, and its golden entry was captured with
    # every n = 0 line computed
    from test_golden import COMMANDS
    for argv in COMMANDS:
        if argv[0] == "verify-dga":
            args = cli.build_parser().parse_args(argv)
            D = min(args.max_degree, 3)
            calc = cli.build_cli_calculus(args, cli.resolve_hopf(args), D)
            assert_lines_match_the_oracle(calc, D)


def test_defect_witnesses_are_the_first_entry_in_row_major_order():
    # the four failing associativity lines of a golden entry whose int64
    # witnesses were once the first entry in scipy's unsorted column order:
    # each is the first entry of the defect built with the dict reference
    argv = ["verify-dga", "--builtin", "sweedler", "--calculus", "general", "--alpha", "s",
            "--beta", "sinv", "--max-degree", "2"]
    args = cli.build_parser().parse_args(argv)
    calc = cli.build_cli_calculus(args, cli.resolve_hopf(args), 2)
    f, product = calc.field, calc.product

    def eye(n):
        return Matrix.identity(calc.degree_dim(n), f)

    def ref(x):
        return Ref(f, x.rows, x.cols, x.data)

    for (n, m, l), column in [((0, 0, 1), (1, 2, 5)), ((0, 0, 2), (1, 2, 21)),
                              ((0, 1, 1), (1, 2, 5)), ((1, 0, 1), (1, 2, 5))]:
        lhs = ref(product(n + m, l)) @ ref(product(n, m).kron(eye(l)))
        rhs = ref(product(n, m + l)) @ ref(eye(n).kron(product(m, l)))
        defect = lhs.plus(rhs, f.neg(f.one())).d
        first = min(defect)
        w = identity_defect_witness(f, [(1, [product(n + m, l), (product(n, m), eye(l))]),
                                        (-1, [product(n, m + l), (eye(n), product(m, l))])])
        assert w == (*first, defect[first])
        assert _witness(calc, w, [n, m, l])["column"] == column


@pytest.mark.parametrize("name", ACCEPTANCE_ALGEBRAS + ["kZ3_scaled"])
def test_associativity_lines_match_the_full_oracle(name):
    # kZ3_scaled takes the Fraction path
    for calc in four_calculi(named_algebra(name)):
        assert_lines_match_the_oracle(calc, 3)


def _dga_cases():
    """The (algebra, field, calculus, degree) cases of the benchmark's
    ``dga_certify`` workload, read from its source without importing it."""
    tree = ast.parse((ROOT / "verdictbench" / "workloads.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and getattr(n.targets[0], "id", None) == "DGA_CASES")
    return ast.literal_eval(node.value)


def test_benchmark_dga_cases_match_the_full_oracle():
    cases = _dga_cases()
    assert len(cases) == 19
    rng = random.Random(12)
    for name, field, kind, D in cases:
        H = cli.builtin_hopf(name, Field.parse(field))
        H = permute_basis(H, rng.sample(range(H.dim), H.dim))
        calc = cli.build_cli_calculus(argparse.Namespace(calculus=kind), H, D)
        assert_lines_match_the_oracle(calc, D)


def _add_one(rng: random.Random, m: Matrix) -> Matrix:
    """A new matrix: ``m`` with 1 added to one seeded entry."""
    f = m.field
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    col = column(m, j)
    col[i] = f.add(col.get(i, f.zero()), f.one())
    return with_column(m, j, col)


# (algebra, seeded corruptions of each kind, degree)
CORRUPTED = [("kZ3", 2, 3), ("sweedler", 2, 3), ("dualZ2", 2, 3), ("kS3", 1, 3),
             ("taft327", 1, 2)]


def _corrupted_calculi(rng: random.Random):
    """(what, calculus, degree) with one seeded entry corrupted at the
    root: the sandwich matrix T (before any product is built), alpha and
    beta of a generalized calculus, mu, the unit, D_0, and Delta_C of a
    generalized calculus, which only E, and through it D_n for n >= 1,
    reads."""
    for name, reps, D in CORRUPTED:
        H = named_algebra(name)
        f = H.field
        for _ in range(reps):
            for calc in four_calculi(H):
                calc._sandwich = _add_one(rng, calc._sandwich_matrix())
                yield f"{name} T", calc, D
            for calc in four_calculi(H):
                calc._diff[0] = _add_one(rng, calc.differential(0))
                yield f"{name} D_0", calc, D
            C = BimoduleCoalgebra.from_hopf(H)
            for slot in ("alpha", "beta"):
                maps = {"alpha": BialgebraMorphism.identity(H),
                        "beta": BialgebraMorphism.antipode(H)}
                m = maps[slot]
                maps[slot] = BialgebraMorphism(H, H, _add_one(rng, m.matrix), m.variant)
                yield f"{name} {slot}", Calculus.general(C, maps["alpha"], maps["beta"]), D
            mul = {key: dict(v) for key, v in H.mul.items()}
            key = (rng.randrange(H.dim), rng.randrange(H.dim))
            t = rng.randrange(H.dim)
            col = mul.setdefault(key, {})
            col[t] = f.add(col.get(t, f.zero()), f.one())
            unit = dict(H.unit)
            u = rng.randrange(H.dim)
            unit[u] = f.add(unit.get(u, f.zero()), f.one())
            for what, B in (("mu", dataclasses.replace(H, mul=mul)),
                            ("unit", dataclasses.replace(H, unit=unit))):
                for calc in four_calculi(B):
                    yield f"{name} {what}", calc, D
            comul = C.comul.columns()
            c, t = rng.randrange(C.dim), rng.randrange(C.dim ** 2)
            comul[c][t] = f.add(comul[c].get(t, f.zero()), f.one())
            bad = dataclasses.replace(C, comul=Matrix.from_columns(comul, C.dim ** 2, f))
            for calc in four_calculi(H)[2:]:
                yield f"{name} Delta_C", Calculus.general(bad, calc.alpha, calc.beta), D


def test_corruptions_at_the_root_match_the_full_oracle():
    paths = {True: [], False: []}
    leibniz_above_zero, leibniz_above_one, squares_above_zero = [], [], []
    for what, calc, D in _corrupted_calculi(random.Random(5)):
        inferred = takes_the_inferred_path(calc)
        lines = assert_lines_match_the_oracle(calc, D)
        paths[inferred].append((what, all(status == "pass" for name, status, _ in lines
                                          if name.startswith("associativity"))))
        failing = [name for name, status, _ in lines if status == "fail"]
        leibniz_above_zero += [what for name in failing
                               if name.startswith("leibniz") and not name.startswith("leibniz[0,")]
        leibniz_above_one += [what for name in failing
                              if name.startswith("leibniz[0,") and name not in
                              ("leibniz[0,0]", "leibniz[0,1]")]
        if "d_squared_zero[0]" not in failing:
            squares_above_zero += [what for name in failing if name.startswith("d_squared_zero")]
    # both associativity paths are taken; every inferred case passes by the
    # docstring's proof, and some full-path case fails
    assert paths[True] and all(ok for _, ok in paths[True])
    assert paths[False] and not all(ok for _, ok in paths[False])
    # some Leibniz line above n = 0 fails, so its full-path witness is compared
    assert leibniz_above_zero
    # some leibniz[0,m] with m >= 2 fails, so the full path past the two low
    # Leibniz lines is compared
    assert leibniz_above_one
    # a corrupted Delta_C leaves d_squared_zero[0] holding and breaks Z, so
    # the full d_squared_zero[n >= 1] witnesses are compared
    assert any(what.endswith("Delta_C") for what in squares_above_zero)


def test_a_product_without_a_right_unit_takes_the_full_path():
    # mu(e_0 (x) e_0) = e_0 and 0 otherwise is associative but has no right
    # unit; with this T both low lines hold and associativity[0,0,2] fails,
    # so the inference needs the unit
    H = named_algebra("dualZ2_F2")
    f = H.field
    calc = Calculus.k(H)
    calc._prod[0] = from_rows([[1, 0, 0, 0], [0, 0, 0, 0]], f)
    calc._sandwich = from_rows([[0, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [1, 0, 0, 1]], f)
    assert not takes_the_inferred_path(calc)
    lines = assert_lines_match_the_oracle(calc, 3)
    status = {name: s for name, s, _ in lines}
    assert status["associativity[0,0,0]"] == status["associativity[0,0,1]"] == "pass"
    assert status["associativity[0,0,2]"] == "fail"


def test_leibniz_without_a_right_unit_takes_the_full_path():
    # the product of the test above, D_0 = 0 and a T for which both low
    # Leibniz lines hold and leibniz[0,2] fails: K = 0 is read off
    # leibniz[0,1] through the right unit, so the inference needs it
    H = named_algebra("dualZ2_F2")
    f = H.field
    calc = Calculus.k(H)
    calc._prod[0] = from_rows([[1, 0, 0, 0], [0, 0, 0, 0]], f)
    calc._sandwich = from_rows([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 1], [0, 1, 0, 1]], f)
    calc._diff[0] = Matrix.zero(4, 2, f)
    status = {name: s for name, s, _ in assert_lines_match_the_oracle(calc, 3)}
    assert status["leibniz[0,0]"] == status["leibniz[0,1]"] == "pass"
    assert status["leibniz[0,2]"] == "fail"


def test_graded_unit_reads_the_sandwich_at_the_unit():
    # T corrupted at u (x) c before A_1 is built from it: with the right
    # unit, A_1 (u (x) I_C (x) u) = T (u (x) I_C), so the left unit on A_1
    # fails, and the line fails with its oracle
    for name in ("kZ3", "sweedler"):
        for calc in three_calculi(named_algebra(name)):
            T = calc._sandwich_matrix()
            assert not calc._prod
            col = column(T, 0)
            col[1] = calc.field.add(col.get(1, calc.field.zero()), calc.field.one())
            calc._sandwich = with_column(T, 0, col)
            assert reference_graded_unit(calc, 3) is False
            assert graded_unit_line(calc, 3) == "fail", calc


def test_verify_dga_infers_the_higher_associativity_lines(monkeypatch):
    # d_squared_zero[0] and Z + leibniz[0,0] and leibniz[0,1] + the two low
    # associativity lines + the right unit + the left unit on mu and A_1;
    # every line passes
    import hopfcalc.linalg
    from test_cli import count_calls
    calls = count_calls(monkeypatch, hopfcalc.linalg, "identity_defect_witness")
    rep = verify_dga(Calculus.khat(named_algebra("sweedler"), 4), 4)
    assert rep.passed and len(rep.checks) == 4 + 10 + 35 + 1
    assert len(calls) == 9


def test_a_passing_verify_dga_builds_only_the_degree_zero_products(monkeypatch):
    # A_0..A_2, D_0 and D_1 and nothing else, whatever the degree: no
    # product(n, m) with n > 0 is cached
    from test_cli import count_calls
    products = count_calls(monkeypatch, Calculus, "_build_product")
    differentials = count_calls(monkeypatch, Calculus, "_build_differential")
    for D in (4, 6):
        calc = Calculus.khat(named_algebra("sweedler"), D)
        assert verify_dga(calc, D).passed
        assert sorted(calc._prod) == [0, 1, 2] and sorted(calc._diff) == [0, 1]
    assert len(products) == 2 * 3 and len(differentials) == 2 * 2


@pytest.mark.parametrize("name", ["kZ2", "kZ3", "kZ4", "kS3", "dualZ2", "dualZ2_F2",
                                  "sweedler", "taft327", "kZ3_scaled"])
def test_graded_unit_line_matches_the_reference_loop(name):
    for calc in three_calculi(named_algebra(name)):
        want = "pass" if reference_graded_unit(calc, 3) else "fail"
        assert graded_unit_line(calc, 3) == want == "pass", calc


def test_graded_unit_fails_with_the_reference_on_a_corrupted_product():
    for name in ("kZ3", "sweedler", "kZ3_scaled"):
        for calc in three_calculi(named_algebra(name)):
            f = calc.field
            p01 = calc.product(0, 1)
            # column 0 is e_0 (x) (the first basis vector of degree 1), and
            # e_0 is the unit of these algebras
            col = column(p01, 0)
            col[1] = f.add(col.get(1, f.zero()), f.one())
            calc._prod[1] = with_column(p01, 0, col)
            assert reference_graded_unit(calc, 3) is False
            assert graded_unit_line(calc, 3) == "fail", calc


def test_scaled_kZ3_products_take_the_exact_path():
    # the structure constants of A_0 are not integral, so Matrix.kron and @
    # fall back to Fraction arithmetic and return products with object values
    for calc in three_calculi(named_algebra("kZ3_scaled")):
        for nm in ((0, 0), (0, 1), (1, 1), (0, 2)):
            p = calc.product(*nm)
            assert p._csr[2].dtype == object
            assert any(v.denominator != 1 for _, v in p.entries()), (calc, nm)


def test_h4_calculi_differ():
    # over H4 the antipode is not an involution, so the two calculi have
    # genuinely different differentials (already in low degree)
    H = named_algebra("sweedler")
    k = Calculus.k(H)
    khat = Calculus.khat(H)
    assert k.differential(0) != khat.differential(0)
    assert k.differential(1) != khat.differential(1)


def test_cocommutative_calculi_coincide():
    H = named_algebra("kS3")
    k = Calculus.k(H)
    khat = Calculus.khat(H)
    for n in range(3):
        assert k.differential(n) == khat.differential(n)


def test_degree_one_factors_generate():
    # (c1 (x) 1)(c2 (x) 1)...(cn (x) 1) . b recovers the basis tensor
    for name in ("kZ3", "sweedler"):
        H = named_algebra(name)
        f = H.field
        for calc in (Calculus.k(H), Calculus.khat(H)):
            d = H.dim
            for idx in itertools.product(range(d), repeat=3):
                c1, c2, b = idx
                u = product_apply(
                    calc, {tensor_encode([c1], [d]) * d + 0: f.one()}, 1,
                    {tensor_encode([c2], [d]) * d + 0: f.one()}, 1)
                u = product_apply(calc, u, 2, basis_vec(f, b), 0)
                assert u == {tensor_encode([c1, c2, b], [d, d, d]): f.one()}


def test_unit_element_is_two_sided_identity():
    H = named_algebra("dualZ2")
    calc = Calculus.k(H)
    f = H.field
    one = unit_element(calc)
    for n in range(3):
        for i in range(calc.degree_dim(n)):
            e = basis_vec(f, i)
            assert product_apply(calc, one, 0, e, n) == e
            assert product_apply(calc, e, n, one, 0) == e


def test_verify_dga_rejects_degrees_above_the_calculus():
    # a passing verdict builds nothing above degree 2, so the range is
    # checked up front, not by the first differential or product out of it
    calc = Calculus.khat(named_algebra("sweedler"), 3)
    with pytest.raises(ValueError, match="outside materialized range"):
        verify_dga(calc, 4)


def test_rejects_unknown_kind_and_missing_antipode_inverse():
    H = named_algebra("sweedler")
    ident = BialgebraMorphism.identity(H)
    with pytest.raises(ValueError, match="unknown calculus kind 'weird'"):
        Calculus("weird", BimoduleCoalgebra.from_hopf(H), ident, ident)
    # a hand-built algebra whose antipode is singular has no S^-1 calculus
    singular = dataclasses.replace(H, antipode=Matrix.zero(H.dim, H.dim, H.field))
    with pytest.raises(ValueError, match=r"^the S\^-1 calculus needs an invertible antipode$"):
        Calculus.k(singular)


@pytest.mark.parametrize("name", ["kZ3", "sweedler", "dualZ2_F2", "kZ3_scaled", "taft327"])
def test_k_and_khat_are_the_calculus_at_h_id_and_an_antipode(name):
    # K is (H, id, S^-1) and K-hat is (H, id, S), over H as a bimodule
    # coalgebra over itself, which holds H's own structure matrices
    H = named_algebra(name)
    C = BimoduleCoalgebra.from_hopf(H)
    assert C.B is H and C.dim == H.dim
    assert C.comul is H.comul_matrix() and C.counit is H.counit_row()
    assert C.left is C.right is H.mul_matrix() and C.grouplike is H.unit_column()
    k, khat = Calculus.k(H), Calculus.khat(H)
    assert (k.kind, khat.kind) == ("k", "khat") and k.C.B is H and khat.C.B is H
    assert k.alpha.matrix == khat.alpha.matrix == Matrix.identity(H.dim, H.field)
    assert k.beta.matrix is H.antipode_inverse() and khat.beta.matrix is H.antipode


def test_a_calculus_over_h_rebuilds_no_structure_matrix(monkeypatch):
    # the sandwich matrix, E and the basepoint-coadjoint coaction of a
    # calculus over H read H's own structure matrices: a spy on the table
    # builders sees no call once H's matrices exist
    H = dataclasses.replace(named_algebra("sweedler"))
    ident, sinv = BialgebraMorphism.identity(H), BialgebraMorphism.antipode_inverse(H)
    C = BimoduleCoalgebra.from_hopf(H)
    calls = []

    def spy(name, real):
        def built(*args):
            calls.append(name)
            return real(*args)
        return built

    monkeypatch.setattr(Matrix, "from_columns", staticmethod(spy("from_columns",
                                                                 Matrix.from_columns)))
    for module in (linalg, hopf, modules, calculus, homology):
        for name in ("bilinear_matrix", "pairing_matrix"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    for calc in (Calculus.general(C, ident, sinv), Calculus.k(H), Calculus.khat(H)):
        calc._sandwich_matrix()
        calc._reduced_comul_matrix()
        homology._basepoint_coadjoint(calc)
    assert calls == []
