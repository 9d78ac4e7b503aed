import ast
import dataclasses
import itertools
import pathlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (named_algebra, ACCEPTANCE_ALGEBRAS, apply, basis_vec, comultiply,
                      comultiply_iter, counit_of, expand_slot, is_commutative, multiply,
                      scaled_kZ3, vec_add, vec_eq, vec_scale, vec_sub, vec_tensor)

import hopfcalc.hopf as hopf_module
from hopfcalc.fields import Field, QQ
from hopfcalc.hopf import (BialgebraMorphism, HopfAlgebra, build_dual_group_algebra,
                           build_group_algebra, build_sweedler, build_taft,
                           check_group_table, cyclic_table, permute_basis, symmetric_table,
                           verify_axioms, verify_morphism)
from hopfcalc.linalg import Matrix, Vec, pairing_matrix
from hopfcalc.modules import enumerate_characters, enumerate_grouplikes
from hopfcalc.reports import Report


ALL_NAMES = ACCEPTANCE_ALGEBRAS + ["kZ4", "dualZ2_F2"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_builtins_pass_axioms(name):
    rep = verify_axioms(named_algebra(name))
    assert rep.passed, str(rep)


def test_group_table_checker():
    ident, inv = check_group_table(cyclic_table(4))
    assert ident == 0
    assert inv == [0, 3, 2, 1]
    with pytest.raises(ValueError):
        check_group_table([[1, 0], [1, 0]])


def test_sweedler_structure():
    H = build_sweedler()
    f = H.field
    assert H.basis == ["1", "g", "x", "gx"]
    one, g, x, gx = (basis_vec(f, i) for i in range(4))
    # S^2 != id: S^2(x) = -x
    s2 = H.antipode @ H.antipode
    assert apply(s2, x) == {2: f.of(-1)}
    # S and S^-1 genuinely differ
    sinv = H.antipode_inverse()
    assert apply(H.antipode, x) != apply(sinv, x)
    assert apply(sinv, x) == {3: f.one()}
    # x g = -g x
    assert multiply(H, x, g) == {3: f.of(-1)}
    assert multiply(H, g, x) == {3: f.one()}


def test_sweedler_rejects_characteristic_two():
    with pytest.raises(ValueError):
        build_sweedler(Field(2))


def test_taft_needs_primitive_root():
    with pytest.raises(ValueError):
        build_taft(3, 2, QQ)           # 2 is not a cube root of unity in Q
    with pytest.raises(ValueError):
        build_taft(3, Field(7).of(3), Field(7))   # 3^3 = 27 = 6 != 1 mod 7
    H = build_taft(2, -1, QQ)
    assert verify_axioms(H).passed


def test_taft_antipode_order():
    # S^2 is conjugation by g, so S has order 2n on the generator x
    H = named_algebra("taft327")
    s = H.antipode
    m = Matrix.identity(H.dim, H.field)
    order = 0
    for k in range(1, 13):
        m = m @ s
        if m == Matrix.identity(H.dim, H.field):
            order = k
            break
    assert order == 6


@pytest.mark.parametrize("n,q,p", [(1, 1, 5), (2, -1, 5), (4, 2, 5), (5, 4, 11), (7, 7, 29)])
def test_taft_coproduct_is_the_product_of_the_generator_coproducts(n, q, p):
    # Delta(g^i x^j) = Delta(g)^i Delta(x)^j, multiplied out term by term
    f = Field(p)
    H = build_taft(n, q, f)
    one = f.one()
    delta_g = {n * n * n + n: one} if n > 1 else {}
    delta_x = {1 * n * n: one, n * n * n + 1: one} if n > 1 else {}
    for i in range(n):
        for j in range(n):
            t = {0: one}
            for _ in range(i):
                t = tensor_square_multiply(H, t, delta_g)
            for _ in range(j):
                t = tensor_square_multiply(H, t, delta_x)
            assert vec_eq(f, H.comul[i * n + j], t), (i, j)
    if n <= 4:
        assert verify_axioms(H).passed


def test_commutativity_flags():
    assert is_commutative(named_algebra("kZ3"))
    assert named_algebra("kZ3").is_cocommutative()
    assert not is_commutative(named_algebra("kS3"))
    assert named_algebra("kS3").is_cocommutative()
    assert is_commutative(named_algebra("dualZ2"))
    H4 = named_algebra("sweedler")
    assert not is_commutative(H4) and not H4.is_cocommutative()
    T = named_algebra("taft327")
    assert not is_commutative(T) and not T.is_cocommutative()


def test_character_and_grouplike_counts():
    H4 = named_algebra("sweedler")
    assert len(enumerate_characters(H4)) == 2
    assert len(enumerate_grouplikes(H4)) == 2
    T = named_algebra("taft327")
    assert len(enumerate_characters(T)) == 3
    assert len(enumerate_grouplikes(T)) == 3
    S3 = named_algebra("kS3")
    assert len(enumerate_characters(S3)) == 2       # trivial and sign
    assert len(enumerate_grouplikes(S3)) == 6       # the group elements


def test_corrupted_antipode_fails_with_witness():
    H = build_group_algebra(cyclic_table(3))
    H.antipode = Matrix(H.dim, H.dim, H.field, {**H.antipode.data, (1, 1): H.field.one()})
    rep = verify_axioms(H)
    assert not rep.passed
    failing = [c.name for c in rep.failures()]
    assert any("antipode" in n for n in failing)
    assert rep.failures()[0].witness is not None


def test_corrupted_mul_fails():
    H = build_sweedler()
    H.mul[(1, 1)][2] = H.field.one()
    assert not verify_axioms(H).passed


@settings(max_examples=10, deadline=None)
@given(st.permutations(list(range(6))))
def test_axioms_stable_under_basis_permutation(perm):
    H = permute_basis(named_algebra("kS3"), list(perm))
    assert verify_axioms(H).passed


def test_a_relabeling_must_be_a_permutation():
    # a repeated or missing index used to give a table with a basis vector
    # lost; the antipode is now P^-1 S P, and P has no inverse
    H = named_algebra("sweedler")
    for perm in ([0, 0, 1, 2], [0, 1, 2], [1, 2, 3, 4], [0, 1, 2, 3, 3]):
        with pytest.raises(ValueError, match="not a permutation"):
            permute_basis(H, perm)


def test_morphisms():
    H = named_algebra("sweedler")
    assert verify_morphism(BialgebraMorphism.identity(H)).passed
    assert verify_morphism(BialgebraMorphism.antipode(H)).passed
    assert verify_morphism(BialgebraMorphism.antipode_inverse(H)).passed


def reference_verify_morphism(m: BialgebraMorphism) -> Report:
    """The oracle for ``verify_morphism``: the (op-cop) bialgebra morphism
    equations basis pair by basis pair, through the algebras' own maps."""
    S, T = m.source, m.target
    f = S.field
    rep = Report()
    opcop = m.variant == "opcop"
    ebasis = [basis_vec(f, i) for i in range(S.dim)]
    fb = [apply(m.matrix, e) for e in ebasis]

    ok, wit = True, None
    for i in range(S.dim):
        for j in range(S.dim):
            lhs = apply(m.matrix, S.mul.get((i, j), {}))
            rhs = multiply(T, fb[j], fb[i]) if opcop else multiply(T, fb[i], fb[j])
            if not vec_eq(f, lhs, rhs):
                ok, wit = False, {"basis": [S.basis[i], S.basis[j]],
                                  "defect": vec_sub(f, lhs, rhs)}
                break
        if not ok:
            break
    rep.add("multiplicative", ok, wit)
    rep.add("preserves_unit", vec_eq(f, apply(m.matrix, S.unit), T.unit))

    ok, wit = True, None
    dT = T.dim
    for i in range(S.dim):
        lhs = comultiply(T, fb[i])
        rhs: Vec = {}
        for fl, c in S.comul[i].items():
            a, b = divmod(fl, S.dim)
            pair = vec_tensor(f, fb[b], fb[a], dT) if opcop else vec_tensor(f, fb[a], fb[b], dT)
            vec_add(f, rhs, pair, c)
        if not vec_eq(f, lhs, rhs):
            ok, wit = False, {"basis": [S.basis[i]], "defect": vec_sub(f, lhs, rhs)}
            break
    rep.add("comultiplicative", ok, wit)

    ok = all(f.is_zero(f.sub(counit_of(T, fb[i]), S.counit.get(i, f.zero())))
             for i in range(S.dim))
    rep.add("preserves_counit", ok)
    return rep


_MORPHISM_CHECKS = ["multiplicative", "preserves_unit", "comultiplicative", "preserves_counit"]


def test_morphism_corruptions_match_the_reference():
    # the identity, S and S^-1 of each algebra, the Fraction path of kZ3
    # in a rescaled basis included, with one entry of the matrix set to a
    # seeded value: the matrix identities against the per-basis loop,
    # check for check and witness for witness, and every check seen failing
    rng = random.Random(23)
    failed, cases = set(), 0
    for name in ACCEPTANCE_ALGEBRAS + ["kZ3_scaled"]:
        H = named_algebra(name)
        f = H.field
        values = range(f.char) if f.char else [0, 1, -1, 2, "1/2"]
        for make in (BialgebraMorphism.identity, BialgebraMorphism.antipode,
                     BialgebraMorphism.antipode_inverse):
            m = make(H)
            assert checks_typed(verify_morphism(m)) == checks_typed(reference_verify_morphism(m))
            assert verify_morphism(m).passed
            for _ in range(12):
                data = {k: f.of(v) for k, v in m.matrix.entries()}
                data[(rng.randrange(H.dim), rng.randrange(H.dim))] = f.of(rng.choice(values))
                bad = BialgebraMorphism(H, H, Matrix(H.dim, H.dim, f, data), m.variant)
                got = verify_morphism(bad)
                assert got.to_json() == reference_verify_morphism(bad).to_json()
                assert checks_typed(got) == checks_typed(reference_verify_morphism(bad))
                failed |= {c.name for c in got.failures()}
                cases += not got.passed
    assert failed == set(_MORPHISM_CHECKS)
    assert cases >= 100


def test_iterated_coproduct_bracketing_independence():
    # expanding any slot of Delta^(n-1) gives Delta^(n)
    H = named_algebra("sweedler")
    f = H.field
    for i in range(H.dim):
        base = comultiply_iter(H, basis_vec(f, i), 2)
        for slot in range(3):
            assert expand_slot(H, base, 3, slot) == comultiply_iter(H, basis_vec(f, i), 3)


# ---------------------------------------------------------------------------
# verify_axioms against the reference enumeration


def tensor_square_multiply(H: HopfAlgebra, s: Vec, t: Vec) -> Vec:
    """Componentwise product on H (x) H: (a(x)b)(c(x)d) = ac (x) bd."""
    f = H.field
    d = H.dim
    out: Vec = {}
    for fl1, c1 in s.items():
        a, b = divmod(fl1, d)
        for fl2, c2 in t.items():
            cc, dd = divmod(fl2, d)
            left = H.mul.get((a, cc))
            right = H.mul.get((b, dd))
            if not left or not right:
                continue
            coeff = f.mul(c1, c2)
            for i, ci in left.items():
                for j, cj in right.items():
                    k = i * d + j
                    acc = f.add(out.get(k, f.zero()), f.mul(coeff, f.mul(ci, cj)))
                    if f.is_zero(acc):
                        out.pop(k, None)
                    else:
                        out[k] = acc
    return out


def reference_verify_axioms(H):
    """The enumeration ``verify_axioms`` replaced: every side of every axiom
    built as a field-valued sparse vector through the algebra's own maps,
    compared with ``vec_eq``, and S^-1 checked by matrix products."""
    f = H.field
    rep = Report()
    d = H.dim
    ebasis = [basis_vec(f, i) for i in range(d)]

    def scan(name, pairs, lhs, rhs):
        for t in pairs:
            a, b = lhs(*t), rhs(*t)
            if not vec_eq(f, a, b):
                rep.add(name, False,
                        {"basis": [H.basis[i] for i in t], "defect": vec_sub(f, a, b)})
                return
        rep.add(name, True)

    idx = range(d)
    scan("associativity", itertools.product(idx, idx, idx),
         lambda i, j, k: multiply(H, H.mul.get((i, j), {}), ebasis[k]),
         lambda i, j, k: multiply(H, ebasis[i], H.mul.get((j, k), {})))
    scan("unit", itertools.product(idx),
         lambda i: multiply(H, H.unit, ebasis[i]), lambda i: ebasis[i])
    scan("unit_right", itertools.product(idx),
         lambda i: multiply(H, ebasis[i], H.unit), lambda i: ebasis[i])
    scan("coassociativity", itertools.product(idx),
         lambda i: expand_slot(H, H.comul[i], 2, 0),
         lambda i: expand_slot(H, H.comul[i], 2, 1))

    def counit_side(i, right):
        out: Vec = {}
        for fl, c in H.comul[i].items():
            a, b = divmod(fl, d)
            eps = H.counit.get(b if right else a)
            if eps is not None:
                vec_add(f, out, {(a if right else b): f.mul(eps, c)})
        return out

    scan("counit", itertools.product(idx), lambda i: counit_side(i, False),
         lambda i: ebasis[i])
    scan("counit_right", itertools.product(idx), lambda i: counit_side(i, True),
         lambda i: ebasis[i])
    scan("comul_is_algebra_map", itertools.product(idx, idx),
         lambda i, j: comultiply(H, H.mul.get((i, j), {})),
         lambda i, j: tensor_square_multiply(H, H.comul[i], H.comul[j]))
    scan("comul_of_unit", [()],
         lambda: comultiply(H, H.unit), lambda: vec_tensor(f, H.unit, H.unit, d))
    scan("counit_is_algebra_map", itertools.product(idx, idx),
         lambda i, j: {0: counit_of(H, H.mul.get((i, j), {}))},
         lambda i, j: {0: f.mul(H.counit.get(i, f.zero()), H.counit.get(j, f.zero()))})
    scan("counit_of_unit", [()], lambda: {0: counit_of(H, H.unit)}, lambda: {0: f.one()})

    def convolve(i, left):
        out: Vec = {}
        for fl, c in H.comul[i].items():
            a, b = divmod(fl, d)
            if left:
                term = multiply(H, apply(H.antipode, ebasis[a]), ebasis[b])
            else:
                term = multiply(H, ebasis[a], apply(H.antipode, ebasis[b]))
            vec_add(f, out, term, c)
        return out

    scan("antipode_left", itertools.product(idx), lambda i: convolve(i, True),
         lambda i: vec_scale(f, H.unit, H.counit.get(i, f.zero())))
    scan("antipode_right", itertools.product(idx), lambda i: convolve(i, False),
         lambda i: vec_scale(f, H.unit, H.counit.get(i, f.zero())))

    sinv = H.antipode_inverse()
    if sinv is not None:
        ident = Matrix.identity(d, f)
        ok = (sinv @ H.antipode == ident) and (H.antipode @ sinv == ident)
        rep.add("antipode_inverse", ok, None if ok else {"defect": "S^-1 S != id"})
    return rep


def checks_typed(rep):
    """Every check with its raw witness, defect entries sorted and typed."""
    out = []
    for c in rep.checks:
        w = c.witness
        if isinstance(w, dict) and isinstance(w.get("defect"), dict):
            w = dict(w, defect=sorted((k, type(v).__name__, v)
                                      for k, v in w["defect"].items()))
        out.append((c.name, c.passed, w))
    return out


def _assert_matches_reference(H):
    got, want = verify_axioms(H), reference_verify_axioms(H)
    assert got.to_json() == want.to_json()
    assert checks_typed(got) == checks_typed(want)
    return got


def _builtins():
    F2, F3, F5, F7 = Field(2), Field(3), Field(5), Field(7)
    s3, names = symmetric_table(3)
    out = [named_algebra(n) for n in ALL_NAMES]
    out += [build_group_algebra(cyclic_table(2), F2),
            build_dual_group_algebra(cyclic_table(3), F3), build_sweedler(F3), build_sweedler(F5), build_group_algebra(s3, F5, names),
            build_dual_group_algebra(s3, QQ), build_taft(2, -1, F5), build_taft(3, 2, F7),
            build_group_algebra(cyclic_table(4), F7), build_taft(2, -1, QQ)]
    return out


def test_comul_is_algebra_map_holds_no_operand_of_d4_entries():
    # (mu (x) mu) and I (x) flip (x) I hold d^4 entries in a monomial basis,
    # ~300 MB traced at Taft(7) over F29 (d = 49); the contraction takes ~4 MB
    H = build_taft(7, 16, Field(29))
    tracemalloc.start()
    try:
        assert verify_axioms(H).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_verify_axioms_builds_no_kronecker_product_with_the_identity():
    # mu (x) I and Delta (x) I have d^3 rows: at Taft(10,2) over F11
    # (d = 100) lines written with them trace 28.9 MiB over the structure
    # matrices, the d^2 x d^2 contractions of _sides ~17 MiB
    H = build_taft(10, 2, Field(11))
    H.mul_matrix(), H.unit_column(), H.comul_matrix(), H.counit_row(), H.antipode_inverse()
    tracemalloc.start()
    try:
        assert verify_axioms(H).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * 2**20


def on_both_paths(monkeypatch):
    """Yields twice: with the dense pass of ``verify_axioms`` at its cap,
    then with the cap forced to 0, so that only the sparse lines run."""
    yield "dense"
    monkeypatch.setattr(hopf_module, "_DENSE", 0)
    yield "sparse"


def test_builtins_and_relabelings_match_the_reference(monkeypatch):
    algebras = _builtins()
    rng = random.Random(11)
    for _ in range(20):
        H = rng.choice(algebras)
        perm = list(range(H.dim))
        rng.shuffle(perm)
        algebras.append(permute_basis(H, perm))
    for _ in on_both_paths(monkeypatch):
        for H in algebras:
            assert _assert_matches_reference(H).passed


_AXIOMS = ["associativity", "unit", "unit_right", "coassociativity", "counit",
           "counit_right", "comul_is_algebra_map", "comul_of_unit",
           "counit_is_algebra_map", "counit_of_unit", "antipode_left", "antipode_right"]


def mutate_entry(H, rng, values):
    """A copy of H with one entry of mul, comul, unit, counit or the antipode
    set to one of ``values`` (a zero is kept as an explicit entry, except in
    the antipode matrix, which prunes it)."""
    f, d = H.field, H.dim
    mul = {k: dict(v) for k, v in H.mul.items()}
    unit, counit = dict(H.unit), dict(H.counit)
    comul = [dict(v) for v in H.comul]
    antipode = H.antipode.data
    c = f.of(rng.choice(values))
    which = rng.choice(["mul", "comul", "unit", "counit", "antipode"])
    if which == "mul":
        mul.setdefault((rng.randrange(d), rng.randrange(d)), {})[rng.randrange(d)] = c
    elif which == "comul":
        comul[rng.randrange(d)][rng.randrange(d * d)] = c
    elif which == "unit":
        unit[rng.randrange(d)] = c
    elif which == "counit":
        counit[rng.randrange(d)] = c
    else:
        antipode[(rng.randrange(d), rng.randrange(d))] = c
    return HopfAlgebra(f, d, list(H.basis), mul, unit, comul, counit,
                       Matrix(d, d, f, antipode))


def test_single_entry_mutations_match_the_reference(monkeypatch):
    F7 = Field(7)
    rational = [0, 1, -1, 2, "1/2", "-3/2"]
    cases = ([(named_algebra(n), rational)
              for n in ("kZ2", "kZ3", "kS3", "dualZ2", "sweedler")]
             + [(named_algebra("taft327"), range(7)), (build_sweedler(F7), range(7)),
                (build_dual_group_algebra(cyclic_table(3), F7), range(7))])
    for _ in on_both_paths(monkeypatch):
        rng = random.Random(5)
        failed, failing = set(), 0
        for k in range(600):
            H, values = cases[k % len(cases)]
            rep = _assert_matches_reference(mutate_entry(H, rng, values))
            failed |= {c.name for c in rep.failures()}
            failing += not rep.passed
        assert failed == set(_AXIOMS)
        assert failing >= 400

        # entries of 2^62 and beyond leave int64 for object values, so the
        # exact fallback of kron, @, == and column_defects meets the reference
        huge = [2**62, -2**62, -2**63, 3 * 2**61]
        failed, exact = set(), 0
        for k in range(100):
            H = mutate_entry(cases[k % 5][0], rng, huge)
            rep = _assert_matches_reference(H)
            failed |= {c.name for c in rep.failures()}
            exact += any(m._to_csr() is None for m in (
                H.mul_matrix(), H.unit_column(), H.comul_matrix(), H.antipode,
                pairing_matrix(H.field, H.counit, H.dim)))
        assert failed == set(_AXIOMS)
        assert exact >= 90


def test_inferred_lines_make_no_operation_on_passing_input(monkeypatch):
    # counit_of_unit and antipode_right are read off the lines they follow
    # from when those pass, and computed in full, through column_witness,
    # when any of them fails.  With the dense pass on, a passing algebra
    # within its cap makes no column_witness call at all; a failing one
    # runs the sparse lines as they are
    calls = []
    witness = hopf_module.column_witness
    monkeypatch.setattr(hopf_module, "column_witness", lambda *a: calls.append(a) or witness(*a))
    premises = {"counit_of_unit": ["unit", "counit", "comul_of_unit"],
                "antipode_right": ["associativity", "coassociativity", "unit", "unit_right",
                                   "counit", "counit_right", "antipode_left"]}
    for path in on_both_paths(monkeypatch):
        for H in _builtins():
            calls.clear()
            dense = path == "dense" and H.dim <= hopf_module._DENSE
            assert verify_axioms(H).passed and len(calls) == (0 if dense else 10)
        rng, computed = random.Random(3), set()
        for k in range(80):
            calls.clear()
            rep = verify_axioms(mutate_entry(named_algebra(("kS3", "sweedler")[k % 2]), rng,
                                             [0, 1, -1, 2]))
            status = {c.name: c.passed for c in rep.checks}
            full = [name for name, names in premises.items() if not all(status[n] for n in names)]
            assert len(calls) == (0 if rep.passed and path == "dense" else 10 + len(full))
            computed |= set(full)
        assert computed == set(premises)


def test_dense_lines_agree_with_the_sparse_lines_one_by_one(monkeypatch):
    # on single-entry mutations of algebras within the cap, each line of
    # _sides holds on int64 arrays exactly when it holds on Matrix, and the
    # Matrix lines are the report's computed lines, name by name and status
    # by status, so neither evaluation can miss, drop or add a line
    computed = [n for n in _AXIOMS if n not in ("counit_of_unit", "antipode_right")]
    F7, rng, failed, evaluated = Field(7), random.Random(17), set(), 0
    cases = [(named_algebra(n), [0, 1, -1, 2]) for n in ("kZ2", "kS3", "dualZ2", "sweedler")]
    cases += [(build_sweedler(F7), range(7)), (build_dual_group_algebra(cyclic_table(3), F7),
                                                range(7))]
    for k in range(300):
        base, values = cases[k % len(cases)]
        H = mutate_entry(base, rng, values)
        with monkeypatch.context() as m:
            m.setattr(hopf_module, "_DENSE", 0)
            status = {c.name: c.passed for c in verify_axioms(H).checks}
        sinv = H.antipode_inverse()
        mats = [H.mul_matrix(), H.unit_column(), H.comul_matrix(), H.counit_row(),
                H.antipode] + [sinv] * (sinv is not None)
        sparse = [(name, lhs == rhs) for name, _, lhs, rhs in hopf_module._sides(
            Matrix.__matmul__, Matrix.regroup, H.dim, Matrix.identity(H.dim, H.field), *mats)]
        assert sparse == [(n, status[n])
                          for n in computed + ["antipode_inverse"] * (sinv is not None)]
        lines = hopf_module._dense_lines(H.dim, H.field.char, mats)
        if lines is None:   # an S^-1 with a non-integral entry holds objects
            assert sinv._to_csr() is None
            continue
        assert lines == [ok for _, ok in sparse]
        failed |= {n for n in computed if not status[n]}
        evaluated += 1
    assert failed == set(computed) and evaluated >= 250


def _benchmark_algebras():
    """The (algebra, field) pairs of the benchmark's ``DGA_CASES``,
    ``MODULE_ALGEBRAS`` and ``COTOR_CASES``, read from its source without
    importing it."""
    tree = ast.parse((pathlib.Path(__file__).resolve().parent.parent / "verdictbench"
                      / "workloads.py").read_text())
    lists = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None)
             in ("DGA_CASES", "MODULE_ALGEBRAS", "COTOR_CASES")}
    assert len(lists) == 3
    return sorted({case[:2] for cases in lists.values() for case in cases})


def test_dense_pass_takes_the_small_algebras_and_declines_the_rest(monkeypatch):
    # every benchmark algebra within the cap is certified by the dense pass
    # after a relabeling; on object values, on a prime where d^2 (p - 1)^2
    # reaches 2^62 and above the cap it declines, and the sparse lines give
    # the reference's reports
    from hopfcalc.cli import builtin_hopf, load_hopf_file
    seen, dense_lines = [], hopf_module._dense_lines

    def spy(*args):
        lines = dense_lines(*args)
        seen.append(None if lines is None else all(lines))
        return lines

    monkeypatch.setattr(hopf_module, "_dense_lines", spy)
    rng, small = random.Random(37), 0
    for name, field in _benchmark_algebras():
        H = builtin_hopf(name, Field.parse(field))
        seen.clear()
        assert verify_axioms(permute_basis(H, rng.sample(range(H.dim), H.dim))).passed
        assert seen == [True if H.dim <= hopf_module._DENSE else None], (name, field)
        small += H.dim <= hopf_module._DENSE
    assert small >= 10

    s3, names = symmetric_table(3)
    below, above = 357913931, 357913951     # primes either side of 6 (p - 1) = 2^31
    assert (6 * (below - 1)) ** 2 < 2**62 <= (6 * (above - 1)) ** 2
    tests = pathlib.Path(__file__).resolve().parent
    for H, dense in [(build_group_algebra(s3, Field(below), names), True),
                     (build_group_algebra(s3, Field(above), names), None),
                     (scaled_kZ3(), None), (load_hopf_file(str(tests / "kz2_huge_unit.json")), None),
                     (named_algebra("taft327"), None), (build_group_algebra(cyclic_table(9)), None)]:
        seen.clear()
        _assert_matches_reference(H)
        assert seen == [dense], H
    # the fixtures with object values hold them where the pass looks
    assert scaled_kZ3().mul_matrix()._to_csr() is None
    assert load_hopf_file(str(tests / "kz2_huge_unit.json")).unit_column()._to_csr() is None


def test_replace_and_rebinding_build_fresh_structure_matrices():
    H = build_sweedler()
    f, one = H.field, H.field.one()
    mu, u, sinv = H.mul_matrix(), H.unit_column(), H.antipode_inverse()
    assert H.mul_matrix() is mu and H.unit_column() is u and H.antipode_inverse() is sinv
    mul = {k: dict(v) for k, v in H.mul.items()}
    mul[(1, 1)] = {2: one}
    B = dataclasses.replace(H, mul=mul)
    assert B.mul_matrix() != mu
    assert B.mul_matrix() == Matrix.from_columns(
        [mul.get((i, j), {}) for i in range(4) for j in range(4)], 4, f)
    B = dataclasses.replace(H, unit={1: one})
    assert B.unit_column() == Matrix.from_columns([{1: one}], 4, f) != u
    B = dataclasses.replace(H, antipode=Matrix.identity(4, f))
    assert B.antipode_inverse() == Matrix.identity(4, f) != sinv
    H.mul = mul
    assert H.mul_matrix() == dataclasses.replace(H, mul=mul).mul_matrix() != mu


def test_golden_hopf_files_match_the_reference(monkeypatch):
    # the --hopf inputs of the golden set, whose failing lines include the
    # premises of both inferred lines; Taft(4,2) over F5 fails associativity
    # and coassociativity above the dense cap, so their sides are regrouped
    # to the witness layout
    from hopfcalc.cli import load_hopf_file
    tests = pathlib.Path(__file__).resolve().parent
    for _ in on_both_paths(monkeypatch):
        failed = set()
        for name in ("sweedler_bad_comul", "kz3_half_mul", "kz2_f5_bad_unit", "kz2_huge_unit",
                     "taft4_f5_bad_mul_comul"):
            failed |= {c.name for c in _assert_matches_reference(
                load_hopf_file(str(tests / f"{name}.json"))).failures()}
        assert failed


# a loop of order 5 that is not a group: every element is its own inverse,
# but (1 * 1) * 2 = 0 * 2 = 2 while 1 * (1 * 2) = 1 * 3 = 4
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_a_loop_fails_one_line_alone_on_both_paths(monkeypatch):
    # k[L] breaks associativity alone and k^L coassociativity alone, so a
    # pass that skipped either line would certify them
    one, n = QQ.one(), len(LOOP5)
    names = [f"l{i}" for i in range(n)]
    k_loop = HopfAlgebra(QQ, n, names, {(i, j): {LOOP5[i][j]: one} for i in range(n)
                                        for j in range(n)}, {0: one},
                         [{i * n + i: one} for i in range(n)], {i: one for i in range(n)},
                         Matrix.identity(n, QQ))
    k_dual = HopfAlgebra(QQ, n, names, {(i, i): {i: one} for i in range(n)},
                         {i: one for i in range(n)},
                         [{a * n + b: one for a in range(n) for b in range(n) if LOOP5[a][b] == g}
                          for g in range(n)], {0: one}, Matrix.identity(n, QQ))
    for _ in on_both_paths(monkeypatch):
        for H, line in ((k_loop, "associativity"), (k_dual, "coassociativity")):
            assert [c.name for c in _assert_matches_reference(H).failures()] == [line]
