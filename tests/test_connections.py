import pytest

from conftest import (ACCEPTANCE_ALGEBRAS, apply, base_corpus, basis_vec, column, hopf_conj,
                      mutated_corpus, named_algebra, vec_add, vec_sub, vec_tensor)
from test_modules import Slot, checks, reference_oslash_action, reference_sandwich_compat

from hopfcalc.calculus import Calculus
from hopfcalc.connections import (check_connection, check_dg_module_structure,
                                  coaction_from_connection, coefficient_complex,
                                  connection_from_coaction, curvature, is_flat,
                                  tensor_connection)
from hopfcalc.hopf import BialgebraMorphism
from hopfcalc.linalg import Matrix
from hopfcalc.modules import (BimoduleCoalgebra, check_ayd, check_equivariant,
                              check_yd, coassociativity_defects, one_dim_modcomod,
                              trivial_modcomod)
from hopfcalc.reports import Report


def _corpus(H):
    out = []
    for X in base_corpus(H) + mutated_corpus(H, 8, seed=5):
        if X.action is not None and X.coaction is not None:
            out.append(X)
    return out


def test_connection_coaction_round_trip():
    H = named_algebra("sweedler")
    calc = Calculus.khat(H)
    for X in _corpus(H):
        conn = connection_from_coaction(calc, X)
        back = coaction_from_connection(conn)
        assert back.coaction == X.coaction


@pytest.mark.parametrize("name", ["kZ3", "sweedler"])
def test_connection_condition_matches_module_conditions(name):
    """The Leibniz property of the induced connection is the same condition,
    with the same defect tensor, as the sandwich compatibility over the
    matching calculus."""
    H = named_algebra(name)
    k = Calculus.k(H)
    khat = Calculus.khat(H)
    C = BimoduleCoalgebra.from_hopf(H)
    ident = BialgebraMorphism.identity(H)
    s = BialgebraMorphism.antipode(H)
    general = Calculus.general(C, ident, s)
    for X in _corpus(H):
        rc = check_connection(connection_from_coaction(k, X))
        ra = check_ayd(X)
        assert rc.passed == ra.passed and rc.defects == ra.defects
        rc = check_connection(connection_from_coaction(khat, X))
        ry = check_yd(X)
        assert rc.passed == ry.passed and rc.defects == ry.defects
        rc = check_connection(connection_from_coaction(general, X))
        re = check_equivariant(X, C, ident, s)
        assert rc.passed == re.passed and rc.defects == re.defects


@pytest.mark.parametrize("name", ["sweedler", "taft327", "kZ3_scaled"])
def test_equivariance_and_connection_with_alpha_not_id_match_the_reference_loop(name):
    # the alpha slot of the sandwich: (alpha, beta) over {S, S^-1}^2, the
    # equivariance defects against the reference loop, and the connection's
    # Leibniz defects against the same loop (the correspondence theorem)
    H = named_algebra(name)
    C = BimoduleCoalgebra.from_hopf(H)
    s, sinv = BialgebraMorphism.antipode(H), BialgebraMorphism.antipode_inverse(H)
    failing = 0
    for X in _corpus(H):
        for alpha, beta in ((s, sinv), (sinv, s), (s, s), (sinv, sinv)):
            want = reference_sandwich_compat(X, beta.matrix, alpha.matrix)
            assert check_equivariant(X, C, alpha, beta).defects == want, X.label
            conn = connection_from_coaction(Calculus.general(C, alpha, beta), X)
            assert check_connection(conn).defects == want, X.label
            failing += bool(want)
    assert failing


def test_flat_iff_coassociative():
    H = named_algebra("sweedler")
    calc = Calculus.khat(H)
    seen_flat, seen_curved = False, False
    for X in _corpus(H):
        conn = connection_from_coaction(calc, X)
        flat = is_flat(conn)
        assert flat == (not coassociativity_defects(X))
        assert curvature(conn).is_zero() == flat
        seen_flat |= flat
        seen_curved |= not flat
    assert seen_flat and seen_curved


def test_coefficient_complex_dims_for_group_algebra():
    H = named_algebra("kZ2")
    calc = Calculus.khat(H)
    conn = connection_from_coaction(calc, trivial_modcomod(H))
    cx = coefficient_complex(conn, 3)
    assert cx.dims == [1, 2, 4, 8]


def test_coefficient_complex_requires_flat():
    H = named_algebra("sweedler")
    calc = Calculus.khat(H)
    for X in mutated_corpus(H, 8, seed=5):
        if coassociativity_defects(X):
            conn = connection_from_coaction(calc, X)
            with pytest.raises(ValueError):
                coefficient_complex(conn, 2)
            return
    pytest.fail("no curved module found in the mutated corpus")


def _flat_one_dims(H, calc, checker):
    from hopfcalc.modules import enumerate_characters, enumerate_grouplikes
    out = []
    for delta in enumerate_characters(H):
        for sigma in enumerate_grouplikes(H):
            X = one_dim_modcomod(H, delta, sigma)
            if checker(X).passed:
                out.append(connection_from_coaction(calc, X))
    return out


def test_tensor_connection_multiplies_characters_and_grouplikes():
    H = named_algebra("sweedler")
    f = H.field
    k = Calculus.k(H)
    khat = Calculus.khat(H)
    yds = _flat_one_dims(H, khat, check_yd)
    ayds = _flat_one_dims(H, k, check_ayd)
    assert len(yds) == 2 and len(ayds) == 2
    for cy in yds:
        for ca in ayds:
            conn = tensor_connection(cy, ca)
            assert is_flat(conn)
            assert check_connection(conn).passed
            # 1-dim tensor 1-dim: the coaction is the product of grouplikes
            sy = cy.X.coaction[0]
            sa = ca.X.coaction[0]
            expect = {}
            for fl, c in sy.items():
                for fl2, c2 in sa.items():
                    for h, c3 in H.mul.get((fl, fl2), {}).items():
                        expect[h] = f.mul(f.mul(c, c2), c3)
            assert conn.X.coaction[0] == expect
            # and the action is the product of characters
            for i in range(H.dim):
                got = conn.X.action[(i, 0)].get(0, f.zero())
                acc = f.zero()
                for fl, c in H.comul[i].items():
                    h1, h2 = divmod(fl, H.dim)
                    a1 = cy.X.action[(h1, 0)].get(0, f.zero())
                    a2 = ca.X.action[(h2, 0)].get(0, f.zero())
                    acc = f.add(acc, f.mul(c, f.mul(a1, a2)))
                assert got == acc


def reference_tensor_connection(conn_yd, conn_ayd):
    """The oracle for ``tensor_connection``: the diagonal action, nabla
    through the switch sigma(x (x) h) = x_{-1} h (x) x_{0} + h (x) x, and
    the coaction, one basis vector at a time.  Returns (action table,
    nabla, coaction)."""
    H = conn_yd.calc.B
    f = H.field
    X, Xp = conn_yd.X, conn_ayd.X
    dx, dy = X.dim, Xp.dim
    dim = dx * dy

    action = {}
    for i in range(H.dim):
        for a in range(dx):
            for b in range(dy):
                acc = {}
                for fl, c in H.comul[i].items():
                    h1, h2 = divmod(fl, H.dim)
                    left = X.action.get((h1, a), {})
                    right = Xp.action.get((h2, b), {})
                    vec_add(f, acc, vec_tensor(f, left, right, dy), c)
                action[(i, a * dy + b)] = acc

    cols = []
    for a in range(dx):
        na = column(conn_yd.nabla, a)
        for b in range(dy):
            col = {}
            for fl, c in na.items():
                h, a2 = divmod(fl, dx)
                col[h * dim + a2 * dy + b] = c
            for fl, c in column(conn_ayd.nabla, b).items():
                hp, b2 = divmod(fl, dy)
                # sigma(x (x) h') (x) x': first summand conjugates through
                # the components of nabla_X, the second passes x through
                for fl2, c2 in na.items():
                    k, a2 = divmod(fl2, dx)
                    for h2, c3 in H.mul.get((k, hp), {}).items():
                        vec_add(f, col, {h2 * dim + a2 * dy + b2: f.mul(f.mul(c, c2), c3)})
                vec_add(f, col, {hp * dim + a * dy + b2: c})
            cols.append(col)
    nabla = Matrix.from_columns(cols, H.dim * dim, f)

    # the componentwise product of the two coactions
    rho_x = coaction_from_connection(conn_yd).coaction
    rho_y = coaction_from_connection(conn_ayd).coaction
    coaction = []
    for a in range(dx):
        for b in range(dy):
            expect = {}
            for fl, c in rho_x[a].items():
                h1, a2 = divmod(fl, dx)
                for fl2, c2 in rho_y[b].items():
                    h2, b2 = divmod(fl2, dy)
                    for h3, c3 in H.mul.get((h1, h2), {}).items():
                        vec_add(f, expect, {h3 * dim + a2 * dy + b2: f.mul(f.mul(c, c2), c3)})
            coaction.append(expect)
    return action, nabla, coaction


def _typed(table):
    """A tensor table with every scalar tagged by its type."""
    items = table.items() if isinstance(table, dict) else enumerate(table)
    return {k: {i: (type(c).__name__, c) for i, c in v.items()} for k, v in items}


@pytest.mark.parametrize("name", ACCEPTANCE_ALGEBRAS)
def test_tensor_connection_matches_the_reference_on_every_flat_pair(name):
    # every flat YD connection of the base corpus against every flat AYD
    # one: the action table, nabla and the coaction, entry for entry
    H = named_algebra(name)
    khat, k = Calculus.khat(H), Calculus.k(H)
    yds, ayds = [], []
    for X in base_corpus(H):
        if X.action is None or X.coaction is None:
            continue
        for calc, checker, out in ((khat, check_yd, yds), (k, check_ayd, ayds)):
            conn = connection_from_coaction(calc, X)
            if checker(X).passed and is_flat(conn):
                out.append(conn)
    assert yds and ayds
    for cy in yds:
        for ca in ayds:
            conn = tensor_connection(cy, ca)
            action, nabla, coaction = reference_tensor_connection(cy, ca)
            assert _typed(conn.X.action) == _typed(action)
            assert conn.nabla == nabla
            assert _typed(conn.X.coaction) == _typed(coaction)


def test_tensor_connection_rejects_wrong_kinds():
    H = named_algebra("kZ3")
    khat = Calculus.khat(H)
    conn = connection_from_coaction(khat, trivial_modcomod(H))
    with pytest.raises(ValueError):
        tensor_connection(conn, conn)


def test_tensor_connection_rejects_curved_input():
    H = named_algebra("sweedler")
    khat, k = Calculus.khat(H), Calculus.k(H)
    good = connection_from_coaction(k, _flat_one_dims(H, k, check_ayd)[0].X)
    for X in mutated_corpus(H, 8, seed=5):
        if coassociativity_defects(X):
            bad = connection_from_coaction(khat, X)
            with pytest.raises(ValueError):
                tensor_connection(bad, good)
            return
    pytest.fail("no curved module found")


@pytest.mark.parametrize("name", ["kZ4", "kS3"])
def test_dg_module_structure_over_cocommutative(name):
    H = named_algebra(name)
    calc = Calculus.khat(H)
    conn = connection_from_coaction(calc, trivial_modcomod(H))
    rep = check_dg_module_structure(calc, conn, max_degree=2)
    assert rep.passed
    assert all(c.passed is True for c in rep.checks)


def test_dg_module_structure_inapplicable_over_h4():
    H = named_algebra("sweedler")
    calc = Calculus.khat(H)
    conn = connection_from_coaction(calc, trivial_modcomod(H))
    rep = check_dg_module_structure(calc, conn)
    assert len(rep.checks) == 1
    assert rep.checks[0].passed is None


def reference_dg_module(calc, conn, max_degree=2):
    """The oracle for ``check_dg_module_structure`` over a cocommutative
    algebra: d_n(h . t) against h . d_n(t) for every basis pair (h, t),
    with the sandwich action of ``reference_oslash_action``."""
    rep = Report()
    H, X, f = calc.B, conn.X, calc.field
    conj = hopf_conj(calc.kind, H)
    cx = coefficient_complex(conn, max_degree + 1)
    for n in range(max_degree + 1):
        slots = [Slot.regular(H)] * n + [Slot.from_left_module(X)]
        slots_up = [Slot.regular(H)] * (n + 1) + [Slot.from_left_module(X)]
        d = cx.diffs[n]
        ok, wit = True, None
        for i in range(H.dim):
            for fl in range(cx.dims[n]):
                t = basis_vec(f, fl)
                lhs = apply(d, reference_oslash_action(slots, basis_vec(f, i), t, conj))
                rhs = reference_oslash_action(slots_up, basis_vec(f, i), apply(d, t), conj)
                dd = vec_sub(f, lhs, rhs)
                if dd:
                    ok, wit = False, {"basis": (i, fl), "degree": n, "defect": dd}
                    break
            if not ok:
                break
        rep.add(f"dg_module_degree[{n}]", ok, wit)
    return rep


@pytest.mark.parametrize("name", ["kS3", "kZ4", "kZ3"])
def test_dg_module_structure_matches_the_reference_loop(name):
    # the flat modules of the base corpus, AYD or not: over k[S3] the
    # one-dimensional modules with a non-central grouplike fail, and their
    # witnesses must agree too
    H = named_algebra(name)
    calc = Calculus.khat(H)
    failing = 0
    for X in base_corpus(H):
        conn = connection_from_coaction(calc, X)
        if not is_flat(conn):
            continue
        rep = check_dg_module_structure(calc, conn, max_degree=2)
        assert checks(rep) == checks(reference_dg_module(calc, conn)), X.label
        failing += not rep.passed
    assert failing or name != "kS3"
