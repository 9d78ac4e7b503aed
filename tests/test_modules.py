import ast
import itertools
import pathlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest

from conftest import (ACCEPTANCE_ALGEBRAS, DictCoalgebra, act, apply, base_corpus, basis_vec,
                      bilinear, check_comodule_axioms, check_lemma_sandwich_action, column,
                      comultiply_iter, lact, linear, multiply, mutate_coaction, mutated_corpus,
                      named_algebra, pairing, ract, reference_column_echelon, vec_add, vec_eq,
                      vec_scale, vec_sub, vec_tensor)
from test_hopf import checks_typed

from hopfcalc import cli
from hopfcalc.calculus import Calculus
from hopfcalc.connections import sandwich_action
from hopfcalc.fields import Field
from hopfcalc.hopf import BialgebraMorphism, HopfAlgebra, permute_basis
from hopfcalc.linalg import Matrix, Vec, tensor_decode
from hopfcalc.modules import (BimoduleCoalgebra, ModComod, action_matrix, check_ayd,
                              check_equivariant, check_module_axioms,
                              check_stable, check_yd, coadjoint_comodule,
                              coassociativity_defects, groupoid_decompose,
                              modcomod_from_groupoid, one_dim_modcomod, regular_modcomod,
                              trivial_modcomod, verify_bimodule_coalgebra,
                              coaction_matrix, enumerate_characters, enumerate_grouplikes,
                              pairing_matrix, GroupoidData, GroupoidReport,
                              _candidate_values, _grouplike_solutions, is_grouplike)
from hopfcalc.reports import Report

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# references: the sandwich action and the action axioms, one basis vector
# at a time


@dataclass
class Slot:
    """An H-bimodule given by left and right action tensors: one tensor
    slot of ``reference_oslash_action``."""

    algebra: HopfAlgebra
    dim: int
    left: Dict[Tuple[int, int], Vec]
    right: Dict[Tuple[int, int], Vec]

    @classmethod
    def regular(cls, H: HopfAlgebra) -> "Slot":
        act = {(i, j): dict(v) for (i, j), v in H.mul.items()}
        return cls(H, H.dim, act, act)

    @classmethod
    def from_left_module(cls, X: ModComod) -> "Slot":
        # trivial right action through the counit; only the left action is
        # used when the module sits in the last tensor slot
        H = X.algebra
        f = H.field
        right = {(a, i): vec_scale(f, basis_vec(f, a), H.counit.get(i, f.zero()))
                 for a in range(X.dim) for i in range(H.dim)}
        return cls(H, X.dim, {k: dict(v) for k, v in X.action.items()}, right)

    def lact(self, h: Vec, x: Vec) -> Vec:
        return bilinear(self.algebra.field, self.left, h, x)

    def ract(self, x: Vec, h: Vec) -> Vec:
        return bilinear(self.algebra.field, self.right, x, h)


def reference_oslash_action(slots: List[Slot], h: Vec, t: Vec,
                            conjugator: Optional[Matrix] = None) -> Vec:
    """The sandwich left action on X_0 (x) ... (x) X_n, from the iterated
    coproduct: slot i < n receives h_(i+1) . x^i . S^-1(h_(2n+1-i)); the
    last slot receives h_(n+1) . x^n.  ``conjugator`` defaults to the
    inverse antipode; pass the antipode itself for the S-flavoured
    variant.  The oracle for ``sandwich_action``."""
    H = slots[0].algebra
    f = H.field
    if conjugator is None:
        conjugator = H.antipode_inverse()
    n = len(slots) - 1
    dims = [s.dim for s in slots]
    out: Vec = {}
    legs = comultiply_iter(H, h, 2 * n)
    hdim = H.dim
    for fl_h, ch in legs.items():
        hidx = tensor_decode(fl_h, [hdim] * (2 * n + 1))
        for fl_t, ct in t.items():
            tidx = tensor_decode(fl_t, dims)
            coeff = f.mul(ch, ct)
            pieces: List[Vec] = []
            for i in range(n):
                v = slots[i].lact(basis_vec(f, hidx[i]), basis_vec(f, tidx[i]))
                v = slots[i].ract(v, apply(conjugator, basis_vec(f, hidx[2 * n - i])))
                pieces.append(v)
            pieces.append(slots[n].lact(basis_vec(f, hidx[n]), basis_vec(f, tidx[n])))
            acc = pieces[0]
            for k in range(1, n + 1):
                acc = vec_tensor(f, acc, pieces[k], dims[k])
            vec_add(f, out, acc, coeff)
    return out


def reference_module_axioms(X: ModComod) -> Report:
    """The oracle for ``check_module_axioms``: associativity and unitality
    of the action, one basis triple at a time."""
    f = X.field
    B = X.algebra
    rep = Report()
    eb = [basis_vec(f, i) for i in range(B.dim)]
    ex = [basis_vec(f, a) for a in range(X.dim)]
    ok, wit = True, None
    for i, j, a in itertools.product(range(B.dim), range(B.dim), range(X.dim)):
        lhs = act(X, B.mul.get((i, j), {}), ex[a])
        rhs = act(X, eb[i], act(X, eb[j], ex[a]))
        if not vec_eq(f, lhs, rhs):
            ok, wit = False, {"basis": (i, j, a), "defect": vec_sub(f, lhs, rhs)}
            break
    rep.add("action_associative", ok, wit)
    rep.add("action_unital", all(vec_eq(f, act(X, B.unit, ex[a]), ex[a])
                                 for a in range(X.dim)))
    return rep


def mutate_action(X: ModComod, rng: random.Random) -> ModComod:
    """Add 1 to one seeded entry of the action tensor."""
    f = X.field
    action = {k: dict(v) for k, v in X.action.items()}
    key = (rng.randrange(X.algebra.dim), rng.randrange(X.dim))
    b = rng.randrange(X.dim)
    col = action.setdefault(key, {})
    val = f.add(col.get(b, f.zero()), f.one())
    if f.is_zero(val):
        del col[b]
    else:
        col[b] = val
    return X.copy_with(action=action, label=X.label + "+act")


def checks(rep: Report):
    return [(c.name, c.passed, c.witness) for c in rep.checks]


def test_trivial_is_yd_everywhere_and_stable():
    for name in ("kZ2", "kS3", "dualZ2", "sweedler", "taft327"):
        X = trivial_modcomod(named_algebra(name))
        assert check_yd(X).passed
        assert check_stable(X)


def test_trivial_ayd_depends_on_s_squared():
    # over cocommutative algebras AYD and YD coincide; over H4 they split
    assert check_ayd(trivial_modcomod(named_algebra("kS3"))).passed
    assert not check_ayd(trivial_modcomod(named_algebra("sweedler"))).passed


def test_ayd_equals_yd_when_s_squared_is_identity():
    for name in ("kZ3", "kS3", "dualZ2"):
        H = named_algebra(name)
        assert (H.antipode @ H.antipode) == Matrix.identity(H.dim, H.field)
        for X in base_corpus(H):
            if X.action is None or X.coaction is None:
                continue
            a, y = check_ayd(X), check_yd(X)
            assert a.passed == y.passed
            assert a.defects == y.defects


def test_h4_has_yd_module_that_is_not_ayd():
    H = named_algebra("sweedler")
    found = False
    for delta in enumerate_characters(H):
        for sigma in enumerate_grouplikes(H):
            X = one_dim_modcomod(H, delta, sigma)
            if check_yd(X).passed and not check_ayd(X).passed:
                found = True
    assert found


def test_stability_of_regular_modcomod():
    # h_(1) h_(2) = h fails for group algebras with more than one element
    assert not check_stable(regular_modcomod(named_algebra("kZ3")))
    # but the trivial group passes trivially: skip, smallest case is Z2
    assert not check_stable(regular_modcomod(named_algebra("sweedler")))


def test_onedim_stability_scalar():
    # sigma = g, delta(g) = -1 over H4: x_(-1) x_(0) = delta(g) x = -x
    H = named_algebra("sweedler")
    f = H.field
    delta = {0: f.one(), 1: f.of(-1), 2: f.zero(), 3: f.zero()}
    X = one_dim_modcomod(H, delta, {1: f.one()})
    assert not check_stable(X)
    Y = one_dim_modcomod(H, delta, {0: f.one()})
    assert check_stable(Y)


def test_equivariance_specializes_to_ayd_and_yd():
    for name in ("kZ3", "sweedler"):
        H = named_algebra(name)
        C = BimoduleCoalgebra.from_hopf(H)
        ident = BialgebraMorphism.identity(H)
        s = BialgebraMorphism.antipode(H)
        sinv = BialgebraMorphism.antipode_inverse(H)
        for X in base_corpus(H) + mutated_corpus(H, 6, seed=3):
            if X.action is None or X.coaction is None:
                continue
            eq_ayd = check_equivariant(X, C, ident, sinv)
            ayd = check_ayd(X)
            assert eq_ayd.passed == ayd.passed and eq_ayd.defects == ayd.defects
            eq_yd = check_equivariant(X, C, ident, s)
            yd = check_yd(X)
            assert eq_yd.passed == yd.passed and eq_yd.defects == yd.defects


def reference_sandwich_compat(X, conjugator, alpha=None):
    """The defects of rho(h x) against alpha(h_(1)) x_(-1) conj(h_(3)) (x)
    h_(2) x_(0), by a loop of its own over the Hopf algebra's structure
    maps: the oracle for ``check_ayd`` (conj = S^-1) and ``check_yd``
    (conj = S), which read the sandwich of their calculus, and, with the
    matrix ``alpha`` (default the identity), for ``check_equivariant`` over
    the regular bimodule coalgebra."""
    f = X.field
    H = X.algebra
    defects = {}
    dX = X.dim
    for i in range(H.dim):
        legs3 = comultiply_iter(H, basis_vec(f, i), 2)
        for a in range(X.dim):
            lhs = linear(f, X.coaction, act(X, basis_vec(f, i), basis_vec(f, a)))
            rhs = {}
            for fl, c in legs3.items():
                h12, h3 = divmod(fl, H.dim)
                h1, h2 = divmod(h12, H.dim)
                tail = apply(conjugator, basis_vec(f, h3))
                for fl2, c2 in X.coaction[a].items():
                    xm, x0 = divmod(fl2, dX)
                    head = basis_vec(f, h1) if alpha is None else column(alpha, h1)
                    left = multiply(H, multiply(H, head, basis_vec(f, xm)), tail)
                    right = act(X, basis_vec(f, h2), basis_vec(f, x0))
                    vec_add(f, rhs, vec_tensor(f, left, right, dX), f.mul(c, c2))
            d = vec_sub(f, lhs, rhs)
            if d:
                defects[(i, a)] = d
    return defects


@pytest.mark.parametrize("name", ACCEPTANCE_ALGEBRAS + ["kZ3_scaled"])
def test_compat_checks_match_the_reference_loop(name):
    # the acceptance corpus: the base modules and nine seeded mutations;
    # kZ3_scaled has non-integral structure constants
    H = named_algebra(name)
    corpus = base_corpus(H) + mutated_corpus(H, 9, seed=17)
    failing = 0
    for X in corpus:
        ayd, yd = check_ayd(X), check_yd(X)
        assert ayd.defects == reference_sandwich_compat(X, H.antipode_inverse())
        assert yd.defects == reference_sandwich_compat(X, H.antipode)
        failing += not ayd.passed
    assert failing


def test_compat_check_of_a_comodule_without_action_is_a_value_error():
    with pytest.raises(ValueError, match="module has no action"):
        check_ayd(coadjoint_comodule(named_algebra("kS3")))


def test_check_ayd_reads_the_calculus_it_is_given():
    # a held S^-1 calculus gives the report of a fresh one
    H = named_algebra("sweedler")
    calc = Calculus.k(H)
    for X in base_corpus(H) + mutated_corpus(H, 4, seed=2):
        if X.action is None:
            continue
        held, fresh = check_ayd(X, calc), check_ayd(X)
        assert (held.passed, held.defects) == (fresh.passed, fresh.defects)


def test_oslash_degenerate_case_is_plain_action():
    # M_0 is the action itself
    H = named_algebra("sweedler")
    f = H.field
    X = regular_modcomod(H)
    M = sandwich_action(Calculus.k(H), action_matrix(X), 0)
    for i in range(H.dim):
        for a in range(X.dim):
            got = apply(M, basis_vec(f, i * X.dim + a))
            assert got == act(X, basis_vec(f, i), basis_vec(f, a))


def test_oslash_conjugates_group_elements():
    # h(a (x) b) = h a h^-1 (x) h b for grouplike h
    H = named_algebra("kS3")
    f = H.field
    M = sandwich_action(Calculus.k(H), action_matrix(regular_modcomod(H)), 1)
    table = H.group_table
    inv = [next(j for j in range(6) if table[i][j] == 0) for i in range(6)]
    for h, a, b in itertools.product(range(6), repeat=3):
        got = apply(M, {(h * 6 + a) * 6 + b: f.one()})
        expect = {table[table[h][a]][inv[h]] * 6 + table[h][b]: f.one()}
        assert got == expect


def test_oslash_unit_acts_as_identity():
    H = named_algebra("sweedler")
    f = H.field
    M = sandwich_action(Calculus.k(H), action_matrix(trivial_modcomod(H)), 2)
    for fl in range(H.dim * H.dim):
        t = basis_vec(f, fl)
        assert apply(M, vec_tensor(f, H.unit, t, H.dim * H.dim)) == t


def test_oslash_is_not_monoidal_on_ayd_modules():
    """The sandwich bimodule H (x) H fails the AYD condition even when the
    factors are fine, so the construction does not give a monoidal product.
    Witnessed over H4 via the coadjoint comodule on each slot."""
    H = named_algebra("sweedler")
    f = H.field
    X = coadjoint_comodule(H)
    X.action = {k: dict(v) for k, v in H.mul.items()}
    assert check_ayd(X).passed
    M = sandwich_action(Calculus.k(H), action_matrix(X), 1)
    dim = H.dim * X.dim
    action = {(i, fl): column(M, i * dim + fl) for i in range(H.dim) for fl in range(dim)}
    coaction = []
    for a in range(H.dim):
        for b in range(X.dim):
            acc = {}
            for fl, c in X.coaction[b].items():
                h, b2 = divmod(fl, X.dim)
                # diagonal-style coaction candidate on the oslash product
                for fl2, c2 in H.comul[a].items():
                    a1, a2 = divmod(fl2, H.dim)
                    for h2, c3 in H.mul.get((a1, h), {}).items():
                        key = h2 * H.dim * X.dim + a2 * X.dim + b2
                        acc[key] = f.add(acc.get(key, f.zero()), f.mul(f.mul(c, c2), c3))
            coaction.append({k: v for k, v in acc.items() if not f.is_zero(v)})
    T = ModComod(H, H.dim * X.dim, action, coaction, label="oslash-candidate")
    assert not check_ayd(T).passed


@pytest.mark.parametrize("name", ACCEPTANCE_ALGEBRAS + ["kZ3_scaled"])
def test_sandwich_action_matches_reference_oslash_action(name):
    # every basis image of M_n, for the trivial module up to n = 2 and the
    # regular one up to n = 1, over both Hopf calculi; kZ3_scaled takes the
    # Fraction path of the calculus products
    H = named_algebra(name)
    f = H.field
    for calc, conj in ((Calculus.k(H, 2), H.antipode_inverse()),
                       (Calculus.khat(H, 2), H.antipode)):
        for X, top in ((trivial_modcomod(H), 2), (regular_modcomod(H), 1)):
            for n in range(top + 1):
                M = sandwich_action(calc, action_matrix(X), n)
                slots = [Slot.regular(H)] * n + [Slot.from_left_module(X)]
                span = H.dim ** n * X.dim
                for i, fl in itertools.product(range(H.dim), range(span)):
                    want = reference_oslash_action(slots, basis_vec(f, i),
                                                   basis_vec(f, fl), conj)
                    assert column(M, i * span + fl) == want, (name, calc, X, n, i, fl)


def test_lemma_sandwich_action_equivalence():
    H = named_algebra("sweedler")
    for X in base_corpus(H) + mutated_corpus(H, 8, seed=11):
        if X.action is None or X.coaction is None:
            continue
        rep = check_lemma_sandwich_action(X)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["sandwich_action_associative"].passed
        assert by_name["sandwich_action_unital"].passed
        assert by_name["coaction_is_module_map"].passed == check_ayd(X).passed


@pytest.mark.parametrize("name", ACCEPTANCE_ALGEBRAS + ["kZ3_scaled"])
def test_module_axioms_match_the_reference_loop(name):
    H = named_algebra(name)
    rng = random.Random(23)
    base = [X for X in base_corpus(H) if X.action is not None]
    corpus = base + [mutate_action(base[k % len(base)], rng) for k in range(6)]
    failing = 0
    for X in corpus:
        rep = check_module_axioms(X)
        assert checks(rep) == checks(reference_module_axioms(X)), X.label
        failing += not rep.passed
    assert failing


def test_coadjoint_collapses_for_group_algebras():
    H = named_algebra("kS3")
    f = H.field
    X = coadjoint_comodule(H)
    for g in range(H.dim):
        assert X.coaction[g] == {0 * X.dim + g: f.one()}
    D = named_algebra("dualZ2")
    Y = coadjoint_comodule(D)
    # the coaction is rho(delta_g) = 1 (x) delta_g with 1 = sum of deltas
    unit = D.unit
    for a in range(D.dim):
        expect = {i * D.dim + a: c for i, c in unit.items()}
        assert Y.coaction[a] == expect


def test_coadjoint_is_coassociative():
    for name in ("kZ3", "sweedler", "taft327"):
        X = coadjoint_comodule(named_algebra(name))
        assert not coassociativity_defects(X)
        assert check_comodule_axioms(X).passed


def test_bimodule_coalgebra_from_hopf():
    for name in ("kZ3", "sweedler"):
        C = BimoduleCoalgebra.from_hopf(named_algebra(name))
        assert verify_bimodule_coalgebra(C).passed


def reference_verify_bimodule_coalgebra(C: BimoduleCoalgebra) -> Report:
    """The oracle for ``verify_bimodule_coalgebra``: every axiom basis
    tuple by basis tuple, through the actions and the coproduct applied to
    one sparse vector at a time, on the dict twin of C."""
    C = DictCoalgebra.of(C)
    f = C.field
    B = C.B
    d = C.dim
    rep = Report()
    eb = [basis_vec(f, i) for i in range(B.dim)]
    ec = [basis_vec(f, a) for a in range(d)]

    def comultiply(c: Vec) -> Vec:
        return linear(f, C.comul, c)

    def expand(t: Vec, slot: int) -> Vec:
        out: Vec = {}
        for fl, coeff in t.items():
            a, b = divmod(fl, d)
            if slot == 0:
                for fl2, c2 in C.comul[a].items():
                    vec_add(f, out, {fl2 * d + b: f.mul(coeff, c2)})
            else:
                for fl2, c2 in C.comul[b].items():
                    vec_add(f, out, {a * d * d + fl2: f.mul(coeff, c2)})
        return out

    ok, wit = True, None
    for a in range(d):
        l, r = expand(C.comul[a], 0), expand(C.comul[a], 1)
        if not vec_eq(f, l, r):
            ok, wit = False, {"basis": a, "defect": vec_sub(f, l, r)}
            break
    rep.add("coassociativity", ok, wit)

    ok = True
    for a in range(d):
        l: Vec = {}
        r: Vec = {}
        for fl, c in C.comul[a].items():
            u, v = divmod(fl, d)
            vec_add(f, l, {v: f.mul(C.counit.get(u, f.zero()), c)})
            vec_add(f, r, {u: f.mul(C.counit.get(v, f.zero()), c)})
        if not (vec_eq(f, l, ec[a]) and vec_eq(f, r, ec[a])):
            ok = False
            break
    rep.add("counit", ok)

    ok = all(vec_eq(f, lact(C, B.mul.get((i, j), {}), ec[a]),
                    lact(C, eb[i], lact(C, eb[j], ec[a])))
             for i, j, a in itertools.product(range(B.dim), range(B.dim), range(d)))
    rep.add("left_action_associative", ok)
    ok = all(vec_eq(f, ract(C, ec[a], B.mul.get((i, j), {})),
                    ract(C, ract(C, ec[a], eb[i]), eb[j]))
             for i, j, a in itertools.product(range(B.dim), range(B.dim), range(d)))
    rep.add("right_action_associative", ok)
    ok = all(vec_eq(f, lact(C, eb[i], ract(C, ec[a], eb[j])),
                    ract(C, lact(C, eb[i], ec[a]), eb[j]))
             for i, j, a in itertools.product(range(B.dim), range(B.dim), range(d)))
    rep.add("actions_commute", ok)
    ok = all(vec_eq(f, lact(C, B.unit, ec[a]), ec[a]) and
             vec_eq(f, ract(C, ec[a], B.unit), ec[a]) for a in range(d))
    rep.add("actions_unital", ok)

    # Delta_C(b c b') = b_(1) c_(1) b'_(1) (x) b_(2) c_(2) b'_(2)
    ok, wit = True, None
    for i, a, j in itertools.product(range(B.dim), range(d), range(B.dim)):
        lhs = comultiply(ract(C, lact(C, eb[i], ec[a]), eb[j]))
        rhs: Vec = {}
        for fl_b, cb in B.comul[i].items():
            b1, b2 = divmod(fl_b, B.dim)
            for fl_c, cc in C.comul[a].items():
                c1, c2 = divmod(fl_c, d)
                for fl_p, cp in B.comul[j].items():
                    p1, p2 = divmod(fl_p, B.dim)
                    first = ract(C, lact(C, eb[b1], ec[c1]), eb[p1])
                    second = ract(C, lact(C, eb[b2], ec[c2]), eb[p2])
                    vec_add(f, rhs, vec_tensor(f, first, second, d),
                            f.mul(cb, f.mul(cc, cp)))
        if not vec_eq(f, lhs, rhs):
            ok, wit = False, {"basis": (i, a, j), "defect": vec_sub(f, lhs, rhs)}
            break
    rep.add("comul_is_bimodule_map", ok, wit)

    gl = comultiply(C.grouplike)
    rep.add("basepoint_grouplike",
            vec_eq(f, gl, vec_tensor(f, C.grouplike, C.grouplike, d)))
    eps = pairing(f, C.counit, C.grouplike)
    rep.add(f"basepoint_counit_value={f.to_str(eps)}", True)
    return rep


_BIMODULE_COALGEBRA_CHECKS = ["coassociativity", "counit", "left_action_associative",
                              "right_action_associative", "actions_commute",
                              "actions_unital", "comul_is_bimodule_map",
                              "basepoint_grouplike"]


def mutate_bimodule_coalgebra(C: BimoduleCoalgebra, rng: random.Random,
                              values) -> BimoduleCoalgebra:
    """A copy of C with one seeded entry of the left or right action, the
    coproduct, the counit or the basepoint set to one of ``values``, set in
    its dict twin."""
    f, bd, d = C.field, C.B.dim, C.dim
    T = DictCoalgebra.of(C)
    left, right, comul, counit, g = T.left, T.right, T.comul, T.counit, T.grouplike
    c = f.of(rng.choice(values))
    which = rng.choice(["left", "right", "comul", "counit", "grouplike"])
    if which == "left":
        left.setdefault((rng.randrange(bd), rng.randrange(d)), {})[rng.randrange(d)] = c
    elif which == "right":
        right.setdefault((rng.randrange(d), rng.randrange(bd)), {})[rng.randrange(d)] = c
    elif which == "comul":
        comul[rng.randrange(d)][rng.randrange(d * d)] = c
    elif which == "counit":
        counit[rng.randrange(d)] = c
    else:
        g[rng.randrange(d)] = c
    return T.matrices()


@pytest.mark.parametrize("name", ["kZ2", "kZ3", "kS3", "dualZ2", "sweedler", "kZ3_scaled",
                                  "taft327"])
def test_bimodule_coalgebra_corruptions_match_the_reference(name):
    # the regular bimodule coalgebra of each algebra and single-entry
    # corruptions of it: the matrix identities against the per-basis loop,
    # check for check and witness for witness
    H = named_algebra(name)
    f = H.field
    values = range(f.char) if f.char else [0, 1, -1, 2, "1/2"]
    C = BimoduleCoalgebra.from_hopf(H)
    rng = random.Random(sum(map(ord, name)))
    for D in [C] + [mutate_bimodule_coalgebra(C, rng, values)
                    for _ in range({"taft327": 10, "kS3": 12}.get(name, 30))]:
        got, want = verify_bimodule_coalgebra(D), reference_verify_bimodule_coalgebra(D)
        assert got.to_json() == want.to_json()
        assert checks_typed(got) == checks_typed(want)


def test_every_bimodule_coalgebra_check_fails_on_some_corruption():
    H = named_algebra("kZ3")
    C = BimoduleCoalgebra.from_hopf(H)
    rng = random.Random(3)
    failed = set()
    for _ in range(60):
        failed |= {c.name for c in
                   verify_bimodule_coalgebra(mutate_bimodule_coalgebra(C, rng, [0, 2, -1]))
                   .failures()}
    assert failed == set(_BIMODULE_COALGEBRA_CHECKS)


def reference_groupoid_decompose(X: ModComod) -> GroupoidReport:
    """``groupoid_decompose`` one basis vector at a time: each image of a
    grade's basis vector is reduced against the target grade's echelon basis
    (``reference_column_echelon``), and its coordinates are the multiples
    taken off."""
    H = X.algebra
    f, n, dX, table = H.field, H.dim, X.dim, H.group_table
    inverse = [next(j for j in range(n) if table[i][j] == 0) for i in range(n)]
    rho, eye = coaction_matrix(X), Matrix.identity(dX, f)
    projections = [pairing_matrix(f, {g: f.one()}, n).kron(eye) @ rho for g in range(n)]
    if sum(projections[1:], projections[0]) != eye:
        return GroupoidReport(False, "coaction is not counital: projections do not sum to the identity")
    for g in range(n):
        for h in range(n):
            prod = projections[g] @ projections[h]
            expect = projections[g] if g == h else Matrix.zero(dX, dX, f)
            if prod != expect:
                return GroupoidReport(
                    False, f"coaction components are not orthogonal idempotents at ({g},{h})")
    basis, pivots = {}, {}
    for g in range(n):
        basis[g], pivots[g] = reference_column_echelon(f, projections[g].columns())
    if sum(len(v) for v in basis.values()) != dX:
        return GroupoidReport(False, "grading blocks do not fill the space")
    dims = {g: len(basis[g]) for g in range(n) if basis[g]}
    blocks = {}
    for h in range(n):
        for g in list(dims):
            target = table[table[h][g]][inverse[h]]
            cols = []
            for v in basis[g]:
                rest = act(X, basis_vec(f, h), v)
                coords = {}
                for i, (b, p) in enumerate(zip(basis[target], pivots[target])):
                    c = rest.get(p)
                    if c is not None:
                        coords[i] = c
                        vec_add(f, rest, b, f.neg(c))
                if rest:
                    return GroupoidReport(
                        False,
                        f"action of {H.basis[h]} does not map grade {H.basis[g]} "
                        f"into grade {H.basis[target]}")
                cols.append(coords)
            blocks[(h, g)] = Matrix.from_columns(cols, len(basis[target]), f)
    return GroupoidReport(True, data=GroupoidData(dims, blocks), grading_basis=basis)


def decompose(X: ModComod) -> GroupoidReport:
    """``groupoid_decompose(X)``, after checking that it equals the
    reference: ``ok``, ``reason``, ``dims``, ``blocks`` and
    ``grading_basis``."""
    got, want = groupoid_decompose(X), reference_groupoid_decompose(X)
    assert (got.ok, got.reason) == (want.ok, want.reason)
    assert got.grading_basis == want.grading_basis
    assert all(type(v) is type(X.algebra.field.one())
               for vs in (got.grading_basis or {}).values() for b in vs for v in b.values())
    assert (got.data is None) == (want.data is None)
    if got.data is not None:
        assert got.data.dims == want.data.dims
        assert got.data.blocks == want.data.blocks
    return got


def conjugation_modcomod(H: HopfAlgebra) -> ModComod:
    """The regular comodule rho = Delta, grading M_g = span(g), with the
    conjugation action h . g = h g h^-1."""
    table = H.group_table
    inv = [next(j for j in range(H.dim) if table[i][j] == 0) for i in range(H.dim)]
    Y = regular_modcomod(H)
    Y.action = {(h, g): {table[table[h][g]][inv[h]]: H.field.one()}
                for h in range(H.dim) for g in range(H.dim)}
    return Y


def random_groupoid_data(H: HopfAlgebra, dims, rng: random.Random) -> GroupoidData:
    """Random diagonal block data on the grades ``dims``, which must be
    closed under conjugation; identity blocks at e."""
    f, table = H.field, H.group_table
    inv = [next(j for j in range(H.dim) if table[i][j] == 0) for i in range(H.dim)]
    blocks = {}
    for h in range(H.dim):
        for g in dims:
            t = table[table[h][g]][inv[h]]
            rows, cols = dims[t], dims[g]
            blocks[(h, g)] = Matrix(rows, cols, f,
                                    {(r, c): f.of(rng.randint(1, 3)) for r in range(rows)
                                     for c in range(cols) if r == c})
    for g in dims:
        blocks[(0, g)] = Matrix.identity(dims[g], f)
    return GroupoidData(dims, blocks)


def test_groupoid_trivial_module_sits_at_identity():
    H = named_algebra("kS3")
    rep = decompose(trivial_modcomod(H))
    assert rep.ok
    assert rep.data.dims == {0: 1}


def test_groupoid_regular_comodule_conjugation():
    H = named_algebra("kS3")
    X = coadjoint_comodule(H)
    X.action = {k: dict(v) for k, v in H.mul.items()}
    # rho^coad over a group algebra is trivial, so the grading collapses to e
    rep = decompose(X)
    assert rep.ok and rep.data.dims == {0: 6}
    # the regular comodule rho = Delta grades M_g = span(g); conjugation action
    Y = conjugation_modcomod(H)
    rep = decompose(Y)
    assert rep.ok
    assert rep.data.dims == {g: 1 for g in range(6)}
    assert check_ayd(Y).passed


def test_groupoid_round_trip():
    H = named_algebra("kS3")
    # random block data on a conjugacy-closed grade set: e and the 3-cycles
    dims = {0: 2, 3: 1, 4: 1}
    for seed in (7, 8, 9, 10, 11):
        data = random_groupoid_data(H, dims, random.Random(seed))
        rep = decompose(modcomod_from_groupoid(H, data))
        assert rep.ok
        assert rep.data.dims == dims
        for key, m in rep.data.blocks.items():
            assert m == data.blocks[key]


def test_groupoid_rejects_broken_grading():
    H = named_algebra("kS3")
    X = regular_modcomod(H)     # action by multiplication does not conjugate
    rep = decompose(X)
    assert not rep.ok
    assert "does not map grade" in rep.reason


def shift_coaction(X: ModComod, rng: random.Random) -> ModComod:
    """Add 1 to one seeded entry of the coaction at a grade g and -1 to the
    same entry at another grade: the projections still sum to the
    identity, so the split fails, if at all, past the counit."""
    f = X.field
    Y = X.copy_with(label=X.label + "+shift")
    a, b = rng.randrange(X.dim), rng.randrange(X.dim)
    for grade, c in zip(rng.sample(range(X.codim), 2), (f.one(), f.neg(f.one()))):
        fl = grade * X.dim + b
        val = f.add(Y.coaction[a].get(fl, f.zero()), c)
        if f.is_zero(val):
            del Y.coaction[a][fl]
        else:
            Y.coaction[a][fl] = val
    return Y


GROUPOID_REASONS = ("not counital", "not orthogonal idempotents", "does not map grade")


@pytest.mark.parametrize("name,dims", [("kS3", {0: 2, 3: 1, 4: 1}), ("kZ3", {0: 1, 1: 2, 2: 1})])
def test_groupoid_matches_the_reference_on_mutated_modules(name, dims):
    # coactions mutated by one entry (not counital) or shifted between two
    # grades (not idempotent, or a new grading the action does not respect),
    # and actions mutated by one entry
    H = named_algebra(name)
    rng = random.Random(sum(map(ord, name)))
    coadjoint = coadjoint_comodule(H)
    coadjoint.action = {k: dict(v) for k, v in H.mul.items()}
    bases = [trivial_modcomod(H), coadjoint, conjugation_modcomod(H), regular_modcomod(H),
             modcomod_from_groupoid(H, random_groupoid_data(H, dims, rng))]
    reached = {"coaction": set(), "action": set()}
    for k in range(40):
        X = bases[k % len(bases)]
        for kind, Y in (("coaction", mutate_coaction(X, rng)), ("coaction", shift_coaction(X, rng)),
                        ("action", mutate_action(X, rng))):
            reason = decompose(Y).reason
            reached[kind].add(next((r for r in GROUPOID_REASONS if r in reason), reason))
    assert reached["coaction"] >= set(GROUPOID_REASONS)
    assert reached["action"] == {"", "does not map grade"}


def test_mutations_break_something():
    H = named_algebra("kZ3")
    broken = 0
    for X in mutated_corpus(H, 10, seed=1):
        if not check_ayd(X).passed or coassociativity_defects(X):
            broken += 1
    assert broken >= 8


def test_action_and_coaction_matrices_are_built_once_per_table():
    # kept while the table is the same object, built anew when it is rebound
    # (the coadjoint comodule gets its action after it is made) and for a copy
    H = named_algebra("sweedler")
    X = trivial_modcomod(H)
    act, rho = action_matrix(X), coaction_matrix(X)
    assert action_matrix(X) is act and coaction_matrix(X) is rho
    Y = X.copy_with()
    assert action_matrix(Y) is not act and action_matrix(Y) == act
    X.action = {(i, 0): {} for i in range(H.dim)}
    X.coaction = [{1: H.field.one()}]
    assert action_matrix(X).is_zero() and coaction_matrix(X) != rho


# ---------------------------------------------------------------------------
# the enumerations against the dict backtracking they replaced


def reference_backtrack(H: HopfAlgebra, partial_ok):
    """Every tuple of ``_candidate_values`` that ``partial_ok`` accepts at
    each of its prefixes, depth first, in the candidates' order."""
    values = _candidate_values(H.field)
    sols, assign = [], []

    def rec():
        if len(assign) == H.dim:
            sols.append(tuple(assign))
            return
        for v in values:
            assign.append(v)
            if partial_ok(H, assign):
                rec()
            assign.pop()

    rec()
    return sols


def reference_partial_val(f, assign, v: Vec):
    """sum v_i assign[i], or None while some i of v is unassigned."""
    acc = f.zero()
    for i, c in v.items():
        if i >= len(assign):
            return None
        acc = f.add(acc, f.mul(assign[i], c))
    return acc


def reference_char_ok(H: HopfAlgebra, assign) -> bool:
    """delta(1) = 1 and delta(e_i e_j) = delta_i delta_j, wherever the
    assigned values decide them, read off the dict tables."""
    f, k = H.field, len(assign)
    one = reference_partial_val(f, assign, H.unit)
    if one is not None and not f.is_zero(f.sub(one, f.one())):
        return False
    for i in range(k):
        for j in range(k):
            lhs = reference_partial_val(f, assign, H.mul.get((i, j), {}))
            if lhs is not None and not f.is_zero(f.sub(lhs, f.mul(assign[i], assign[j]))):
                return False
    return True


def reference_grouplike_partial_ok(H: HopfAlgebra, assign) -> bool:
    """Delta(sigma)[a, b] = sigma_a sigma_b wherever the assigned values
    decide it, read off the dict tables."""
    f, d, k = H.field, H.dim, len(assign)
    for a in range(k):
        for b in range(k):
            acc, complete = f.zero(), True
            for i in range(d):
                c = H.comul[i].get(a * d + b)
                if c is None:
                    continue
                if i >= k:
                    complete = False
                    break
                acc = f.add(acc, f.mul(assign[i], c))
            if complete and not f.is_zero(f.sub(acc, f.mul(assign[a], assign[b]))):
                return False
    return True


def reference_characters(H: HopfAlgebra):
    return [dict(zip(range(H.dim), sol)) for sol in reference_backtrack(H, reference_char_ok)]


def reference_grouplikes(H: HopfAlgebra):
    f, out = H.field, []
    for sol in reference_backtrack(H, reference_grouplike_partial_ok):
        v = {i: c for i, c in enumerate(sol) if not f.is_zero(c)}
        if is_grouplike(H, v):
            out.append(v)
    return out


def workload_builtins():
    """Every (algebra, field) that the benchmark's workloads name, read from
    their source without importing the benchmark."""
    tree = ast.parse((ROOT / "verdictbench" / "workloads.py").read_text())
    lists = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("DGA_CASES", "MODULE_ALGEBRAS", "TENSOR_ALGEBRAS",
                                        "COTOR_CASES")}
    assert len(lists) == 4
    return sorted({case[:2] for cases in lists.values() for case in cases})


def typed(vs):
    return [[(k, type(c), c) for k, c in v.items()] for v in vs]


@pytest.mark.parametrize("name,field", workload_builtins())
def test_enumerations_match_the_backtracking(name, field):
    # the list, its order and the scalar types, on the algebra and on two
    # seeded relabelings of its basis
    H = cli.builtin_hopf(name, Field.parse(field))
    rng = random.Random(f"{name}/{field}")
    for K in [H] + [permute_basis(H, rng.sample(range(H.dim), H.dim)) for _ in range(2)]:
        assert typed(enumerate_characters(K)) == typed(reference_characters(K))
        assert typed(enumerate_grouplikes(K)) == typed(reference_grouplikes(K))


@pytest.mark.parametrize("field", ["Q", "F3"])
def test_grouplike_solutions_match_a_brute_force_search(field):
    # seeded random systems [M; ell] with d = 1..3, each made so that a
    # random candidate tuple v fails exactly one chosen equation: the
    # search must list every tuple, in order, that solves M v = v (x) v and
    # ell v = 1, so a search that skipped the chosen equation would list v
    f = Field.parse(field)
    values, rng = _candidate_values(f), random.Random(3902)

    def column(v):
        return Matrix(len(v), 1, f, {(i, 0): c for i, c in enumerate(v)})
    for d, target, _ in itertools.product([1, 2, 3], range(10), range(4)):
        if target > d * d:          # row d * d is ell
            continue
        v, i0 = [rng.choice(values) for _ in range(d)], rng.randrange(d)
        v[i0] = f.one()
        rows = [{i: rng.choice(values) for i in range(d) if rng.random() < 0.5}
                for _ in range(d * d + 1)]
        for r, row in enumerate(rows):         # the coefficient at i0 sets the defect
            rhs = f.mul(v[r // d], v[r % d]) if r < d * d else f.one()
            row[i0] = f.add(f.sub(rhs, sum(c * v[i] for i, c in row.items() if i != i0)),
                            f.of(int(r == target)))
        M = Matrix(d * d, d, f, {(r, i): c for r, row in enumerate(rows[:-1])
                                 for i, c in row.items()})
        ell = Matrix(1, d, f, {(0, i): c for i, c in rows[-1].items()})
        want = [w for w in itertools.product(values, repeat=d)
                if M @ column(w) == column(w).kron(column(w))
                and ell @ column(w) == Matrix.identity(1, f)]
        assert tuple(v) not in want
        assert _grouplike_solutions(f, d, M.entries(), ell.entries()) == want
