"""Modules, comodules and their compatibility conditions.

Covers the two sandwich compatibility conditions (the S^-1 flavour used by
Hopf-cyclic coefficients and the S flavour of Yetter-Drinfeld theory),
stability, the generalized (alpha, beta)-equivariance over a bimodule
coalgebra, the action axioms, and the conjugation-groupoid grading of
comodules over group algebras.

An action is also a matrix, X <- B (x) X (``action_matrix``), and
``add_action_axioms`` checks associativity and unitality as two matrix
identities on it.  The B-module structure on the coefficient spaces
C^n (x) X of a connection is left multiplication by Omega^0 = B in the
calculus, read through the action (``connections.sandwich_action``); it
is checked by the same function.

Each compatibility check reads the sandwich of its calculus,
``Calculus.sandwich``: AYD (S^-1) from K = ``Calculus.k``, YD (S) from
K-hat = ``Calculus.khat``, and (alpha, beta)-equivariance from
``Calculus.general``.  Those are the columns of the sandwich matrix that
builds the calculus's products, so a module passes exactly when its
connection satisfies the Leibniz rule there
(``connections.check_connection`` uses the same ``sandwich_act``).

A coaction candidate is *not* required to be coassociative at construction
time: the flat-connection correspondence needs non-coassociative candidates
to be representable, so coassociativity is a separately reported check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .fields import Field
from .hopf import BialgebraMorphism, HopfAlgebra
from .linalg import (Matrix, Vec, basis_vec, bilinear, column_echelon, column_witness,
                     echelon_coords, linear, pairing, vec_add, vec_eq, vec_sub, vec_tensor)
from .reports import Report


@dataclass
class BimoduleCoalgebra:
    """A coalgebra C carrying a compatible B-bimodule structure and a
    distinguished grouplike element (the basepoint of the differentials)."""

    B: HopfAlgebra
    dim: int
    comul: List[Vec]                        # c -> C (x) C, flat
    counit: Dict[int, object]
    left: Dict[Tuple[int, int], Vec]        # (b_i, c_a) -> b_i . c_a
    right: Dict[Tuple[int, int], Vec]       # (c_a, b_i) -> c_a . b_i
    grouplike: Vec

    @property
    def field(self) -> Field:
        return self.B.field

    @classmethod
    def from_hopf(cls, H: HopfAlgebra) -> "BimoduleCoalgebra":
        """H as a bimodule coalgebra over itself (regular actions, I = 1)."""
        mul = {(i, j): dict(v) for (i, j), v in H.mul.items()}
        mul_r = {(a, i): dict(H.mul.get((a, i), {})) for a in range(H.dim) for i in range(H.dim)}
        return cls(H, H.dim, [dict(t) for t in H.comul], dict(H.counit),
                   mul, mul_r, dict(H.unit))

    def lact(self, b: Vec, c: Vec) -> Vec:
        return bilinear(self.field, self.left, b, c)

    def ract(self, c: Vec, b: Vec) -> Vec:
        return bilinear(self.field, self.right, c, b)

    def comultiply(self, c: Vec) -> Vec:
        return linear(self.field, self.comul, c)


def verify_bimodule_coalgebra(C: BimoduleCoalgebra) -> Report:
    """Coassociativity, counit, bimodule axioms, the bimodule-coalgebra
    compatibility of Delta_C, and grouplikeness of the basepoint.

    A basepoint with counit value != 1 is reported as a warning check (it
    cannot arise from a coalgebra map k -> C) but does not fail the report.
    """
    f = C.field
    B = C.B
    d = C.dim
    rep = Report()
    eb = [basis_vec(f, i) for i in range(B.dim)]
    ec = [basis_vec(f, a) for a in range(d)]

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

    ok = all(vec_eq(f, C.lact(B.mul.get((i, j), {}), ec[a]),
                    C.lact(eb[i], C.lact(eb[j], ec[a])))
             for i, j, a in itertools.product(range(B.dim), range(B.dim), range(d)))
    rep.add("left_action_associative", ok)
    ok = all(vec_eq(f, C.ract(ec[a], B.mul.get((i, j), {})),
                    C.ract(C.ract(ec[a], eb[i]), eb[j]))
             for i, j, a in itertools.product(range(B.dim), range(B.dim), range(d)))
    rep.add("right_action_associative", ok)
    ok = all(vec_eq(f, C.lact(eb[i], C.ract(ec[a], eb[j])),
                    C.ract(C.lact(eb[i], ec[a]), eb[j]))
             for i, j, a in itertools.product(range(B.dim), range(B.dim), range(d)))
    rep.add("actions_commute", ok)
    ok = all(vec_eq(f, C.lact(B.unit, ec[a]), ec[a]) and
             vec_eq(f, C.ract(ec[a], B.unit), ec[a]) for a in range(d))
    rep.add("actions_unital", ok)

    # Delta_C(b c b') = b_(1) c_(1) b'_(1) (x) b_(2) c_(2) b'_(2)
    ok, wit = True, None
    for i, a, j in itertools.product(range(B.dim), range(d), range(B.dim)):
        lhs = C.comultiply(C.ract(C.lact(eb[i], ec[a]), eb[j]))
        rhs: Vec = {}
        for fl_b, cb in B.comul[i].items():
            b1, b2 = divmod(fl_b, B.dim)
            for fl_c, cc in C.comul[a].items():
                c1, c2 = divmod(fl_c, d)
                for fl_p, cp in B.comul[j].items():
                    p1, p2 = divmod(fl_p, B.dim)
                    first = C.ract(C.lact(eb[b1], ec[c1]), eb[p1])
                    second = C.ract(C.lact(eb[b2], ec[c2]), eb[p2])
                    vec_add(f, rhs, vec_tensor(f, first, second, d),
                            f.mul(cb, f.mul(cc, cp)))
        if not vec_eq(f, lhs, rhs):
            ok, wit = False, {"basis": (i, a, j), "defect": vec_sub(f, lhs, rhs)}
            break
    rep.add("comul_is_bimodule_map", ok, wit)

    gl = C.comultiply(C.grouplike)
    rep.add("basepoint_grouplike",
            vec_eq(f, gl, vec_tensor(f, C.grouplike, C.grouplike, d)))
    eps = pairing(f, C.counit, C.grouplike)
    # a coalgebra map k -> C forces counit value 1 on the basepoint; report
    # the value as a warning rather than a failure
    rep.add(f"basepoint_counit_value={f.to_str(eps)}", True)
    return rep


@dataclass
class ModComod:
    """A vector space with an action of B and/or a coaction of C.

    For the Hopf-algebra setting C = B = H and ``coalgebra`` is None; the
    generalized setting stores the bimodule coalgebra explicitly.
    """

    algebra: HopfAlgebra
    dim: int
    action: Optional[Dict[Tuple[int, int], Vec]] = None    # (b_i, x_a) -> X
    coaction: Optional[List[Vec]] = None                   # a -> C (x) X, flat
    coalgebra: Optional[BimoduleCoalgebra] = None
    label: str = ""

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def codim(self) -> int:
        return self.coalgebra.dim if self.coalgebra is not None else self.algebra.dim

    def act(self, h: Vec, x: Vec) -> Vec:
        if self.action is None:
            raise ValueError("module has no action")
        return bilinear(self.field, self.action, h, x)

    def coact(self, x: Vec) -> Vec:
        if self.coaction is None:
            raise ValueError("module has no coaction")
        return linear(self.field, self.coaction, x)

    def copy_with(self, action=None, coaction=None, label=None) -> "ModComod":
        return ModComod(self.algebra, self.dim,
                        action if action is not None else
                        ({k: dict(v) for k, v in self.action.items()} if self.action else None),
                        coaction if coaction is not None else
                        ([dict(t) for t in self.coaction] if self.coaction else None),
                        self.coalgebra, label if label is not None else self.label)

    def __repr__(self):
        tag = self.label or "ModComod"
        return f"{tag}(dim={self.dim} over {self.algebra!r})"


@dataclass
class DefectReport:
    """Outcome of a bilinear compatibility check: the full defect tensor per
    basis pair, so equalities of defects (not just booleans) can be asserted."""

    name: str
    defects: Dict[tuple, Vec]

    @property
    def passed(self) -> bool:
        return not self.defects

    def witness(self):
        if not self.defects:
            return None
        key = min(self.defects)
        return {"basis": key, "defect": self.defects[key]}

    def __repr__(self):
        return f"DefectReport({self.name}: {'pass' if self.passed else f'{len(self.defects)} defects'})"


# ---------------------------------------------------------------------------
# structure-map axioms (reported separately; see module docstring)


def action_matrix(X: ModComod) -> Matrix:
    """The action as the matrix X <- B (x) X."""
    return Matrix.from_columns_csr([X.action.get((b, x), {}) for b in range(X.algebra.dim)
                                    for x in range(X.dim)], X.dim, X.field)


def add_action_axioms(rep: Report, name: str, B: HopfAlgebra, M: Matrix) -> None:
    """Add to ``rep`` that M: V <- B (x) V is an action of B: associative,
    M (mu (x) I_V) = M (I_B (x) M), witnessed at the first failing basis
    (i, j, v) of B (x) B (x) V, and unital, M (u (x) I_V) = I_V, with mu
    the multiplication and u the unit as a B x 1 column."""
    f, bd, vd = B.field, B.dim, M.rows
    mu = Matrix.from_columns_csr([B.mul.get((i, j), {}) for i in range(bd)
                                  for j in range(bd)], bd, f)
    u = Matrix.from_columns_csr([B.unit], bd, f)
    eye = Matrix.identity(vd, f)
    w = column_witness(M @ mu.kron(eye), M @ Matrix.identity(bd, f).kron(M), [bd, bd, vd])
    rep.add(f"{name}_associative", w is None, w)
    rep.add(f"{name}_unital", M @ u.kron(eye) == eye)


def check_module_axioms(X: ModComod) -> Report:
    rep = Report()
    add_action_axioms(rep, "action", X.algebra, action_matrix(X))
    return rep


def coassociativity_defects(X: ModComod) -> Dict[tuple, Vec]:
    """Per-basis defect of (Delta_C (x) id) rho - (id (x) rho) rho."""
    f = X.field
    dc = X.codim
    C = X.coalgebra
    out: Dict[tuple, Vec] = {}
    for a in range(X.dim):
        lhs: Vec = {}
        rhs: Vec = {}
        for fl, c in X.coaction[a].items():
            ci, xb = divmod(fl, X.dim)
            cm = C.comul[ci] if C is not None else X.algebra.comul[ci]
            for fl2, c2 in cm.items():
                vec_add(f, lhs, {fl2 * X.dim + xb: f.mul(c, c2)})
            for fl2, c2 in X.coaction[xb].items():
                vec_add(f, rhs, {ci * dc * X.dim + fl2: f.mul(c, c2)})
        d = vec_sub(f, lhs, rhs)
        if d:
            out[(a,)] = d
    return out


def check_comodule_axioms(X: ModComod) -> Report:
    f = X.field
    rep = Report()
    defects = coassociativity_defects(X)
    rep.add("coaction_coassociative", not defects,
            None if not defects else {"basis": min(defects), "defect": defects[min(defects)]})
    counit = X.coalgebra.counit if X.coalgebra is not None else X.algebra.counit
    ok = True
    for a in range(X.dim):
        acc: Vec = {}
        for fl, c in X.coaction[a].items():
            ci, xb = divmod(fl, X.dim)
            eps = counit.get(ci)
            if eps is not None:
                vec_add(f, acc, {xb: f.mul(eps, c)})
        if not vec_eq(f, acc, basis_vec(f, a)):
            ok = False
            break
    rep.add("coaction_counital", ok)
    return rep


# ---------------------------------------------------------------------------
# compatibility conditions


def b_slot_act(X: ModComod, terms) -> Vec:
    """The sum of coeff * v (x)_B x in C (x) X over the (coeff, v, x) of
    ``terms``: c (x) b.x over the terms c (x) b of v in C (x) B."""
    f = X.field
    bd, xd, zero = X.algebra.dim, X.dim, f.zero()
    out: Vec = {}
    for coeff, v, x in terms:
        for fl, cv in v.items():
            c, b = divmod(fl, bd)
            cc = f.mul(coeff, cv)
            for y, cy in X.action.get((b, x), {}).items():
                k = c * xd + y
                out[k] = f.add(out.get(k, zero), f.mul(cc, cy))
    return {k: v for k, v in out.items() if not f.is_zero(v)}


def sandwich_act(calc, X: ModComod, b: int, t: Vec) -> Vec:
    """The sandwich action of the basis element b on t in C (x) X: the
    ``calc.sandwich`` column (b, c) (x)_B x over the terms c (x) x of t."""
    return b_slot_act(X, ((ct, calc.sandwich(b, fl // X.dim), fl % X.dim)
                          for fl, ct in t.items()))


def _compat_defects(calc, X: ModComod, name: str) -> DefectReport:
    """rho(b x) against b . rho(x) = sand(b_(1), x_(-1), b_(3)) (x)
    b_(2) x_(0), for every basis pair (b, x)."""
    f = X.field
    defects: Dict[tuple, Vec] = {}
    for i in range(calc.B.dim):
        for a in range(X.dim):
            lhs = X.coact(X.act(basis_vec(f, i), basis_vec(f, a)))
            d = vec_sub(f, lhs, sandwich_act(calc, X, i, X.coaction[a]))
            if d:
                defects[(i, a)] = d
    return DefectReport(name, defects)


def check_ayd(X: ModComod) -> DefectReport:
    """The S^-1 sandwich compatibility (coefficients of Hopf-cyclic theory)."""
    from .calculus import Calculus
    return _compat_defects(Calculus.k(X.algebra), X, "ayd")


def check_yd(X: ModComod) -> DefectReport:
    """The S sandwich (Yetter-Drinfeld) compatibility."""
    from .calculus import Calculus
    return _compat_defects(Calculus.khat(X.algebra), X, "yd")


def check_equivariant(X: ModComod, C: BimoduleCoalgebra,
                      alpha: BialgebraMorphism, beta: BialgebraMorphism) -> DefectReport:
    """The (alpha, beta)-equivariance condition over a bimodule coalgebra:
    rho(b x) = alpha(b_(1)) x_(-1) beta(b_(3)) (x) b_(2) x_(0)."""
    from .calculus import Calculus
    return _compat_defects(Calculus.general(C, alpha, beta), X, "equivariant")


def check_stable(X: ModComod) -> bool:
    """True iff acting with x_(-1) on x_(0) returns x, for all basis x."""
    f = X.field
    for a in range(X.dim):
        acc: Vec = {}
        for fl, c in X.coaction[a].items():
            hm, x0 = divmod(fl, X.dim)
            vec_add(f, acc, X.act(basis_vec(f, hm), basis_vec(f, x0)), c)
        if not vec_eq(f, acc, basis_vec(f, a)):
            return False
    return True


# ---------------------------------------------------------------------------
# standard module-comodule constructions


def trivial_modcomod(H: HopfAlgebra) -> ModComod:
    """1-dimensional: action through the counit, coaction through the unit."""
    f = H.field
    action = {(i, 0): ({0: H.counit[i]} if i in H.counit else {}) for i in range(H.dim)}
    coaction = [dict(H.unit)]      # X has dim 1, so C (x) X indices = C indices
    return ModComod(H, 1, action, coaction, label="trivial")


def one_dim_modcomod(H: HopfAlgebra, delta: Dict[int, object], sigma: Vec,
                     check: bool = True) -> ModComod:
    """1-dimensional module-comodule from a character and a grouplike."""
    f = H.field
    if check:
        if not is_character(H, delta):
            raise ValueError("delta is not an algebra character")
        if not is_grouplike(H, sigma):
            raise ValueError("sigma is not grouplike")
    action = {(i, 0): ({0: delta[i]} if i in delta and not f.is_zero(delta[i]) else {})
              for i in range(H.dim)}
    return ModComod(H, 1, action, [dict(sigma)], label="onedim")


def regular_modcomod(H: HopfAlgebra) -> ModComod:
    """H acting on itself by multiplication, coacting by the coproduct."""
    action = {k: dict(v) for k, v in H.mul.items()}
    return ModComod(H, H.dim, action, [dict(t) for t in H.comul], label="regular")


def coadjoint_comodule(H: HopfAlgebra) -> ModComod:
    """H with the coadjoint coaction h -> h_(1) S^-1(h_(3)) (x) h_(2): the
    cobar oracle's coefficients for the bare S^-1 calculus."""
    from .calculus import Calculus
    from .homology import _basepoint_coadjoint
    X = _basepoint_coadjoint(Calculus.k(H))
    X.label = "coadjoint"
    return X


def is_character(H: HopfAlgebra, delta: Dict[int, object]) -> bool:
    f = H.field
    if not f.is_zero(f.sub(pairing(f, delta, H.unit), f.one())):
        return False
    for i in range(H.dim):
        for j in range(H.dim):
            lhs = pairing(f, delta, H.mul.get((i, j), {}))
            rhs = f.mul(delta.get(i, f.zero()), delta.get(j, f.zero()))
            if not f.is_zero(f.sub(lhs, rhs)):
                return False
    return True


def is_grouplike(H: HopfAlgebra, sigma: Vec) -> bool:
    f = H.field
    if f.is_zero(f.sub(H.counit_of(sigma), f.one())):
        return vec_eq(f, H.comultiply(sigma), vec_tensor(f, sigma, sigma, H.dim))
    return False


def enumerate_characters(H: HopfAlgebra) -> List[Dict[int, object]]:
    """All algebra characters with values in {0, 1, -1} over Q, or in F_p.

    A finite-candidate search: complete for the built-in algebras (whose
    character values are roots of unity or zero), used to supply corpora.
    """
    return [dict(zip(range(H.dim), sol)) for sol in _backtrack_solutions(H, _char_ok)]


def enumerate_grouplikes(H: HopfAlgebra) -> List[Vec]:
    """All grouplike elements with coordinates from the same candidate set."""
    out = []
    f = H.field
    for sol in _backtrack_solutions(H, _grouplike_partial_ok):
        v = {i: c for i, c in enumerate(sol) if not f.is_zero(c)}
        if is_grouplike(H, v):
            out.append(v)
    return out


def _candidate_values(f: Field):
    if f.char:
        return [f.of(k) for k in range(f.char)]
    return [f.of(0), f.of(1), f.of(-1)]


def _backtrack_solutions(H: HopfAlgebra, partial_ok):
    f = H.field
    values = _candidate_values(f)
    sols = []
    assign: List[object] = []

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


def _partial_val(f: Field, assign: List[object], v: Vec):
    acc = f.zero()
    for i, c in v.items():
        if i >= len(assign):
            return None
        acc = f.add(acc, f.mul(assign[i], c))
    return acc


def _char_ok(H: HopfAlgebra, assign: List[object]) -> bool:
    f = H.field
    k = len(assign)
    one = _partial_val(f, assign, H.unit)
    if one is not None and not f.is_zero(f.sub(one, f.one())):
        return False
    for i in range(k):
        for j in range(k):
            lhs = _partial_val(f, assign, H.mul.get((i, j), {}))
            if lhs is None:
                continue
            if not f.is_zero(f.sub(lhs, f.mul(assign[i], assign[j]))):
                return False
    return True


def _grouplike_partial_ok(H: HopfAlgebra, assign: List[object]) -> bool:
    f = H.field
    d = H.dim
    k = len(assign)
    # Delta(sigma)[a,b] must equal sigma_a sigma_b for all assigned (a, b)
    for a in range(k):
        for b in range(k):
            acc = f.zero()
            complete = True
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


# ---------------------------------------------------------------------------
# conjugation-groupoid grading over group algebras


@dataclass
class GroupoidData:
    """A functor from the conjugation groupoid into vector spaces: a graded
    dimension per group element and one block matrix per (h, g) morphism."""

    dims: Dict[int, int]
    blocks: Dict[Tuple[int, int], Matrix]       # (h, g): M_g -> M_{h g h^-1}


@dataclass
class GroupoidReport:
    ok: bool
    reason: str = ""
    data: Optional[GroupoidData] = None
    grading_basis: Optional[Dict[int, List[Vec]]] = None


def groupoid_decompose(X: ModComod) -> GroupoidReport:
    """Split a comodule over a group algebra into its grading M_g and express
    the action as conjugation-groupoid functor data.

    Replays the basis argument of the guiding example: the coaction of a
    group algebra is a family of complementary idempotent projections; the
    split fails exactly when those matrix identities fail.
    """
    H = X.algebra
    if H.group_table is None:
        raise ValueError("not a group algebra")
    f = H.field
    n = H.dim
    dX = X.dim
    table = H.group_table
    inverse = [next(j for j in range(n) if table[i][j] == 0) for i in range(n)]

    projections: List[Matrix] = []
    for g in range(n):
        data = {}
        for a in range(dX):
            for fl, c in X.coaction[a].items():
                hg, b = divmod(fl, dX)
                if hg == g:
                    data[(b, a)] = c
        projections.append(Matrix(dX, dX, f, data))

    total = projections[0]
    for g in range(1, n):
        total = total + projections[g]
    if total != Matrix.identity(dX, f):
        return GroupoidReport(False, "coaction is not counital: projections do not sum to the identity")
    for g in range(n):
        for h in range(n):
            prod = projections[g] @ projections[h]
            expect = projections[g] if g == h else Matrix.zero(dX, dX, f)
            if prod != expect:
                return GroupoidReport(
                    False, f"coaction components are not orthogonal idempotents at ({g},{h})")

    basis: Dict[int, List[Vec]] = {}
    pivots: Dict[int, List[int]] = {}
    for g in range(n):
        vecs, pivs = column_echelon(f, projections[g].columns())
        basis[g] = vecs
        pivots[g] = pivs
    if sum(len(v) for v in basis.values()) != dX:
        return GroupoidReport(False, "grading blocks do not fill the space")

    dims = {g: len(basis[g]) for g in range(n) if basis[g]}
    blocks: Dict[Tuple[int, int], Matrix] = {}
    for h in range(n):
        for g in list(dims):
            target = table[table[h][g]][inverse[h]]
            cols = []
            for v in basis[g]:
                img = X.act(basis_vec(f, h), v)
                coords = echelon_coords(f, img, basis.get(target, []),
                                        pivots.get(target, []))
                if coords is None:
                    return GroupoidReport(
                        False,
                        f"action of {H.basis[h]} does not map grade {H.basis[g]} "
                        f"into grade {H.basis[target]}")
                cols.append(coords)
            blocks[(h, g)] = Matrix.from_columns(cols, len(basis.get(target, [])), f)
    return GroupoidReport(True, data=GroupoidData(dims, blocks), grading_basis=basis)


def modcomod_from_groupoid(H: HopfAlgebra, data: GroupoidData) -> ModComod:
    """Assemble the module-comodule attached to conjugation-groupoid functor
    data: coaction diagonal per grade, action by the block matrices."""
    if H.group_table is None:
        raise ValueError("not a group algebra")
    f = H.field
    grades = sorted(g for g, d in data.dims.items() if d > 0)
    offset: Dict[int, int] = {}
    dim = 0
    for g in grades:
        offset[g] = dim
        dim += data.dims[g]
    table = H.group_table
    inverse = [next(j for j in range(H.dim) if table[i][j] == 0) for i in range(H.dim)]

    coaction: List[Vec] = []
    for g in grades:
        for k in range(data.dims[g]):
            coaction.append({g * dim + offset[g] + k: f.one()})

    action: Dict[Tuple[int, int], Vec] = {}
    for h in range(H.dim):
        for g in grades:
            target = table[table[h][g]][inverse[h]]
            block = data.blocks[(h, g)]
            for k in range(data.dims[g]):
                col = block.column(k)
                action[(h, offset[g] + k)] = {offset[target] + r: c for r, c in col.items()}
    return ModComod(H, dim, action, coaction, label="groupoid")
