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
is checked by the same function, and the bimodule coalgebra behind the
generalized calculus by matrix identities too (``verify_bimodule_coalgebra``).

Each compatibility check is one matrix identity on B (x) X,

    rho . act = M_1 (I_B (x) rho),

with M_1 the sandwich action of its calculus on C (x) X
(``connections.sandwich_action``), which reads the sandwich matrix that
builds the calculus's products: AYD (S^-1) over K = ``Calculus.k``, YD (S)
over K-hat = ``Calculus.khat``, and (alpha, beta)-equivariance over
``Calculus.general``.  So a module passes exactly when its connection
satisfies the Leibniz rule there (``connections.check_connection``
reads the same M_1).  Column (b, x) of the difference of the two sides is
the defect rho(b x) - b . rho(x).  ``check_ayd`` also takes the S^-1
calculus a caller already holds, so that its sandwich matrix is built
once.

A coaction candidate is *not* required to be coassociative at construction
time: the flat-connection correspondence needs non-coassociative candidates
to be representable, so coassociativity is a separately reported check.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .fields import Field
from .hopf import BialgebraMorphism, HopfAlgebra, memoized
from .linalg import (Matrix, Vec, basis_vec, bilinear, bilinear_matrix, column_defects,
                     column_echelon, column_witness, pairing, pairing_matrix)
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


def verify_bimodule_coalgebra(C: BimoduleCoalgebra) -> Report:
    """Coassociativity, counit, bimodule axioms, the bimodule-coalgebra
    compatibility of Delta_C and grouplikeness of the basepoint, each a
    matrix identity on the actions L: C <- B (x) C, R: C <- C (x) B and the
    structure matrices.  Delta_C is a bimodule map when Delta_C L_3 =
    (L_3 (x) L_3) P (Delta_B (x) Delta_C (x) Delta_B), with L_3 = R (L (x) I_B)
    and P the permutation b1 b2 c1 c2 p1 p2 -> b1 c1 p1 b2 c2 p2; the right
    side is computed as (R (x) R) (I_C (x) flip_(C,B) (x) I_B) (W (x) Delta_B),
    W = (L (x) L) (I_B (x) flip_(B,C) (x) I_C) (Delta_B (x) Delta_C), so that
    nothing is built on (B (x) C (x) B)^(x)2.  A failure of coassociativity
    is witnessed at the first basis vector a of C, of the bimodule map at
    the first (i, a, j).

    A basepoint with counit value != 1 is reported as a warning check (it
    cannot arise from a coalgebra map k -> C) but does not fail the report.
    """
    f, B, d, bd = C.field, C.B, C.dim, C.B.dim
    rep = Report()

    def eye(n):
        return Matrix.identity(n, f)

    delta, eps = Matrix.from_columns(C.comul, d * d, f), pairing_matrix(f, C.counit, d)
    L, R = bilinear_matrix(f, C.left, bd, d, d), bilinear_matrix(f, C.right, d, bd, d)
    mu, u, g = B.mul_matrix(), B.unit_column(), Matrix.from_columns([C.grouplike], d, f)

    w = column_witness(delta.kron(eye(d)) @ delta, eye(d).kron(delta) @ delta, [d])
    rep.add("coassociativity", w is None, w and {**w, "basis": w["basis"][0]})
    rep.add("counit", eps.kron(eye(d)) @ delta == eye(d) == eye(d).kron(eps) @ delta)
    rep.add("left_action_associative", L @ mu.kron(eye(d)) == L @ eye(bd).kron(L))
    rep.add("right_action_associative", R @ eye(d).kron(mu) == R @ R.kron(eye(bd)))
    rep.add("actions_commute", L @ eye(bd).kron(R) == R @ L.kron(eye(bd)))
    rep.add("actions_unital", L @ u.kron(eye(d)) == eye(d) == R @ eye(d).kron(u))

    delta_b = B.comul_matrix()
    W = L.kron(L) @ eye(bd).kron(Matrix.flip(bd, d, f)).kron(eye(d)) @ delta_b.kron(delta)
    rhs = R.kron(R) @ eye(d).kron(Matrix.flip(d, bd, f)).kron(eye(bd)) @ W.kron(delta_b)
    w = column_witness(delta @ R @ L.kron(eye(bd)), rhs, [bd, d, bd])
    rep.add("comul_is_bimodule_map", w is None, w)

    rep.add("basepoint_grouplike", delta @ g == g.kron(g))
    eps_g = pairing(f, C.counit, C.grouplike)
    # a coalgebra map k -> C forces counit value 1 on the basepoint; report
    # the value as a warning rather than a failure
    rep.add(f"basepoint_counit_value={f.to_str(eps_g)}", True)
    return rep


@dataclass
class ModComod:
    """A vector space with an action of B and/or a coaction of C.

    For the Hopf-algebra setting C = B = H and ``coalgebra`` is None; the
    generalized setting stores the bimodule coalgebra explicitly.
    ``action_matrix`` and ``coaction_matrix`` keep their matrix in
    ``_memo`` (``hopf.memoized``), as ``HopfAlgebra`` keeps its own.
    """

    algebra: HopfAlgebra
    dim: int
    action: Optional[Dict[Tuple[int, int], Vec]] = None    # (b_i, x_a) -> X
    coaction: Optional[List[Vec]] = None                   # a -> C (x) X, flat
    coalgebra: Optional[BimoduleCoalgebra] = None
    label: str = ""
    _memo: dict = dc_field(init=False, default_factory=dict, repr=False, compare=False)

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
    """Outcome of a bilinear compatibility check, the matrix identity
    lhs = rhs on B (x) X: the defect at a basis pair (b, x) is that column
    of lhs - rhs, so equalities of defects (not just booleans) can be
    asserted.  The difference is computed only when the sides differ."""

    name: str
    lhs: Matrix
    rhs: Matrix
    dims: List[int]             # [B, X], to decode a column into (b, x)

    @functools.cached_property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    @property
    def defects(self) -> Dict[tuple, Vec]:
        return {} if self.passed else column_defects(self.lhs, self.rhs, self.dims)

    def witness(self):
        return None if self.passed else column_witness(self.lhs, self.rhs, self.dims)

    def __repr__(self):
        return f"DefectReport({self.name}: {'pass' if self.passed else f'{len(self.defects)} defects'})"


# ---------------------------------------------------------------------------
# structure-map axioms (reported separately; see module docstring)


def action_matrix(X: ModComod) -> Matrix:
    """The action as the matrix X <- B (x) X, built once (``memoized``)."""
    if X.action is None:
        raise ValueError("module has no action")
    return memoized(X, "action", X.action, lambda: bilinear_matrix(
        X.field, X.action, X.algebra.dim, X.dim, X.dim))


def add_action_axioms(rep: Report, name: str, B: HopfAlgebra, M: Matrix) -> None:
    """Add to ``rep`` that M: V <- B (x) V is an action of B: associative,
    M (mu (x) I_V) = M (I_B (x) M), witnessed at the first failing basis
    (i, j, v) of B (x) B (x) V, and unital, M (u (x) I_V) = I_V, with mu
    the multiplication and u the unit as a B x 1 column."""
    f, bd, vd = B.field, B.dim, M.rows
    eye = Matrix.identity(vd, f)
    w = column_witness(M @ B.mul_matrix().kron(eye), M @ Matrix.identity(bd, f).kron(M),
                       [bd, bd, vd])
    rep.add(f"{name}_associative", w is None, w)
    rep.add(f"{name}_unital", M @ B.unit_column().kron(eye) == eye)


def check_module_axioms(X: ModComod) -> Report:
    rep = Report()
    add_action_axioms(rep, "action", X.algebra, action_matrix(X))
    return rep


def coaction_matrix(X: ModComod) -> Matrix:
    """The coaction as the matrix C (x) X <- X, built once (``memoized``)."""
    if X.coaction is None:
        raise ValueError("module has no coaction")
    return memoized(X, "coaction", X.coaction, lambda: Matrix.from_columns(
        X.coaction, X.codim * X.dim, X.field))


def coassociativity_defects(X: ModComod) -> Dict[tuple, Vec]:
    """Per-basis defect of (Delta_C (x) id) rho - (id (x) rho) rho."""
    f, cd, xd = X.field, X.codim, X.dim
    rho = coaction_matrix(X)
    delta = Matrix.from_columns((X.coalgebra or X.algebra).comul, cd * cd, f)
    return column_defects(delta.kron(Matrix.identity(xd, f)) @ rho,
                          Matrix.identity(cd, f).kron(rho) @ rho, [xd])


# ---------------------------------------------------------------------------
# compatibility conditions


def _compat_defects(calc, X: ModComod, name: str, m1: Optional[Matrix] = None) -> DefectReport:
    """rho . act = M_1 (I_B (x) rho): rho(b x) against b . rho(x) =
    sand(b_(1), x_(-1), b_(3)) (x) b_(2) x_(0), for every basis pair
    (b, x) at once.  ``m1`` is M_1 of ``calc`` on C (x) X when the caller
    has built it."""
    from .connections import sandwich_action
    act, rho = action_matrix(X), coaction_matrix(X)
    f, bd = X.field, X.algebra.dim
    if m1 is None:
        m1 = sandwich_action(calc, act, 1)
    return DefectReport(name, rho @ act, m1 @ Matrix.identity(bd, f).kron(rho), [bd, X.dim])


def check_ayd(X: ModComod, calc=None, m1: Optional[Matrix] = None) -> DefectReport:
    """The S^-1 sandwich compatibility (coefficients of Hopf-cyclic theory),
    over ``calc``, an S^-1 calculus over X's algebra, or a new one, with
    its sandwich action ``m1`` when the caller has it."""
    from .calculus import Calculus
    return _compat_defects(calc or Calculus.k(X.algebra), X, "ayd", m1)


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
    """True iff acting with x_(-1) on x_(0) returns x, for all basis x:
    act . rho = I_X."""
    return action_matrix(X) @ coaction_matrix(X) == Matrix.identity(X.dim, X.field)


# ---------------------------------------------------------------------------
# standard module-comodule constructions


def trivial_modcomod(H: HopfAlgebra) -> ModComod:
    """1-dimensional: action through the counit, coaction through the unit."""
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
    """delta, a 1 x H row, is unital and multiplicative: delta u = 1 and
    delta mu = delta (x) delta."""
    f = H.field
    d = pairing_matrix(f, delta, H.dim)
    return d @ H.unit_column() == Matrix.identity(1, f) and d @ H.mul_matrix() == d.kron(d)


def is_grouplike(H: HopfAlgebra, sigma: Vec) -> bool:
    """sigma, an H x 1 column, has counit 1 and Delta sigma = sigma (x) sigma."""
    f = H.field
    s = Matrix.from_columns([sigma], H.dim, f)
    return (H.counit_row() @ s == Matrix.identity(1, f)
            and H.comul_matrix() @ s == s.kron(s))


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

    Grade t has the reduced echelon basis of its projection's image
    (``column_echelon``), the columns of a matrix B_t that is 1 at its own
    pivot rows (the smallest row of each column) and 0 at the others.  So
    E_t, the 0/1 matrix that picks out those rows, has E_t B_t = I: a
    vector v lies in grade t exactly when B_t E_t v = v, and E_t v are its
    coordinates.  The block of (h, g) is E_t act_h B_g, with t = h g h^-1,
    once B_t E_t act_h B_g = act_h B_g.  The action is read only when some
    grade is nonzero: a zero-dimensional comodule needs none.
    """
    H = X.algebra
    if H.group_table is None:
        raise ValueError("not a group algebra")
    f = H.field
    n = H.dim
    dX = X.dim
    table = H.group_table
    inverse = [next(j for j in range(n) if table[i][j] == 0) for i in range(n)]

    # P_g = (e_g^* (x) I_X) rho, the component of rho at g
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

    B, pivots = zip(*(column_echelon(P) for P in projections))
    if sum(map(len, pivots)) != dX:
        return GroupoidReport(False, "grading blocks do not fill the space")

    dims = {g: len(q) for g, q in enumerate(pivots) if q}
    E = [Matrix(len(q), dX, f, {(k, i): 1 for k, i in enumerate(q)}) for q in pivots]
    act = action_matrix(X) if dims else None
    blocks: Dict[Tuple[int, int], Matrix] = {}
    for h in range(n):
        e_h = Matrix.from_columns([basis_vec(f, h)], n, f)
        for g in dims:
            target = table[table[h][g]][inverse[h]]
            img = act @ e_h.kron(B[g])
            blocks[(h, g)] = E[target] @ img
            if B[target] @ blocks[(h, g)] != img:
                return GroupoidReport(
                    False,
                    f"action of {H.basis[h]} does not map grade {H.basis[g]} "
                    f"into grade {H.basis[target]}")
    basis = {g: [{i: f.of(v) for i, v in col.items()} for col in b.columns()]
             for g, b in enumerate(B)}
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
