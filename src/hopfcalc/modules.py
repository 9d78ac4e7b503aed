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
is checked by the same function.  A bimodule coalgebra holds its
structure matrices (``BimoduleCoalgebra``); every calculus is built over
one, K and K-hat over H itself (``BimoduleCoalgebra.from_hopf``), and
``verify_bimodule_coalgebra`` checks its axioms as matrix identities too.

Each compatibility check is one matrix identity on B (x) X,

    rho . act = M_1 (I_B (x) rho),

with M_1 = (I_C (x) act) (T (x) I_X) the sandwich action of its calculus
on C (x) X and T the sandwich matrix that builds the calculus's products:
AYD (S^-1) over K = ``Calculus.k``, YD (S) over K-hat = ``Calculus.khat``,
and (alpha, beta)-equivariance over ``Calculus.general``.  Its right side
is the contraction

    [c' x' | b w] = sum over b', c, x of T[c' b' | b c] act[x' | b' x] rho[c x | w]

of ``connections.apply_sandwich``, so neither M_1 nor I_B (x) rho is
built.  A module passes exactly when its connection satisfies the Leibniz
rule there (``connections.check_connection`` applies the sandwich to
nabla in the same way).  Column (b, x) of the difference of the two sides
is the defect rho(b x) - b . rho(x).  ``check_ayd`` also takes the S^-1
calculus a caller already holds, so that its sandwich matrix is built
once; a calculus over another algebra than X's is a ``ValueError``.

A coaction candidate is *not* required to be coassociative at construction
time: the flat-connection correspondence needs non-coassociative candidates
to be representable, so coassociativity is a separately reported check.

A one-dimensional module-comodule is a character delta and a grouplike
sigma (``one_dim_modcomod``), a modular pair when delta(sigma) = 1
(Connes and Moscovici, Comm. Math. Phys. 198, 1998).  A character of H is
a grouplike of the dual H* (Sweedler, *Hopf Algebras*, 1969): as the
column v = delta^T, delta mu = delta (x) delta and delta u = 1 read
mu^T v = v (x) v and u^T v = 1.  So ``enumerate_grouplikes`` and
``enumerate_characters`` are one search, ``_grouplike_solutions``, over
(Delta, eps) and over (mu^T, u^T).  It lists the solutions with
coordinates in a finite candidate set in the lexicographic order of their
tuples; any depth-first search over the candidates in this order that
cuts only branches holding no solution lists them in the same order, so
the order does not depend on which equations the search checks first.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .fields import Field
from .hopf import BialgebraMorphism, HopfAlgebra, memoized
from .linalg import (Matrix, Vec, bilinear_matrix, column_defects, column_echelon,
                     column_witness, pairing_matrix)
from .reports import Report


@dataclass
class BimoduleCoalgebra:
    """A coalgebra C carrying a compatible B-bimodule structure and a
    distinguished grouplike element (the basepoint of the differentials),
    held as its structure matrices:

    * ``comul``, Delta_C: C (x) C <- C;
    * ``counit``, eps_C: a 1 x C row;
    * ``left``, L: C <- B (x) C, L(b (x) c) = b . c;
    * ``right``, R: C <- C (x) B, R(c (x) b) = c . b;
    * ``grouplike``, g: a C x 1 column.

    Every map of a calculus over C is a product of these and B's own
    matrices; no table is kept beside them."""

    B: HopfAlgebra
    dim: int
    comul: Matrix
    counit: Matrix
    left: Matrix
    right: Matrix
    grouplike: Matrix

    @property
    def field(self) -> Field:
        return self.B.field

    @classmethod
    def from_hopf(cls, H: HopfAlgebra) -> "BimoduleCoalgebra":
        """H as a bimodule coalgebra over itself: H's own structure matrices,
        the multiplication as both actions and the unit as the basepoint."""
        mu = H.mul_matrix()
        return cls(H, H.dim, H.comul_matrix(), H.counit_row(), mu, mu, H.unit_column())


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

    delta, eps, L, R, g = C.comul, C.counit, C.left, C.right, C.grouplike
    mu, u = B.mul_matrix(), B.unit_column()

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
    eps_g = (eps @ g).get(0, 0)
    # a coalgebra map k -> C forces counit value 1 on the basepoint; report
    # the value as a warning rather than a failure
    rep.add(f"basepoint_counit_value={f.to_str(eps_g)}", True)
    return rep


@dataclass
class ModComod:
    """A vector space with an action of B and/or a coaction of C.

    ``coalgebra`` is the bimodule coalgebra C of the coaction, or None,
    meaning the algebra itself (C = B = H).
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
    """Per-basis defect of (Delta_C (x) id) rho - (id (x) rho) rho; with no
    ``coalgebra``, C = H and Delta_C is H's ``comul_matrix``."""
    f, cd, xd = X.field, X.codim, X.dim
    rho = coaction_matrix(X)
    delta = X.algebra.comul_matrix() if X.coalgebra is None else X.coalgebra.comul
    return column_defects(delta.kron(Matrix.identity(xd, f)) @ rho,
                          Matrix.identity(cd, f).kron(rho) @ rho, [xd])


# ---------------------------------------------------------------------------
# compatibility conditions


def _compat_defects(calc, X: ModComod, name: str) -> DefectReport:
    """rho . act = M_1 (I_B (x) rho): rho(b x) against b . rho(x) =
    sand(b_(1), x_(-1), b_(3)) (x) b_(2) x_(0), for every basis pair
    (b, x) at once, the right side by ``connections.apply_sandwich``."""
    from .connections import apply_sandwich
    if calc.B is not X.algebra:
        raise ValueError("calculus and module live over different algebras")
    act, rho = action_matrix(X), coaction_matrix(X)
    return DefectReport(name, rho @ act, apply_sandwich(calc, act, rho), [X.algebra.dim, X.dim])


def check_ayd(X: ModComod, calc=None) -> DefectReport:
    """The S^-1 sandwich compatibility (coefficients of Hopf-cyclic theory),
    over ``calc``, an S^-1 calculus over X's algebra, or a new one."""
    from .calculus import Calculus
    return _compat_defects(calc or Calculus.k(X.algebra), X, "ayd")


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
    A character is a grouplike of the dual H* (module docstring), so the
    solver of ``enumerate_grouplikes`` finds them with (mu^T, u^T) in
    place of (Delta, eps).  Each is a dict over the whole basis, listed in
    the lexicographic order of the value tuples, the order of any
    depth-first search over the candidates that cuts only branches
    holding no solution (``_grouplike_solutions``).
    """
    d = H.dim
    # mu^T at (i d + j, m) is the coefficient of e_m in e_i e_j
    mu_t = [((i * d + j, m), c) for (i, j), v in H.mul.items() for m, c in v.items()]
    u_t = [((0, i), c) for i, c in H.unit.items()]
    return [dict(enumerate(v)) for v in _grouplike_solutions(H.field, d, mu_t, u_t)]


def enumerate_grouplikes(H: HopfAlgebra) -> List[Vec]:
    """All grouplike elements with coordinates from the same candidate set:
    the solutions of Delta v = v (x) v and eps v = 1, by the solver that
    also finds the characters, the grouplikes of H*.  Each is a dict
    without its zero coordinates, listed in the lexicographic order of the
    coordinate tuples, as the characters are (``_grouplike_solutions``)."""
    f = H.field
    # Delta at (a d + b, i) is the coefficient of e_a (x) e_b in Delta(e_i)
    delta = [((fl, i), c) for i, t in enumerate(H.comul) for fl, c in t.items()]
    eps = [((0, i), c) for i, c in H.counit.items()]
    return [{i: c for i, c in enumerate(v) if not f.is_zero(c)}
            for v in _grouplike_solutions(f, H.dim, delta, eps)]


def _candidate_values(f: Field):
    if f.char:
        return [f.of(k) for k in range(f.char)]
    return [f.of(0), f.of(1), f.of(-1)]


def _grouplike_solutions(f: Field, d: int, M, ell) -> List[tuple]:
    """Every v, d x 1 with coordinates in ``_candidate_values(f)``, with
    M v = v (x) v and ell v = 1, for M a d^2 x d and ell a 1 x d matrix
    given by their entries ((row, col), value), as ``Matrix.entries``
    lists them: the grouplikes of a coalgebra with comultiplication M and
    counit ell.

    A depth-first search sets v_0, v_1, ... in turn, each to the candidates
    in their order.  Each equation, row (a, b) of M v = v_a v_b or
    ell v = 1, is checked once, at the depth where the last of its
    variables (v_a, v_b and those it has a coefficient on) is set, and a
    branch where it fails is cut.  Below that depth nothing it reads
    changes, so a cut branch holds no solution, and at a leaf every
    equation has been checked.  So the list holds every solution, in the
    lexicographic order of the candidate tuples, as does any search over
    these candidates in this order that cuts only failing branches."""
    def exact(c):
        """An integral int or Fraction as an int: an operation on Fractions
        costs ~1 us, and would set the search's time."""
        return c.numerator if c.denominator == 1 else c

    values = [exact(x) for x in _candidate_values(f)]
    terms: Dict[int, list] = defaultdict(list)      # row of M -> [(i, M[row, i])]
    for (r, i), c in M:
        terms[r].append((i, exact(c)))
    eqs: Dict[int, list] = defaultdict(list)        # last variable -> [(terms, a, b)]
    for r in range(d * d):
        a, b = divmod(r, d)
        eqs[max([a, b] + [i for i, _ in terms[r]])].append((terms[r], a, b))
    counit = [(i, exact(c)) for (_, i), c in ell]
    eqs[max((i for i, _ in counit), default=0)].append((counit, d, d))
    out, v = [], [0] * d + [1]          # v[d] = 1, so ell v = v[d] v[d]

    def search(k):
        if k == d:
            out.append(tuple(map(f.of, v[:d])))
            return
        for x in values:
            v[k] = x
            if all(f.is_zero(sum(c * v[i] for i, c in t) - v[a] * v[b]) for t, a, b in eqs[k]):
                search(k + 1)

    search(0)
    return out


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
        e_h = Matrix(n, 1, f, {(h, 0): 1})
        for g in dims:
            target = table[table[h][g]][inverse[h]]
            img = act @ e_h.kron(B[g])
            blocks[(h, g)] = E[target] @ img
            if B[target] @ blocks[(h, g)] != img:
                return GroupoidReport(
                    False,
                    f"action of {H.basis[h]} does not map grade {H.basis[g]} "
                    f"into grade {H.basis[target]}")
    basis = {g: b.columns() for g, b in enumerate(B)}
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
            for k, col in enumerate(data.blocks[(h, g)].columns()):
                action[(h, offset[g] + k)] = {offset[target] + r: c for r, c in col.items()}
    return ModComod(H, dim, action, coaction, label="groupoid")
