"""Finite-dimensional Hopf algebras presented by structure constants.

An algebra here is a basis together with sparse tensors for multiplication,
unit, comultiplication, counit and antipode.  Every axiom is an identity of
the structure matrices mu, u, Delta, eps and S: `verify_axioms` checks the
thirteen of a Hopf algebra with an invertible antipode, two of them read
off the others when those pass (its docstring has the proofs), and
`verify_morphism` the equations of a bialgebra map, each witnessed by the
first column in which its sides differ, decoded to the first failing basis
tuple.  The per-tuple enumeration through the algebra's own maps is
`reference_verify_axioms` in the tests, the oracle it is checked against.

Every CLI verdict runs `verify_axioms`, and on tiny algebras a numpy call
costs more than the arithmetic, so the number of matrix operations sets
the cost.  Per call on a fresh algebra, its structure matrices and S^-1
included (best of 5 rounds of 7 x 200, alternating with the previous
version in one process, on a 2-vCPU VM shared with other work), the
identities take 0.55-0.60 ms on k[Z2], k[Z3], k^Z2 and Sweedler, and
0.59 and 0.73 ms on k[S3] and Taft(3,2)/F7; timings on that VM move by
10-30 % from run to run.  On large algebras they are faster than
per-tuple scans and hold more: `verify-hopf` on Taft(10,2)/F11
(d = 100) takes 0.6 s at 75 MB peak RSS, and on Taft(12,2)/F13
(d = 144) 1.1-1.2 s at 157 MB, where the scans took 1.8-3.3 s at 36 MB
and 6.2 s at 40 MB.  Their largest operands, in associativity,
coassociativity and comul_is_algebra_map, have d^3 rows or columns.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import Field
from .linalg import (Matrix, Vec, basis_vec, bilinear, bilinear_matrix, column_witness,
                     pairing_matrix, vec_scale, vec_tensor)
from .reports import Report


def memoized(owner, key: str, source, build):
    """``build()``, kept in ``owner._memo`` under ``key`` for as long as
    ``source``, the table it is built from, is the same object: rebinding
    the table builds it anew.  A table changed in place is not seen."""
    hit = owner._memo.get(key)
    if hit is None or hit[0] is not source:
        hit = owner._memo[key] = (source, build())
    return hit[1]


@dataclass
class HopfAlgebra:
    """The structure tensors of a Hopf algebra, and its structure matrices.

    ``mul_matrix``, ``unit_column``, ``comul_matrix``, ``counit_row`` and
    ``antipode_inverse`` build their matrix on the first call and keep it
    (``memoized``), so that a verdict builds each one once however many
    checks read it.  The memo lives as long as the algebra, which a verdict
    builds from its input; it is not an argument of ``__init__``, so
    ``dataclasses.replace`` starts the new algebra with an empty one."""

    field: Field
    dim: int
    basis: List[str]
    mul: Dict[Tuple[int, int], Vec]     # (i, j) -> e_i * e_j
    unit: Vec
    comul: List[Vec]                    # i -> Delta(e_i) in H (x) H, flat
    counit: Dict[int, object]           # covector
    antipode: Matrix
    group_table: Optional[List[List[int]]] = None   # set by group builders
    _memo: dict = dc_field(init=False, default_factory=dict, repr=False, compare=False)

    # -- structure maps ------------------------------------------------------

    def multiply(self, u: Vec, v: Vec) -> Vec:
        return bilinear(self.field, self.mul, u, v)

    def antipode_inverse(self) -> Optional[Matrix]:
        """Exact inverse of S, or None when S is singular."""
        return memoized(self, "antipode_inverse", self.antipode, self.antipode.inverse)

    def mul_matrix(self) -> Matrix:
        """The multiplication as the matrix H <- H (x) H."""
        return memoized(self, "mul", self.mul, lambda: bilinear_matrix(
            self.field, self.mul, self.dim, self.dim, self.dim))

    def unit_column(self) -> Matrix:
        """The unit as an H x 1 column."""
        return memoized(self, "unit", self.unit, lambda: Matrix.from_columns(
            [self.unit], self.dim, self.field))

    def comul_matrix(self) -> Matrix:
        """The comultiplication as the matrix H (x) H <- H."""
        return memoized(self, "comul", self.comul, lambda: Matrix.from_columns(
            self.comul, self.dim * self.dim, self.field))

    def counit_row(self) -> Matrix:
        """The counit as a 1 x H row."""
        return memoized(self, "counit", self.counit, lambda: pairing_matrix(
            self.field, self.counit, self.dim))

    def is_cocommutative(self) -> bool:
        delta = self.comul_matrix()
        return Matrix.flip(self.dim, self.dim, self.field) @ delta == delta

    def __repr__(self):
        return f"HopfAlgebra(dim={self.dim} over {self.field})"


# ---------------------------------------------------------------------------
# axiom verification


def _add_identity(rep: Report, names: Sequence[str], name: str, lhs: Matrix, rhs: Matrix,
                  dims: Sequence[int]) -> None:
    """Add the check ``name``, lhs == rhs, to ``rep``; on failure its witness
    is ``column_witness``'s first differing column, with the basis indices
    mapped to ``names``."""
    w = column_witness(lhs, rhs, dims)
    rep.add(name, w is None, w and {**w, "basis": [names[i] for i in w["basis"]]})


def verify_axioms(H: HopfAlgebra) -> Report:
    """Check every Hopf-algebra axiom as an identity of structure matrices.

    With mu = ``H.mul_matrix()``, u = ``H.unit_column()``, Delta =
    ``H.comul_matrix()``, eps = ``H.counit_row()``, S the antipode and
    I = I_H, the lines are, in order:

    - associativity: mu(mu (x) I) = mu(I (x) mu)
    - unit, unit_right: mu(u (x) I) = I and mu(I (x) u) = I
    - coassociativity: (Delta (x) I)Delta = (I (x) Delta)Delta
    - counit, counit_right: (eps (x) I)Delta = I and (I (x) eps)Delta = I
    - comul_is_algebra_map: Delta mu = (mu (x) mu)(I (x) flip (x) I)(Delta (x) Delta)
    - comul_of_unit: Delta u = u (x) u
    - counit_is_algebra_map: eps mu = eps (x) eps
    - counit_of_unit: eps u = 1
    - antipode_left, antipode_right: mu(S (x) I)Delta = u eps = mu(I (x) S)Delta
    - antipode_inverse: S^-1 S = I = S S^-1, when S is invertible.

    The right side of comul_is_algebra_map is contracted one index at a time
    rather than multiplied out: its column (i, j) is the sum of
    mu(e_a, e_y) (x) mu(e_b, e_y') over the terms e_a (x) e_b of Delta(e_i)
    and e_y (x) e_y' of Delta(e_j), summed over a, then y, then (b, y'),
    with ``Matrix.regroup`` moving the free axes between rows and columns
    (the comments list them, rows | columns).  No operand has more than
    d^3 rows or columns.  In a monomial basis such as Taft's, where a
    product of basis elements has at most one term, none has more than
    d nnz(Delta) or nnz(Delta)^2 entries, while mu (x) mu and
    I (x) flip (x) I would hold d^4.

    A failing line's witness is its first differing column (``_add_identity``):
    the column index decoded over [d]*k into basis names, which is the
    first failing basis tuple in ``itertools.product`` order, and the
    column of lhs - rhs as the defect.

    Two lines are inferred when the lines they follow from passed, and
    computed in full, witness and all, when any of those failed:

    - counit_of_unit follows from counit, comul_of_unit and unit.  Apply
      (eps (x) I) to Delta u = u (x) u: the counit line gives u on the
      left and the right side is (eps u) u.  So (eps u - 1) u = 0, and
      u != 0, as mu(u (x) I) = I and d >= 1; hence eps u = 1.
    - antipode_right follows from associativity, coassociativity, unit,
      unit_right, counit, counit_right and antipode_left.  By the first
      six, End(H) with the convolution f * g = mu(f (x) g)Delta is an
      associative algebra with unit u eps, of finite dimension d^2
      (Sweedler, *Hopf Algebras*, 1969, 4.0).  antipode_left says
      S * id = u eps.  In a finite-dimensional unital associative algebra
      ab = 1 implies ba = 1: x -> bx is injective, since bx = 0 gives
      x = abx = 0, hence onto, so bc = 1 for some c, and a = a(bc) =
      (ab)c = c.  With a = S and b = id, id * S = u eps, which is
      antipode_right.

    The ``antipode_inverse`` line cannot fail.  ``H.antipode_inverse()`` is
    ``Matrix.inverse``.  For a monomial S with entries it can invert in
    int64, T is the transpose of S with each entry inverted, and S T = I
    entry by entry (its docstring).  Otherwise it returns a matrix T only
    when the reduced column echelon of the stacked columns [S; I] has the
    pivots 0..n-1.  Each of its basis vectors lies in their span
    {(S x, x)}, and basis vector k is (e_k, T e_k); so S T e_k = e_k for
    every k.  The elimination is exact, so S T = I holds exactly.  Either
    way, for a square matrix over a field T S = I follows.  The line is
    still computed, as a check on both routes.
    """
    f, d, rep = H.field, H.dim, Report()
    mu, u, delta, S = H.mul_matrix(), H.unit_column(), H.comul_matrix(), H.antipode
    eps, I = H.counit_row(), Matrix.identity(d, f)

    def check(name, lhs, rhs, k):
        _add_identity(rep, H.basis, name, lhs, rhs, [d] * k)

    def holds(*names):
        return all(c.passed for c in rep.checks if c.name in names)

    check("associativity", mu @ mu.kron(I), mu @ I.kron(mu), 3)
    check("unit", mu @ u.kron(I), I, 1)
    check("unit_right", mu @ I.kron(u), I, 1)
    check("coassociativity", delta.kron(I) @ delta, I.kron(delta) @ delta, 1)
    check("counit", eps.kron(I) @ delta, I, 1)
    check("counit_right", I.kron(eps) @ delta, I, 1)
    rhs = mu.regroup([d] * 3, [0, 2, 1], 2) @ delta.regroup([d] * 3, [0, 1, 2], 1)  # [m y|b i]
    rhs = I.kron(delta.regroup([d] * 3, [1, 2, 0], 2)) @ rhs          # [m y' j|b i]
    rhs = mu @ rhs.regroup([d] * 5, [3, 1, 0, 4, 2], 2)               # [m'|m i j]
    check("comul_is_algebra_map", delta @ mu, rhs.regroup([d] * 4, [1, 0, 2, 3], 2), 2)
    check("comul_of_unit", delta @ u, u.kron(u), 0)
    check("counit_is_algebra_map", eps @ mu, eps.kron(eps), 2)
    if d and holds("counit", "comul_of_unit", "unit"):
        rep.add("counit_of_unit", True)
    else:
        check("counit_of_unit", eps @ u, Matrix.identity(1, f), 0)
    u_eps = u @ eps
    check("antipode_left", mu @ (S.kron(I) @ delta), u_eps, 1)
    if holds("associativity", "coassociativity", "unit", "unit_right", "counit",
             "counit_right", "antipode_left"):
        rep.add("antipode_right", True)
    else:
        check("antipode_right", mu @ (I.kron(S) @ delta), u_eps, 1)
    sinv = H.antipode_inverse()
    if sinv is not None:
        ok = sinv @ S == I == S @ sinv
        rep.add("antipode_inverse", ok, None if ok else {"defect": "S^-1 S != id"})
    return rep


# ---------------------------------------------------------------------------
# bialgebra morphisms (the alpha / beta of the equivariant calculus)


@dataclass
class BialgebraMorphism:
    """A (possibly op-cop) bialgebra map, stored as a matrix target <- source."""

    source: HopfAlgebra
    target: HopfAlgebra
    matrix: Matrix
    variant: str = "plain"      # "plain" | "opcop"

    def apply(self, v: Vec) -> Vec:
        return self.matrix.apply(v)

    @classmethod
    def identity(cls, H: HopfAlgebra) -> "BialgebraMorphism":
        return cls(H, H, Matrix.identity(H.dim, H.field), "plain")

    @classmethod
    def antipode(cls, H: HopfAlgebra) -> "BialgebraMorphism":
        return cls(H, H, H.antipode, "opcop")

    @classmethod
    def antipode_inverse(cls, H: HopfAlgebra) -> "BialgebraMorphism":
        sinv = H.antipode_inverse()
        if sinv is None:
            raise ValueError("antipode is not invertible")
        return cls(H, H, sinv, "opcop")


def verify_morphism(m: BialgebraMorphism) -> Report:
    """The (op-cop) bialgebra morphism equations on F = ``m.matrix`` as
    matrix identities, with a flip after F (x) F in the op-cop case; a
    failure is witnessed at the first basis tuple, by name, that differs."""
    S, T, F = m.source, m.target, m.matrix
    f, rep = S.field, Report()
    FF = F.kron(F)
    if m.variant == "opcop":
        FF = Matrix.flip(T.dim, T.dim, f) @ FF

    _add_identity(rep, S.basis, "multiplicative", F @ S.mul_matrix(), T.mul_matrix() @ FF,
                  [S.dim, S.dim])
    rep.add("preserves_unit", F @ S.unit_column() == T.unit_column())
    _add_identity(rep, S.basis, "comultiplicative", T.comul_matrix() @ F,
                  FF @ S.comul_matrix(), [S.dim])
    rep.add("preserves_counit", T.counit_row() @ F == S.counit_row())
    return rep


# ---------------------------------------------------------------------------
# group machinery


def cyclic_table(n: int) -> List[List[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_table(n: int) -> Tuple[List[List[int]], List[str]]:
    """Cayley table of S_n on the permutation basis, identity first."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            comp = tuple(p[q[i]] for i in range(n))
            row.append(index[comp])
        table.append(row)
    names = ["".join(str(x) for x in p) for p in perms]
    return table, names


def check_group_table(table: Sequence[Sequence[int]]) -> Tuple[int, List[int]]:
    """Validate a Cayley table; returns (identity index, inverse list)."""
    n = len(table)
    for row in table:
        if len(row) != n or any(not 0 <= x < n for x in row):
            raise ValueError("Cayley table is not square over {0..n-1}")
    ident = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            ident = e
            break
    if ident is None:
        raise ValueError("Cayley table has no identity element")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise ValueError(f"Cayley table is not associative at {(i, j, k)}")
    inverses = []
    for i in range(n):
        inv = next((j for j in range(n) if table[i][j] == ident and table[j][i] == ident), None)
        if inv is None:
            raise ValueError(f"element {i} has no inverse")
        inverses.append(inv)
    return ident, inverses


# ---------------------------------------------------------------------------
# builders


def build_group_algebra(table: Sequence[Sequence[int]], field: Field = None,
                        names: Optional[List[str]] = None) -> HopfAlgebra:
    """Group algebra k[G]: grouplike basis, S(g) = g^-1."""
    from .fields import QQ
    field = field or QQ
    ident, inverses = check_group_table(table)
    if ident != 0:
        raise ValueError("Cayley tables must list the identity first")
    n = len(table)
    f = field
    one = f.one()
    mul = {(i, j): {table[i][j]: one} for i in range(n) for j in range(n)}
    comul = [{i * n + i: one} for i in range(n)]
    counit = {i: one for i in range(n)}
    antipode = Matrix.from_columns([{inverses[i]: one} for i in range(n)], n, f)
    basis = names or (["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)])
    return HopfAlgebra(f, n, basis, mul, {0: one}, comul, counit, antipode,
                       group_table=[list(r) for r in table])


def build_dual_group_algebra(table: Sequence[Sequence[int]], field: Field = None,
                             names: Optional[List[str]] = None) -> HopfAlgebra:
    """Function algebra k^G: pointwise product, convolution coproduct."""
    from .fields import QQ
    field = field or QQ
    ident, inverses = check_group_table(table)
    if ident != 0:
        raise ValueError("Cayley tables must list the identity first")
    n = len(table)
    f = field
    one = f.one()
    mul = {(i, i): {i: one} for i in range(n)}
    unit = {i: one for i in range(n)}
    comul = []
    for g in range(n):
        t: Vec = {}
        for a in range(n):
            for b in range(n):
                if table[a][b] == g:
                    t[a * n + b] = one
        comul.append(t)
    counit = {ident: one}
    antipode = Matrix.from_columns([{inverses[i]: one} for i in range(n)], n, f)
    basis = names or [f"d{i}" for i in range(n)]
    return HopfAlgebra(f, n, basis, mul, unit, comul, counit, antipode)


def _is_primitive_root(field: Field, q, n: int) -> bool:
    f = field
    acc = f.one()
    for k in range(1, n):
        acc = f.mul(acc, q)
        if f.is_zero(f.sub(acc, f.one())):
            return False
    return f.is_zero(f.sub(f.mul(acc, q), f.one()))


def build_taft(n: int, q, field: Field) -> HopfAlgebra:
    """Taft algebra of dimension n^2: g^n = 1, x^n = 0, xg = q gx.

    q must be a primitive n-th root of unity in the coefficient field.  The
    coproduct and antipode on monomials g^i x^j are computed from the
    generator values (Delta multiplicatively, S anti-multiplicatively).
    """
    f = field
    q = f.of(q)
    if n < 1:
        raise ValueError("n must be positive")
    if not _is_primitive_root(f, q, n):
        raise ValueError(f"{q} is not a primitive {n}-th root of unity in {f}")
    dim = n * n
    one = f.one()

    def mono(i: int, j: int) -> int:
        return i * n + j

    qpow = [f.one()]
    for _ in range(n * n):
        qpow.append(f.mul(qpow[-1], q))

    mul: Dict[Tuple[int, int], Vec] = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j + l >= n:
                        mul[(mono(i, j), mono(k, l))] = {}
                        continue
                    mul[(mono(i, j), mono(k, l))] = {mono((i + k) % n, j + l): qpow[j * k]}

    unit = {mono(0, 0): one}
    counit = {mono(i, 0): one for i in range(n)}

    # assemble a provisional algebra so we can compute Delta and S by
    # multiplying out generator images: Delta(g^i x^j) = Delta(g)^i
    # Delta(x)^j, right multiplication by a (x) b in H (x) H being R_a (x) R_b
    # with R_h = mu (I (x) h) right multiplication by h on H
    H = HopfAlgebra(f, dim, [], mul, unit, [], counit, Matrix.identity(dim, f))
    mu, eye = H.mul_matrix(), Matrix.identity(dim, f)

    def right(i: int, j: int) -> Matrix:
        return mu @ eye.kron(Matrix.from_columns([{mono(i, j): one}], dim, f))

    if n > 1:       # Taft(1) is the ground field: no g or x to multiply by
        by_g = right(1, 0).kron(right(1, 0))
        by_x = right(0, 1).kron(eye) + right(1, 0).kron(right(0, 1))
    s_g = basis_vec(f, mono((n - 1) % n, 0))
    s_x = vec_scale(f, H.multiply(s_g, basis_vec(f, mono(0, 1))), f.neg(one))
    comul: List[Vec] = []
    antipode: List[Vec] = []
    for i in range(n):
        for j in range(n):
            t, img = vec_tensor(f, unit, unit, dim), unit
            for _ in range(i):
                t = by_g.apply(t)
            for _ in range(j):
                t = by_x.apply(t)
                img = H.multiply(img, s_x)     # S is an anti-homomorphism: x-part first
            for _ in range(i):
                img = H.multiply(img, s_g)
            comul.append(t)
            antipode.append(img)
    H.comul, H.antipode = comul, Matrix.from_columns(antipode, dim, f)

    names = []
    for i in range(n):
        for j in range(n):
            gpart = "" if i == 0 else ("g" if i == 1 else f"g{i}")
            xpart = "" if j == 0 else ("x" if j == 1 else f"x{j}")
            names.append((gpart + xpart) or "1")
    H.basis = names
    return H


def build_sweedler(field: Field = None) -> HopfAlgebra:
    """Sweedler's 4-dimensional Hopf algebra, basis {1, g, x, gx}."""
    from .fields import QQ
    field = field or QQ
    if field.char == 2:
        raise ValueError("Sweedler's algebra requires characteristic != 2")
    H = build_taft(2, field.of(-1), field)
    return permute_basis(H, [0, 2, 1, 3])


def permute_basis(H: HopfAlgebra, perm: Sequence[int],
                  names: Optional[List[str]] = None) -> HopfAlgebra:
    """Relabel the basis: new e'_a = old e_{perm[a]}."""
    f = H.field
    d = H.dim
    inv = [0] * d
    for a, p in enumerate(perm):
        inv[p] = a

    def rv(v: Vec) -> Vec:
        return {inv[i]: c for i, c in v.items()}

    def rt(t: Vec) -> Vec:
        return {inv[fl // d] * d + inv[fl % d]: c for fl, c in t.items()}

    mul = {(a, b): rv(H.mul.get((perm[a], perm[b]), {})) for a in range(d) for b in range(d)}
    comul = [rt(H.comul[perm[a]]) for a in range(d)]
    counit = {inv[i]: c for i, c in H.counit.items()}
    antipode = Matrix.from_columns([rv(H.antipode.column(p)) for p in perm], d, f)
    table = None
    if H.group_table is not None:
        table = [[inv[H.group_table[perm[a]][perm[b]]] for b in range(d)] for a in range(d)]
    return HopfAlgebra(f, d, names or [H.basis[p] for p in perm], mul, rv(H.unit),
                       comul, counit, antipode, group_table=table)
