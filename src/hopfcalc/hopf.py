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
costs more than the arithmetic, so the number of calls sets the cost.
Its lines are written once, in `_sides`, as ~40 products and regroupings
of the structure matrices, none larger than d^2 x d^2, and evaluated on
one of two representations.  On `Matrix`, with the comparisons, they make
~50 operations at 6-20 us of overhead each: 0.44-0.49 ms a call on k[Z2],
k[Z4] and k[Z8] with the structure matrices built and 0.54 ms on
Taft(3,2)/F7 (best of 5 rounds of 200 on a 2-vCPU VM shared with other
work, where timings move by 10-30 % from run to run).  So on algebras of
dimension up to `_DENSE` a passing input is first checked on dense int64
arrays: 0.09-0.10 ms at d <= 4, 0.17 at d = 6 and 0.40 at d = 8, where
the one d^2 x d^2 by d^2 x d^2 product of comul_is_algebra_map (integer
matmul has no BLAS) brings it near the sparse cost.  On large algebras
the sparse lines are faster than per-tuple scans: `verify-hopf` on
Taft(10,2)/F11 (d = 100) takes 0.27-0.31 s at 52.5 MB peak RSS, and on
Taft(12,2)/F13 (d = 144) 0.50-0.53 s at 88 MB, as a subprocess, where the
scans took 1.8-3.3 s at 36 MB and 6.2 s at 40 MB.  Their largest
operands are the d^2 x d^2 sides of associativity; mu (x) I and
Delta (x) I, with d^3 rows, are never built.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import Field
from .linalg import _INT64_SAFE, Matrix, Vec, bilinear_matrix, column_witness, pairing_matrix
from .reports import Check, Report

# The largest dimension on which ``verify_axioms`` runs ``_dense_lines`` first.
_DENSE = 8

# The lines of ``verify_axioms``, in the report's order.
_LINES = ("associativity", "unit", "unit_right", "coassociativity", "counit", "counit_right",
          "comul_is_algebra_map", "comul_of_unit", "counit_is_algebra_map", "counit_of_unit",
          "antipode_left", "antipode_right", "antipode_inverse")


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


def _sides(mm, regroup, d: int, I, mu, u, delta, eps, S, *sinv):
    """Yield (name, k, lhs, rhs) for each computed line of ``verify_axioms``
    in its order, antipode_inverse last when S^-1 is given: both sides as
    products ``mm`` and regroupings ``regroup`` (``Matrix.regroup``'s
    arguments) of mu, u, Delta, eps, S, S^-1 and the identity ``I``, and
    k, the number of basis indices of a column of the line's witness.  The
    comments name the axes, rows | columns; every operand has at most d^2
    rows and d^2 columns.  A generator, so that the sparse lines hold the
    sides of one line at a time."""
    def g(x, order, nrows):
        return regroup(x, [d] * len(order), order, nrows)

    mu_r, mu_t = g(mu, [0, 1, 2], 2), g(mu, [0, 2, 1], 2)              # [m i|k], [m k|i]
    delta_a, delta_b = g(delta, [0, 1, 2], 1), g(delta, [1, 0, 2], 1)  # [a|b i], [b|a i]
    # associativity [m a|b k], coassociativity [x y|b i], the rest in the witness layout
    yield "associativity", 3, g(mm(mu_t, mu), [0, 2, 3, 1], 2), mm(mu_r, mu)
    yield "unit", 1, g(mm(mu_t, u), [0, 1], 1), I
    yield "unit_right", 1, g(mm(mu_r, u), [0, 1], 1), I
    yield "coassociativity", 1, mm(delta, delta_a), g(mm(delta, delta_b), [2, 0, 1, 3], 2)
    yield "counit", 1, g(mm(eps, delta_a), [0, 1], 1), I
    yield "counit_right", 1, g(mm(eps, delta_b), [0, 1], 1), I
    left = g(mm(mu_t, delta_a), [0, 3, 2, 1], 2)        # [m i|b y]
    right = g(mm(mu_r, delta_b), [1, 2, 0, 3], 2)       # [b y|m' j], left right [m i|m' j]
    yield "comul_is_algebra_map", 2, mm(delta, mu), g(mm(left, right), [0, 2, 1, 3], 2)
    yield "comul_of_unit", 0, mm(delta, u), g(mm(u, g(u, [0], 0)), [0, 1], 2)
    yield "counit_is_algebra_map", 2, mm(eps, mu), g(mm(g(eps, [0], 1), eps), [0, 1], 0)
    yield "antipode_left", 1, mm(mu, g(mm(S, delta_a), [0, 1, 2], 2)), mm(u, eps)
    for t in sinv:
        yield "antipode_inverse", 0, (mm(t, S), mm(S, t)), (I, I)


def _dense_lines(d: int, p: int, mats: Sequence[Matrix]) -> "List[bool] | None":
    """Whether each line of ``_sides`` holds, evaluated on dense int64
    copies of ``mats`` = (mu, u, Delta, eps, S[, S^-1]) with a reduction
    mod ``p`` (0 over Q) after each product and a regrouping by reshape and
    transpose.  None, with nothing evaluated, when d is 0 or above
    ``_DENSE``, a matrix holds objects, or the bound of ``verify_axioms``'s
    docstring reaches ``_INT64_SAFE``.  The d^2 x d^2 by d^2 x d^2 product
    of comul_is_algebra_map sets the cap: integer matmul has no BLAS, and
    ``_DENSE`` is where the pass stops being faster than the sparse lines."""
    if not 0 < d <= _DENSE or any(m._to_csr() is None for m in mats):
        return None
    if (d * max(m._max_abs() for m in mats)) ** (2 if p else 4) >= _INT64_SAFE:
        return None
    dense = [np.zeros((m.rows, m.cols), dtype=np.int64) for m in mats]
    for a, m in zip(dense, mats):
        a[m._entry_rows(), m._csr[1]] = m._csr[2]

    def mm(a, b):
        return a @ b % p if p else a @ b

    def regroup(a, dims, order, nrows):     # every axis of size d
        return a.reshape(dims).transpose(order).reshape(d ** nrows, -1)

    return [np.array_equal(lhs, rhs) for _, _, lhs, rhs in
            _sides(mm, regroup, d, np.eye(d, dtype=np.int64), *dense)]


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

    Every line but the two inferred ones below is written once, in
    ``_sides``, and evaluated there either way: on ``Matrix`` here, on
    int64 arrays by ``_dense_lines``.  No Kronecker product with I is
    built: a product with X (x) I or I (x) X is a contraction of X over one
    axis, a matrix product once ``Matrix.regroup`` (reshape and transpose
    on arrays) has moved that axis between rows and columns.  The
    operands are mu_r [m i|k] and mu_t [m k|i], both holding the
    coefficient of e_m in e_i e_k, and Delta_a [a|b i] and Delta_b [b|a i],
    both holding that of e_a (x) e_b in Delta(e_i); the comments of
    ``_sides`` name the axes of each side, rows | columns.  So the left
    side of associativity, the coefficient of e_m in (e_a e_b) e_k, is
    mu_t mu [m k|a b], regrouped to [m a|b k], where the right side mu_r mu
    lies.  The right side of comul_is_algebra_map, at column (i, j), is
    the sum of mu(e_a, e_y) (x) mu(e_b, e_y') over the terms e_a (x) e_b of
    Delta(e_i) and e_y (x) e_y' of Delta(e_j): summed over a (left
    [m i|b y]) and y' (right [b y|m' j]) first, then over (b, y) in one
    product, and regrouped to [m m'|i j].  No operand has more than d^2
    rows or columns, where mu (x) I and Delta (x) I have d^3; in a
    monomial basis such as Taft's, where a product of basis elements has
    at most one term, left and right hold at most d nnz(Delta) entries
    each, where mu (x) mu and I (x) flip (x) I would hold d^4.

    A failing line's witness is its first differing column (``_add_identity``):
    the column index decoded over [d]*k into basis names, which is the
    first failing basis tuple in ``itertools.product`` order, and the
    column of lhs - rhs as the defect.  Every side but those of
    associativity and coassociativity comes in this layout.  Those two
    are compared as d^2 x d^2 matrices, [m a|b k] and [x y|b i], and
    regrouped to [m|a b k] and [x y b|i] only when they differ.  That
    regrouping keeps the axis order, and with it the flat index
    row * cols + col of every entry: the d x d^3 sides it gives are
    mu(mu (x) I) and mu(I (x) mu) entry for entry, and the d^3 x d ones
    (Delta (x) I)Delta and (I (x) Delta)Delta.  So the first differing
    column, its basis tuple and its defect are those of the axioms as
    written above.

    Two lines are inferred when the lines they follow from passed, and
    computed in full, witness and all, when any of those failed (after the
    others; the report is then sorted into the order above):

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
      antipode_right.  Computed, its left side is mu applied to
      S Delta_b [s|a i] regrouped to [a s|i].

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

    On a small algebra ``_dense_lines`` runs first, and when every line
    holds there the all-pass report is returned: every line but the two
    inferred ones passes, and those are inferred, their premises having
    passed and d being at least 1.  It runs when 1 <= d <= ``_DENSE``,
    each of mu, u, Delta, eps, S and S^-1 (when S is invertible) has int64
    values, and, with M the bound ``Matrix._max_abs`` of their entries
    (p - 1 over F_p), (d M)^2 over F_p, or (d M)^4 over Q, is below
    ``_INT64_SAFE``.  It copies each matrix into a zero int64 array and
    evaluates the sides of ``_sides`` on them, reducing mod p after each
    product over F_p; a regrouping moves values and changes none.  As
    long as no int64 sum wraps, each dense side is then the exact integer
    matrix of the sparse side, reduced into [0, p) over F_p, so a dense
    line holds exactly when its sparse line does.  No sum wraps.  Over F_p
    a product sums at most d^2 terms (its inner dimension, d^2 in
    left right and in antipode_left's product with mu), each a product of
    two values in [0, p), so every partial sum is at most
    d^2 (p - 1)^2 < 2^62.  Over Q nothing is reduced, and every entry of an
    intermediate or a side is a sum of at most d^4 products of at most
    four structure entries (left right: d^2 products of an entry of left
    and one of right, each a sum of d products of two entries; the other
    sides take fewer of both), so no partial sum passes d^4 M^4 < 2^62.
    Hence the all-pass report is the one the sparse lines give.  In every
    other case, a failing line, an object value, a bound reached or d
    above the cap, the sparse lines run and build every witness, so every
    failing report is theirs.
    """
    f, d, rep = H.field, H.dim, Report()
    mu, u, delta, S = H.mul_matrix(), H.unit_column(), H.comul_matrix(), H.antipode
    eps, sinv = H.counit_row(), H.antipode_inverse()
    mats = [mu, u, delta, eps, S] + [sinv] * (sinv is not None)
    if all(_dense_lines(d, f.char, mats) or [False]):     # [False] when the pass declines
        return Report([Check(name, True) for name in _LINES[:len(_LINES) - (sinv is None)]])

    def check(name, k, lhs, rhs):
        if lhs.cols != d**k and lhs != rhs:     # to [m|a b k], resp. [x y b|i]
            lhs, rhs = (x.regroup([x.rows * x.cols // d**k, d**k], [0, 1], 1) for x in (lhs, rhs))
        _add_identity(rep, H.basis, name, lhs, rhs, [d] * k)

    def holds(*names):
        return all(c.passed for c in rep.checks if c.name in names)

    for name, k, lhs, rhs in _sides(Matrix.__matmul__, Matrix.regroup, d,
                                    Matrix.identity(d, f), *mats):
        if name == "antipode_inverse":
            rep.add(name, lhs == rhs, {"defect": "S^-1 S != id"})
        else:
            check(name, k, lhs, rhs)
    if d and holds("counit", "comul_of_unit", "unit"):
        rep.add("counit_of_unit", True)
    else:
        check("counit_of_unit", 0, eps @ u, Matrix.identity(1, f))
    if holds("associativity", "coassociativity", "unit", "unit_right", "counit",
             "counit_right", "antipode_left"):
        rep.add("antipode_right", True)
    else:                                                               # [a s|i]
        right = (S @ delta.regroup([d] * 3, [1, 0, 2], 1)).regroup([d] * 3, [1, 0, 2], 2)
        check("antipode_right", 1, mu @ right, u @ eps)
    rep.checks.sort(key=lambda c: _LINES.index(c.name))
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
    coproduct and antipode on the monomials g^i x^j are products of the
    structure matrices, from the generator values: Delta multiplicatively,

        Delta(g^i x^j) = by_x^j by_g^i (u (x) u),

    where right multiplication by Delta(g) = g (x) g is by_g = R_g (x) R_g
    and by Delta(x) = x (x) 1 + g (x) x is by_x = R_x (x) I + R_g (x) R_x,
    with R_s = mu (I (x) s) right multiplication by s on H and u the unit;
    and S anti-multiplicatively, the x-part first,

        S(g^i x^j) = R_S(g)^i R_S(x)^j u,

    with S(g) = g^(n-1) and S(x) = -S(g) x.
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

    # a provisional algebra, for its multiplication and unit matrices
    H = HopfAlgebra(f, dim, [], mul, unit, [], counit, Matrix.identity(dim, f))
    mu, u, eye = H.mul_matrix(), H.unit_column(), Matrix.identity(dim, f)

    def e(i: int, j: int) -> Matrix:
        return Matrix.from_columns([{mono(i, j): one}], dim, f)

    def right(s: Matrix) -> Matrix:
        return mu @ eye.kron(s)

    def powers(m: Matrix, v: Matrix) -> List[Matrix]:
        """v, m v, ..., m^(n-1) v."""
        out = [v]
        for _ in range(n - 1):
            out.append(m @ out[-1])
        return out

    def side_by_side(cols: List[Matrix]) -> Matrix:
        return Matrix.from_columns([c.columns()[0] for c in cols], cols[0].rows, f)

    # the generators as columns; in Taft(1), the ground field, g = 1 and x = 0
    g, x = e(1 % n, 0), e(0, 1) if n > 1 else Matrix.zero(dim, 1, f)
    r_g, r_x = right(g), right(x)
    by_g, by_x = r_g.kron(r_g), r_x.kron(eye) + r_g.kron(r_x)
    s_g = e(n - 1, 0)
    r_sg, r_sx = right(s_g), right((mu @ s_g.kron(x)).scale(f.of(-1)))
    # column i of comul[j] is Delta(g^i x^j), column j of antipode[i] is S(g^i x^j)
    comul = [m.columns() for m in powers(by_x, side_by_side(powers(by_g, u.kron(u))))]
    antipode = powers(r_sg, side_by_side(powers(r_sx, u)))
    H.comul = [comul[j][i] for i in range(n) for j in range(n)]
    H.antipode = Matrix.from_columns([c for m in antipode for c in m.columns()], dim, f)

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
    """Relabel the basis: new e'_a = old e_{perm[a]}.  The tables are
    renumbered, and the antipode becomes P^-1 S P with P the permutation
    matrix e'_a -> e_{perm[a]}; a ``perm`` that is not a permutation of
    range(dim) is a ``ValueError``."""
    f = H.field
    d = H.dim
    if sorted(perm) != list(range(d)):
        raise ValueError("perm is not a permutation of the basis")
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
    P = Matrix.from_columns([{p: f.one()} for p in perm], d, f)
    antipode = P.inverse() @ H.antipode @ P
    table = None
    if H.group_table is not None:
        table = [[inv[H.group_table[perm[a]][perm[b]]] for b in range(d)] for a in range(d)]
    return HopfAlgebra(f, d, names or [H.basis[p] for p in perm], mul, rv(H.unit),
                       comul, counit, antipode, group_table=table)
