"""The three differential calculi, materialized degreewise.

Degree n lives on C^{(x)n} (x) B (for the two Hopf calculi C = B = H, so
degree n is H^{(x)(n+1)} with the last tensor factor in the B role).  The
differential and the graded product are sparse matrices per degree; the DGA
axioms (d^2 = 0, graded Leibniz, associativity) are verified as exact matrix
identities.

The differential is

    d(c^1 (x) ... (x) c^n (x) b)
      = -(I (x) c^1 (x) ... (x) b)
        + sum_j (-1)^(j-1) (... c^j_(1) (x) c^j_(2) ...)
        + (-1)^n (c^1 (x) ... (x) c^n (x) sand(b_(1), I, b_(3)) (x) b_(2))

where sand(a, c, z) is a . c . S^-1(z) for the S^-1 calculus, a . c . S(z)
for the S calculus, and alpha(a) . c . beta(z) through the bimodule actions
in the generalized case.  Each differential is built from the one below
it.  With g the basepoint I as a C x 1 column, the basepoint term is
g (x) I, so that D_n = F_n - g (x) I_(Omega^n) with F_0(b) =
sand(b_(1), I, b_(3)) (x) b_(2) and, peeling off the first C leg of the
formula above,

    F_n(c (x) w) = Delta(c) (x) w - c (x) F_{n-1}(w),

that is F_n = Delta_C (x) I_(Omega^(n-1)) - I_C (x) F_{n-1}.  Putting
F_{n-1} = D_{n-1} + g (x) I back in, both basepoint terms become
Kronecker products with I_(Omega^(n-1)):

    D_n = E (x) I_(Omega^(n-1)) - I_C (x) D_{n-1},
    E = Delta_C - I_C (x) g - g (x) I_C,

with D_{n-1} read from the cache and E a C (x) C x C matrix.  So D_n stays
in int64 CSR whenever the structure constants are integral, and the
recursion needs no coassociativity.  D_0 is built from its B columns
sand0(b) - I (x) b, which need the sandwich at the basepoint only;
writing F_0 as T (I_B (x) g) with the sandwich matrix T below would need
the sandwich at every c of C.

The product Omega^n (x) Omega^m -> Omega^{n+m} applies the same sandwich
to the legs of an iterated coproduct of the B slot of the left factor: the
j-th C leg of the right factor sits between the j-th legs from the
outside.  It is built from two exact identities.
The prefix legs of the left factor are copied untouched, so

    product(n, m) = I_{C^(x)n} (x) product(0, m),

and, writing A_m = product(0, m), coassociativity of B gives A_m from
A_{m-1} by peeling off the outermost pair of legs:

    A_m(b (x) c (x) w) = sum sand(b_(1), c, b_(3)) (x) A_{m-1}(b_(2) (x) w)

over Delta^(2)(b) = b_(1) (x) b_(2) (x) b_(3), with A_0 the multiplication
of B.  In matrix form, with the sandwich matrix T: B (x) C -> C (x) B,
T(b (x) c) = sum sand(b_(1), c, b_(3)) (x) b_(2), built once from its
columns ``sandwich(b, c)``,

    A_m = (I_C (x) A_{m-1}) . (T (x) I_{Omega^(m-1)}),

so every product is a Kronecker product or a matrix product of A_0, T
and identities, and stays in int64 CSR whenever they are integral.
The recursion is exact only when B is coassociative; the CLI
checks that with ``verify_axioms`` before it builds a calculus.  The block
structure also makes the associativity defect at (n, m, l) equal to
I_{C^(x)n} (x) the defect at (0, m, l), so ``verify_dga`` computes it once
per (m, l) while it is zero; ``connections.coefficient_complex`` uses
product(n, 1) only through product(0, 1) and never builds it.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .fields import Field
from .hopf import BialgebraMorphism, HopfAlgebra
from .linalg import (Matrix, Vec, basis_vec, identity_defect_witness,
                     tensor_decode, vec_add, vec_tensor)
from .modules import BimoduleCoalgebra
from .reports import Report

DEFAULT_MAX_DEGREE = 3


class Calculus:
    """One of the three differential graded algebras, built lazily per degree."""

    def __init__(self, kind: str, B: HopfAlgebra, *,
                 C: Optional[BimoduleCoalgebra] = None,
                 alpha: Optional[BialgebraMorphism] = None,
                 beta: Optional[BialgebraMorphism] = None,
                 max_degree: int = DEFAULT_MAX_DEGREE):
        if kind not in ("k", "khat", "general"):
            raise ValueError(f"unknown calculus kind {kind!r}")
        self.kind = kind
        self.B = B
        self.field: Field = B.field
        self.max_degree = max_degree
        self.C = C
        self.alpha = alpha
        self.beta = beta
        if kind == "k":
            conj = B.antipode_inverse()
            if conj is None:
                raise ValueError("the S^-1 calculus needs an invertible antipode")
            self._conj = conj
            self.cdim = B.dim
            self.basepoint: Vec = dict(B.unit)
        elif kind == "khat":
            self._conj = B.antipode
            self.cdim = B.dim
            self.basepoint = dict(B.unit)
        else:
            if C is None or alpha is None or beta is None:
                raise ValueError("the generalized calculus needs (C, alpha, beta)")
            self._conj = None
            self.cdim = C.dim
            self.basepoint = dict(C.grouplike)
        self._diff: Dict[int, Matrix] = {}
        self._prod: Dict[Tuple[int, int], Matrix] = {}
        self._sand_cache: Dict[Tuple[int, int, int], Vec] = {}
        self._sandwich_cols: Dict[Tuple[int, int], Vec] = {}
        self._sandwich: Optional[Matrix] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def k(cls, H: HopfAlgebra, max_degree: int = DEFAULT_MAX_DEGREE) -> "Calculus":
        return cls("k", H, max_degree=max_degree)

    @classmethod
    def khat(cls, H: HopfAlgebra, max_degree: int = DEFAULT_MAX_DEGREE) -> "Calculus":
        return cls("khat", H, max_degree=max_degree)

    @classmethod
    def general(cls, C: BimoduleCoalgebra, alpha: BialgebraMorphism,
                beta: BialgebraMorphism,
                max_degree: int = DEFAULT_MAX_DEGREE) -> "Calculus":
        return cls("general", C.B, C=C, alpha=alpha, beta=beta, max_degree=max_degree)

    # -- degree bookkeeping --------------------------------------------------

    def degree_dim(self, n: int) -> int:
        return self.cdim ** n * self.B.dim

    def degree_dims(self, n: int) -> List[int]:
        return [self.cdim] * n + [self.B.dim]

    def unit_element(self) -> Vec:
        return dict(self.B.unit)

    def unit_column(self) -> Matrix:
        """The unit as a B x 1 column."""
        return Matrix.from_columns_csr([self.B.unit], self.B.dim, self.field)

    # -- structural building blocks ------------------------------------------

    def _comul_c(self, c: int) -> Vec:
        if self.kind == "general":
            return self.C.comul[c]
        return self.B.comul[c]

    def _sand(self, a: int, c: int, z: int) -> Vec:
        """alpha(e_a) . e_c . beta(e_z) in C (the sandwich on one slot)."""
        key = (a, c, z)
        out = self._sand_cache.get(key)
        if out is None:
            f = self.field
            if self.kind == "general":
                out = self.C.ract(self.C.lact(self.alpha.apply(basis_vec(f, a)),
                                              basis_vec(f, c)),
                                  self.beta.apply(basis_vec(f, z)))
            else:
                out = self.B.multiply(
                    self.B.multiply(basis_vec(f, a), basis_vec(f, c)),
                    self._conj.apply(basis_vec(f, z)))
            self._sand_cache[key] = out
        return out

    def sandwich(self, b: int, c: int) -> Vec:
        """Column (b, c) of the sandwich matrix T: B (x) C -> C (x) B,
        sum sand(b_(1), c, b_(3)) (x) b_(2) over Delta^(2)(b)."""
        key = (b, c)
        out = self._sandwich_cols.get(key)
        if out is None:
            f, bd = self.field, self.B.dim
            out = {}
            for fl, cl in self.B._iter_comul_basis(b, 2).items():
                b12, b3 = divmod(fl, bd)
                b1, b2 = divmod(b12, bd)
                vec_add(f, out, {s * bd + b2: v for s, v in self._sand(b1, c, b3).items()}, cl)
            self._sandwich_cols[key] = out
        return out

    def _sand0(self, b: int) -> Vec:
        """sand(b_(1), I, b_(3)) (x) b_(2), an element of C (x) B."""
        out: Vec = {}
        for i, ci in self.basepoint.items():
            vec_add(self.field, out, self.sandwich(b, i), ci)
        return out

    # -- the differential ----------------------------------------------------

    def differential(self, n: int) -> Matrix:
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree {n} outside materialized range 0..{self.max_degree}")
        m = self._diff.get(n)
        if m is None:
            m = self._build_differential(n)
            self._diff[n] = m
        return m

    def _build_differential(self, n: int) -> Matrix:
        """D_0 = F_0 - g (x) I_B from the sand0 columns, and D_n = E (x) I -
        I_C (x) D_{n-1} (module docstring)."""
        f = self.field
        cd, bd = self.cdim, self.B.dim
        # from_columns_csr drops the zeros these subtractions leave
        if n == 0:
            cols = [dict(self._sand0(b)) for b in range(bd)]
            for b, col in enumerate(cols):
                for u, cu in self.basepoint.items():
                    col[u * bd + b] = f.sub(col.get(u * bd + b, 0), cu)
            return Matrix.from_columns_csr(cols, cd * bd, f)
        # E = Delta_C - I_C (x) g - g (x) I_C
        cols = [dict(self._comul_c(c)) for c in range(cd)]
        for c, col in enumerate(cols):
            for u, cu in self.basepoint.items():
                for k in (c * cd + u, u * cd + c):
                    col[k] = f.sub(col.get(k, 0), cu)
        E = Matrix.from_columns_csr(cols, cd * cd, f)
        # D_{n-1} is read from the cache, so a corrupted cached differential
        # reaches every degree above it
        return (E.kron(Matrix.identity(self.degree_dim(n - 1), f))
                - Matrix.identity(cd, f).kron(self.differential(n - 1)))

    # -- the graded product ----------------------------------------------------

    def product(self, n: int, m: int) -> Matrix:
        if n < 0 or m < 0 or n + m > self.max_degree:
            raise ValueError(f"degree overflow: {n}+{m} > {self.max_degree}")
        key = (n, m)
        p = self._prod.get(key)
        if p is None:
            p = self._build_product(n, m)
            self._prod[key] = p
        return p

    def _build_product(self, n: int, m: int) -> Matrix:
        f = self.field
        if n:
            return Matrix.identity(self.cdim ** n, f).kron(self.product(0, m))
        if m == 0:
            bd = self.B.dim
            return Matrix.from_columns_csr(
                [self.B.mul.get((b, w), {}) for b in range(bd) for w in range(bd)], bd, f)
        return (Matrix.identity(self.cdim, f).kron(self.product(0, m - 1))
                @ self._sandwich_matrix().kron(
                    Matrix.identity(self.degree_dim(m - 1), f)))

    def _sandwich_matrix(self) -> Matrix:
        """T from its ``sandwich`` columns, built once."""
        if self._sandwich is None:
            self._sandwich = Matrix.from_columns_csr(
                [self.sandwich(b, c) for b in range(self.B.dim) for c in range(self.cdim)],
                self.cdim * self.B.dim, self.field)
        return self._sandwich

    def product_apply(self, u: Vec, n: int, v: Vec, m: int) -> Vec:
        return self.product(n, m).apply(vec_tensor(self.field, u, v, self.degree_dim(m)))

    def __repr__(self):
        return f"Calculus({self.kind}, B dim {self.B.dim}, C dim {self.cdim})"


# ---------------------------------------------------------------------------
# DGA verification


def verify_dga(calc: Calculus, max_degree: Optional[int] = None) -> Report:
    """d^2 = 0, graded Leibniz, product associativity and the graded unit,
    all as exact sparse matrix identities across the materialized degrees.

    Associativity is computed at n = 0 for each (m, l) and carried to every
    n by the block structure of the products (module docstring); the
    products must therefore be the ones ``Calculus.product`` builds."""
    max_degree = calc.max_degree if max_degree is None else max_degree
    if max_degree < 2:
        raise ValueError("need max_degree >= 2 to see the DGA axioms")
    f = calc.field
    rep = Report()

    def eye(n):
        return Matrix.identity(calc.degree_dim(n), f)

    for n in range(max_degree):
        w = identity_defect_witness(
            f, [(1, [calc.differential(n + 1), calc.differential(n)])])
        rep.add(f"d_squared_zero[{n}]", w is None,
                None if w is None else _witness(calc, w, [n]))

    for n in range(max_degree):
        for m in range(max_degree - n):
            sign = 1 if n % 2 == 0 else -1
            w = identity_defect_witness(f, [
                (1, [calc.differential(n + m), calc.product(n, m)]),
                (-1, [calc.product(n + 1, m), (calc.differential(n), eye(m))]),
                (-sign, [calc.product(n, m + 1), (eye(n), calc.differential(m))]),
            ])
            rep.add(f"leibniz[{n},{m}]", w is None,
                    None if w is None else _witness(calc, w, [n, m]))

    def associativity_defect(n, m, l):
        return identity_defect_witness(f, [
            (1, [calc.product(n + m, l), (calc.product(n, m), eye(l))]),
            (-1, [calc.product(n, m + l), (eye(n), calc.product(m, l))]),
        ])

    at_zero = {}        # (m, l) -> witness of the defect at n = 0
    for n in range(max_degree + 1):
        for m in range(max_degree + 1 - n):
            for l in range(max_degree + 1 - n - m):
                # defect(n, m, l) = I_{C^n} (x) defect(0, m, l), so it is zero
                # when that one is; a nonzero one is computed in full for
                # its own witness
                if n == 0:
                    w = at_zero[(m, l)] = associativity_defect(0, m, l)
                elif at_zero[(m, l)] is None:
                    w = None
                else:
                    w = associativity_defect(n, m, l)
                rep.add(f"associativity[{n},{m},{l}]", w is None,
                        None if w is None else _witness(calc, w, [n, m, l]))

    # the unit u, a B x 1 column, is a two-sided identity in every degree:
    # product(0, n) (u (x) I) = I = product(n, 0) (I (x) u)
    u = calc.unit_column()
    ok = all(identity_defect_witness(f, [(1, [calc.product(0, n), (u, eye(n))]),
                                         (-1, [eye(n)])]) is None
             and identity_defect_witness(f, [(1, [calc.product(n, 0), (eye(n), u)]),
                                             (-1, [eye(n)])]) is None
             for n in range(max_degree + 1))
    rep.add("graded_unit", ok)
    return rep


def _witness(calc: Calculus, w, degs):
    row, col, val = w
    dims = [calc.degree_dim(d) for d in degs]
    return {"degrees": degs, "column": tensor_decode(col, dims), "value": val}


# ---------------------------------------------------------------------------
# specialization of the generalized calculus to the two Hopf calculi


def specialization_check(H: HopfAlgebra, max_degree: int = DEFAULT_MAX_DEGREE) -> Report:
    """The generalized calculus with alpha = id, beta = S (resp. S^-1) over
    C = B = H must reproduce the S (resp. S^-1) calculus matrix-for-matrix."""
    rep = Report()
    C = BimoduleCoalgebra.from_hopf(H)
    ident = BialgebraMorphism.identity(H)

    pairs = [("khat", Calculus.khat(H, max_degree),
              Calculus.general(C, ident, BialgebraMorphism.antipode(H), max_degree))]
    if H.antipode_inverse() is not None:
        pairs.append(("k", Calculus.k(H, max_degree),
                      Calculus.general(C, ident, BialgebraMorphism.antipode_inverse(H),
                                       max_degree)))
    for name, direct, general in pairs:
        ok_d = all(direct.differential(n) == general.differential(n)
                   for n in range(max_degree + 1))
        rep.add(f"{name}_differentials_match", ok_d)
        ok_p = all(direct.product(n, m) == general.product(n, m)
                   for n in range(max_degree + 1) for m in range(max_degree + 1 - n))
        rep.add(f"{name}_products_match", ok_p)
    return rep
