"""The differential calculus over (C, alpha, beta), materialized degreewise.

One construction builds all three calculi.  A calculus holds a bimodule
coalgebra C over a Hopf algebra B (``modules.BimoduleCoalgebra``, its
structure matrices) and two bialgebra maps alpha, beta of B; ``kind``
only names it.  The S^-1 calculus K = ``Calculus.k(H)`` is the one at
(H, id, S^-1) and the S calculus K-hat = ``Calculus.khat(H)`` the one at
(H, id, S), with H a bimodule coalgebra over itself
(``BimoduleCoalgebra.from_hopf``); ``Calculus.general`` takes any
(C, alpha, beta).  Degree n lives on C^{(x)n} (x) B (for K and K-hat,
H^{(x)(n+1)} with the last tensor factor in the B role).  The
differential and the graded product are sparse matrices per degree; the
DGA axioms (d^2 = 0, graded Leibniz, associativity) are verified as exact
matrix identities.

The differential is

    d(c^1 (x) ... (x) c^n (x) b)
      = -(I (x) c^1 (x) ... (x) b)
        + sum_j (-1)^(j-1) (... c^j_(1) (x) c^j_(2) ...)
        + (-1)^n (c^1 (x) ... (x) c^n (x) sand(b_(1), I, b_(3)) (x) b_(2))

where sand(a, c, z) = alpha(a) . c . beta(z) through the bimodule actions:
a . c . S^-1(z) for K and a . c . S(z) for K-hat.  Each differential is
built from the one below it.  With g the basepoint I as a C x 1 column,
the basepoint term is g (x) I, so that D_n = F_n - g (x) I_(Omega^n) with
F_0(b) = sand(b_(1), I, b_(3)) (x) b_(2) and, peeling off the first C leg
of the formula above,

    F_n(c (x) w) = Delta(c) (x) w - c (x) F_{n-1}(w),

that is F_n = Delta_C (x) I_(Omega^(n-1)) - I_C (x) F_{n-1}.  Putting
F_{n-1} = D_{n-1} + g (x) I back in, both basepoint terms become
Kronecker products with I_(Omega^(n-1)):

    D_n = E (x) I_(Omega^(n-1)) - I_C (x) D_{n-1},
    E = Delta_C - I_C (x) g - g (x) I_C,

with D_{n-1} read from the cache and E a C (x) C x C matrix built from
Delta_C and g.  So D_n stays in int64 CSR whenever the structure
constants are integral, and the recursion needs no coassociativity.
D_0 reads the sandwich matrix T below at the basepoint:

    D_0 = T (I_B (x) g) - g (x) I_B.

The product Omega^n (x) Omega^m -> Omega^{n+m} applies the same sandwich
to the legs of an iterated coproduct of the B slot of the left factor: the
j-th C leg of the right factor sits between the j-th legs from the
outside.  It is built from two exact identities.
The prefix legs of the left factor are copied untouched, so

    product(n, m) = I_{C^(x)n} (x) product(0, m),

which is built on demand from A_m = product(0, m) and never stored: A_m
is the only product a calculus caches.  Coassociativity of B gives A_m
from A_{m-1} by peeling off the outermost pair of legs:

    A_m(b (x) c (x) w) = sum sand(b_(1), c, b_(3)) (x) A_{m-1}(b_(2) (x) w)

over Delta^(2)(b) = b_(1) (x) b_(2) (x) b_(3), with A_0 the multiplication
mu of B.  In matrix form, with the sandwich matrix T: B (x) C -> C (x) B,
T(b (x) c) = sum sand(b_(1), c, b_(3)) (x) b_(2),

    A_m = (I_C (x) A_{m-1}) . (T (x) I_{Omega^(m-1)}).

T itself is a product of structure matrices, built once:

    T = (R (x) I_B) (I_C (x) flip_(B,B)) (L (x) Delta_B)
        (I_B (x) flip_(B,C)) (Delta_B (x) I_C),

with flip the tensor flip, L(a (x) c) = alpha(a) c and R(c (x) z) =
c beta(z), that is L = C.left (alpha (x) I_C) and R = C.right
(I_C (x) beta) (mu and mu (I (x) S^-1), resp. mu (I (x) S), for K and
K-hat); its legs come in the bracketing (I (x) Delta) Delta.  So
every differential and every product is a Kronecker product, a sum or a
matrix product of structure matrices and identities, and stays in int64
CSR whenever they are integral.  T is the one copy of the sandwich: the
sandwich action of ``connections.sandwich_action``, and through it every
compatibility and Leibniz check, read it too.
The recursion is exact only when B is coassociative; the CLI
checks that with ``verify_axioms`` before it builds a calculus.  The block
structure also makes every Leibniz, associativity and right-unit line at
n > 0 equal to +-I_{C^(x)n} (x) its line at n = 0, and the recursions make
the rest follow from a few low identities: every (0, m, l) associativity
line from (0, 0, 0) and (0, 0, 1), every leibniz[0,m] from leibniz[0,0]
and leibniz[0,1], both when mu has the unit on the right; every d^2 line
from the one at degree 0 and Z = (E (x) I_C - I_C (x) E) E; and the left
unit in every degree from the right unit, mu and A_1.  So
``verify_dga`` computes these low identities, which read only T, D_0,
D_1 and A_0..A_2, and computes the other lines only when one of them
fails (its docstring has the proofs).  ``connections.coefficient_complex``
reads D_0, T and E only: its differentials obey the recursion of D_n with
the module X in the place of B, d_X^n = E (x) I - I_C (x) d_X^(n-1), so it
builds no D_n above degree 0 and no product(n, 1).  A bare ``homology``
verdict reads D_0, D_1, D_2 and E only: from them, or from d_X^0, d_X^1 and
d_X^2 for a coefficient complex, ``homology.quotient_complex`` builds the
normalized quotient of every higher degree by the same recursion on
C/k.g, split into blocks by a weight grading, and stands the d^2 lines
above degree 2 on Z, as ``verify_dga`` does.
"""
from __future__ import annotations

from typing import Dict, Optional

from .fields import Field
from .hopf import BialgebraMorphism, HopfAlgebra
from .linalg import Matrix, identity_defect_witness, kron_minus_blocks, tensor_decode
from .modules import BimoduleCoalgebra
from .reports import Report

DEFAULT_MAX_DEGREE = 3


class Calculus:
    """The differential graded algebra over (C, alpha, beta), built lazily
    per degree; ``kind`` names it (module docstring)."""

    def __init__(self, kind: str, C: BimoduleCoalgebra, alpha: BialgebraMorphism,
                 beta: BialgebraMorphism, max_degree: int = DEFAULT_MAX_DEGREE):
        if kind not in ("k", "khat", "general"):
            raise ValueError(f"unknown calculus kind {kind!r}")
        self.kind, self.C, self.alpha, self.beta = kind, C, alpha, beta
        self.B = C.B
        self.field: Field = C.field
        self.max_degree = max_degree
        self.cdim = C.dim
        self._diff: Dict[int, Matrix] = {}
        self._prod: Dict[int, Matrix] = {}
        self._sandwich: Optional[Matrix] = None
        self._reduced_comul: Optional[Matrix] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def k(cls, H: HopfAlgebra, max_degree: int = DEFAULT_MAX_DEGREE) -> "Calculus":
        """The S^-1 calculus: (H, id, S^-1)."""
        if H.antipode_inverse() is None:
            raise ValueError("the S^-1 calculus needs an invertible antipode")
        return cls("k", BimoduleCoalgebra.from_hopf(H), BialgebraMorphism.identity(H),
                   BialgebraMorphism.antipode_inverse(H), max_degree)

    @classmethod
    def khat(cls, H: HopfAlgebra, max_degree: int = DEFAULT_MAX_DEGREE) -> "Calculus":
        """The S calculus: (H, id, S)."""
        return cls("khat", BimoduleCoalgebra.from_hopf(H), BialgebraMorphism.identity(H),
                   BialgebraMorphism.antipode(H), max_degree)

    @classmethod
    def general(cls, C: BimoduleCoalgebra, alpha: BialgebraMorphism,
                beta: BialgebraMorphism,
                max_degree: int = DEFAULT_MAX_DEGREE) -> "Calculus":
        return cls("general", C, alpha, beta, max_degree)

    # -- degree bookkeeping --------------------------------------------------

    def degree_dim(self, n: int) -> int:
        return self.cdim ** n * self.B.dim

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
        """D_0 = T (I_B (x) g) - g (x) I_B and D_n = E (x) I - I_C (x) D_{n-1}
        (module docstring).  ``kron_minus_blocks`` builds D_n one run of I_C
        blocks at a time, so that neither Kronecker product exists at full
        size: for Taft(3,2) at n = 4 (531,441 x 59,049, 547,581 entries)
        the build peaks at ~16 MiB traced over its inputs."""
        f = self.field
        if n == 0:
            g = self.C.grouplike
            eye_b = Matrix.identity(self.B.dim, f)
            return self._sandwich_matrix() @ eye_b.kron(g) - g.kron(eye_b)
        # D_{n-1} is read from the cache, so a corrupted cached differential
        # reaches every degree above it
        return kron_minus_blocks(self._reduced_comul_matrix(),
                                 Matrix.identity(self.degree_dim(n - 1), f), self.cdim,
                                 self.differential(n - 1))

    # -- the graded product ----------------------------------------------------

    def product(self, n: int, m: int) -> Matrix:
        """A_m = product(0, m) from the cache; for n > 0 the block copy
        I_(C^n) (x) A_m, built on demand and never stored (module
        docstring)."""
        if n < 0 or m < 0 or n + m > self.max_degree:
            raise ValueError(f"degree overflow: {n}+{m} > {self.max_degree}")
        if n:
            return Matrix.identity(self.cdim ** n, self.field).kron(self.product(0, m))
        p = self._prod.get(m)
        if p is None:
            p = self._prod[m] = self._build_product(m)
        return p

    def _build_product(self, m: int) -> Matrix:
        """A_0 = mu and A_m = (I_C (x) A_{m-1}) (T (x) I) (module docstring)."""
        if m == 0:
            return self.B.mul_matrix()
        return (self.product(1, m - 1)
                @ self._sandwich_matrix().kron(
                    Matrix.identity(self.degree_dim(m - 1), self.field)))

    def _sandwich_matrix(self) -> Matrix:
        """T: C (x) B <- B (x) C from the structure matrices, built once
        (module docstring)."""
        if self._sandwich is None:
            f, B, bd, cd = self.field, self.B, self.B.dim, self.cdim

            def eye(n):
                return Matrix.identity(n, f)

            L = self.C.left @ self.alpha.matrix.kron(eye(cd))
            R = self.C.right @ eye(cd).kron(self.beta.matrix)
            delta = B.comul_matrix()
            self._sandwich = (R.kron(eye(bd)) @ eye(cd).kron(Matrix.flip(bd, bd, f))
                              @ L.kron(delta) @ eye(bd).kron(Matrix.flip(bd, cd, f))
                              @ delta.kron(eye(cd)))
        return self._sandwich

    def _reduced_comul_matrix(self) -> Matrix:
        """E = Delta_C - I_C (x) g - g (x) I_C: C (x) C <- C, built once
        (module docstring)."""
        if self._reduced_comul is None:
            f, cd = self.field, self.cdim
            g, eye_c = self.C.grouplike, Matrix.identity(cd, f)
            self._reduced_comul = self.C.comul - eye_c.kron(g) - g.kron(eye_c)
        return self._reduced_comul

    def __repr__(self):
        return f"Calculus({self.kind}, B dim {self.B.dim}, C dim {self.cdim})"


# ---------------------------------------------------------------------------
# DGA verification


def verify_dga(calc: Calculus, max_degree: Optional[int] = None) -> Report:
    """d^2 = 0, graded Leibniz, product associativity and the graded unit,
    all as exact sparse matrix identities across the materialized degrees.

    One rule covers Leibniz, associativity and the right unit: a line at
    n > 0 is +-I_(C^n) (x) its line at n = 0, so it holds exactly when that
    one does, and its witness is read off that one's.  The witness is the
    first nonzero entry of the defect in row-major order, and block (0, 0)
    of I (x) L, which is L, comes first in that order: the rows of block
    row 0 come first, and in each of them only block column 0 holds
    entries.  So the first nonzero entry of +-I (x) L is L's, at the same
    (row, col), with its value times the sign, and no I_(C^n) (x) P(n, m)
    is built.  With A_m = product(0, m) and product(n, m) = I_(C^n) (x) A_m
    (module docstring):

    * associativity[n,m,l] is I_(C^n) (x) associativity[0,m,l];
    * the right unit product(n, 0) (I (x) u) = I is I_(C^n) (x) the right
      unit mu (I_B (x) u) = I, so only the latter is computed;
    * leibniz[n,m] is the defect L(n, m) = D_{n+m} P(n, m)
      - P(n+1, m) (D_n (x) I) - (-1)^n P(n, m+1) (I (x) D_m), with
      P(n, m) = I_(C^n) (x) A_m.  For n >= 1, expand D_{n+m} and D_n by
      D_k = E (x) I - I_C (x) D_{k-1}: the two E (x) P(n-1, m) terms
      cancel, and what is left is L(n, m) = -I_C (x) L(n-1, m).  So
      L(n, m) = (-1)^n I_(C^n) (x) L(0, m).

    Associativity at n = 0 follows from its two lowest lines and the right
    unit.  With mu = A_0 and T the sandwich matrix, so that
    A_m = (I_C (x) A_{m-1}) (T (x) I):

    * associativity[0,0,0] is mu (mu (x) I) = mu (I (x) mu);
    * associativity[0,0,1] is A_1 (mu (x) I) = A_1 (I_B (x) A_1).  Put the
      unit u in its last B slot: with mu (I_B (x) u) = I, A_1 (I (x) u) = T,
      and what is left is the multiplicativity of T,
      T (mu (x) I_C) = (I_C (x) mu) (T (x) I_B) (I_B (x) T);
    * then induction on l along A_l = (I_C (x) A_{l-1}) (T (x) I) gives
      A_l (mu (x) I) = A_l (I_B (x) A_l), that is every associativity[0,0,l]:
      multiplicativity moves mu through T, the induction hypothesis through
      A_{l-1}, and the two T's recombine into I_B (x) A_l.  No
      coassociativity is used;
    * unrolling the recursion m times, A_{m+l} = (I_(C^m) (x) A_l)
      (T_m (x) I) with T_m moving b through the m C legs by T, and
      A_m = (I_(C^m) (x) mu) (T_m (x) I_B); both sides of
      associativity[0,m,l] are then I_(C^m) (x) (a side of
      associativity[0,0,l]) after T_m (x) I, so it holds.

    So the two low lines and the right unit are computed first; when all
    three hold, every other associativity line passes without being
    computed, and when one fails, every line at n = 0 is.

    Leibniz at n = 0 follows from leibniz[0,0], leibniz[0,1] and the right
    unit.  Let K: B (x) C -> C (x) C (x) B be

        K = (E (x) I_B) T - (I_C (x) T) (D_0 (x) I_C)
            - (I_C (x) T) (T (x) I_C) (I_B (x) E) - (I_C (x) D_0) T,

    which does not depend on m.  For m >= 1, expand D_m, A_m, A_{m+1} and
    P(1, m) = I_C (x) A_m by their recursions and move each T and E past
    the identities: the D_{m-1} terms regroup into L(0, m-1), and what is
    left factors through K,

        L(0, m) = (I_(C (x) C) (x) A_{m-1}) (K (x) I)
                  - (I_C (x) L(0, m-1)) (T (x) I).

    With L(0, 0) = 0, L(0, 1) = (I_(C (x) C) (x) mu) (K (x) I_B); put u in
    its last B slot and mu (I_B (x) u) = I gives back K.  So
    L(0, 0) = L(0, 1) = 0 forces K = 0, and then every L(0, m) = 0 by
    induction on m.  Neither coassociativity nor associativity is used.
    So leibniz[0,0] and leibniz[0,1] are computed; when both hold with the
    right unit, every other leibniz[0,m] passes without being computed,
    and when one fails, every one is.

    d^2 = 0 follows from d_squared_zero[0] and one identity on C.  Write
    D_{n+1} D_n with D_k = E (x) I - I_C (x) D_{k-1} for both factors and
    multiply out: the two E (x) D_{n-1} terms cancel, and for n >= 1

        D_{n+1} D_n = Z (x) I + I_C (x) D_n D_{n-1},
        Z = (E (x) I_C - I_C (x) E) E: C -> C (x) C (x) C.

    This holds for any D_0, so when d_squared_zero[0] holds and Z = 0,
    every d_squared_zero[n] passes by induction without being computed;
    when one of the two fails, every d_squared_zero[n] is.  Z is no line
    of the report.

    The inference covers the differentials and products built by the
    recursions of ``Calculus``, which includes every CLI input.  The lines
    it computes read T, D_0, D_1 and A_0..A_2 only.  A cached D_n with
    n >= 2, or A_m with m >= 3, corrupted by hand is not seen by the
    inferred lines; a corrupted D_1, A_1 or A_2 is read by the computed
    ones, and a corrupted A_1 is checked by associativity[0,0,1] and by the
    left unit.

    The ``graded_unit`` line cannot fail on input the CLI accepts.  It is
    mu (I_B (x) u) = I together with A_n (u (x) I) = I for every n; the CLI
    builds a calculus only on input that passes ``verify_axioms``, whose
    ``unit_right`` and ``unit`` lines are the first and the case n = 0.
    For n >= 1, A_n = (I_C (x) A_{n-1}) (T (x) I) gives
    A_n (u (x) I) = (I_C (x) A_{n-1}) (T (u (x) I_C) (x) I), so
    T (u (x) I_C) = I_C (x) u gives I_C (x) A_{n-1} (u (x) I), which is I by
    induction.  By ``comul_of_unit`` the legs of 1 are 1 (x) 1 (x) 1, so
    T (1 (x) c) = alpha(1) . c . beta(1) (x) 1.  In every calculus the CLI
    builds, alpha and beta are among id, S and S^-1 (the S^-1 and S calculi
    have alpha = id and beta = S^-1, resp. S), and S(1) = 1: by
    ``antipode_left``, ``comul_of_unit`` and ``unit_right``,
    S(1) = S(1) 1 = eps(1) 1, and eps(1) = 1 is ``counit_of_unit``; so
    S^-1(1) = 1 too.  The actions of C = H on itself are the product, and
    the ``unit`` and ``unit_right`` lines give 1 . c . 1 = c.  Every step
    is exact, so the identities hold exactly.  The line is still computed
    from its low identities, as a check on the products: the right unit,
    mu (u (x) I) = I and A_1 (u (x) I) = I.  These three give
    T (u (x) I_C) = I_C (x) u whenever A_1 is built from T: put u in the
    last B slot of A_1 (u (x) I) = I.  The right side gives I_C (x) u, and
    with A_1 = (I_C (x) mu) (T (x) I_B) the left side gives
    (I_C (x) mu) (T (u (x) I_C) (x) u) = (I_C (x) mu (I_B (x) u)) T (u (x) I_C),
    which is T (u (x) I_C) by the right unit.  So when all three hold,
    every A_n (u (x) I) = I by the induction above, and when one fails, so
    does the line.  A T corrupted by hand after A_1 is built is not seen."""
    max_degree = calc.max_degree if max_degree is None else max_degree
    if max_degree < 2:
        raise ValueError("need max_degree >= 2 to see the DGA axioms")
    if max_degree > calc.max_degree:
        # the inferred lines build nothing at the top degrees, so say it here
        raise ValueError(f"degree {max_degree} outside materialized range 0..{calc.max_degree}")
    f = calc.field
    rep = Report()

    def eye(n):
        return Matrix.identity(calc.degree_dim(n), f)

    def leibniz_defect(m):
        return identity_defect_witness(f, [
            (1, [calc.differential(m), calc.product(0, m)]),
            (-1, [calc.product(1, m), (calc.differential(0), eye(m))]),
            (-1, [calc.product(0, m + 1), (eye(0), calc.differential(m))]),
        ])

    def associativity_defect(m, l):
        return identity_defect_witness(f, [
            (1, [calc.product(m, l), (calc.product(0, m), eye(l))]),
            (-1, [calc.product(0, m + l), (eye(0), calc.product(m, l))]),
        ])

    def add(family, degs, w):
        rep.add(f"{family}[{','.join(map(str, degs))}]", w is None,
                None if w is None else _witness(calc, w, list(degs)))

    def add_lifted(family, zero, *degs):
        """A Leibniz or associativity line whose n = 0 line has witness
        ``zero``, read off it: the same (row, col), the value times (-1)^n
        for Leibniz."""
        if zero is not None and family == "leibniz" and degs[0] % 2:
            zero = (zero[0], zero[1], f.neg(zero[2]))
        add(family, degs, zero)

    # the unit u, a B x 1 column, is a two-sided identity in every degree:
    # product(0, n) (u (x) I) = I, and mu (I (x) u) = I gives the right unit
    u = calc.B.unit_column()

    def unit_holds(n, side):
        return identity_defect_witness(
            f, [(1, [calc.product(0, n), side]), (-1, [eye(n)])]) is None

    # (m, l) -> witness of associativity[0,m,l], the two low lines first
    at_zero = {(0, l): associativity_defect(0, l) for l in (0, 1)}
    right_unit = unit_holds(0, (eye(0), u))
    inferred = right_unit and all(w is None for w in at_zero.values())

    def d_squared(n):
        return identity_defect_witness(f, [(1, [calc.differential(n + 1), calc.differential(n)])])

    # d_squared_zero[n >= 1] follows from d_squared_zero[0] and Z = 0
    E, eye_c = calc._reduced_comul_matrix(), Matrix.identity(calc.cdim, f)
    squares = [d_squared(0)]
    z_holds = squares[0] is None and identity_defect_witness(
        f, [(1, [(E, eye_c), E]), (-1, [(eye_c, E), E])]) is None
    squares += [None if z_holds else d_squared(n) for n in range(1, max_degree)]
    for n, w in enumerate(squares):
        add("d_squared_zero", (n,), w)

    # leibniz[0,m >= 2] follows from leibniz[0,0], leibniz[0,1] and the right unit
    leibniz_at_zero = [leibniz_defect(m) for m in (0, 1)]
    k_holds = right_unit and leibniz_at_zero == [None, None]
    leibniz_at_zero += [None if k_holds else leibniz_defect(m) for m in range(2, max_degree)]
    for n in range(max_degree):
        for m in range(max_degree - n):
            add_lifted("leibniz", leibniz_at_zero[m], n, m)

    for n in range(max_degree + 1):
        for m in range(max_degree + 1 - n):
            for l in range(max_degree + 1 - n - m):
                if (m, l) not in at_zero:
                    at_zero[(m, l)] = None if inferred else associativity_defect(m, l)
                add_lifted("associativity", at_zero[(m, l)], n, m, l)

    # with the right unit, the left unit on A_0 and A_1 carries it to every A_n
    rep.add("graded_unit", right_unit and all(unit_holds(n, (u, eye(n))) for n in (0, 1)))
    return rep


def _witness(calc: Calculus, w, degs):
    row, col, val = w
    dims = [calc.degree_dim(d) for d in degs]
    return {"degrees": degs, "column": tensor_decode(col, dims), "value": val}
