"""Chain complexes, exact homology dimensions, and the cobar oracle.

The two-sided cobar complex here is constructed from a coalgebra with a
grouplike basepoint and a comodule only, never from a Calculus object, so
it serves as an independent oracle against which the coefficient complexes
of flat connections are compared (both at the chain level and in homology).
Its differential in degree n is one closed sum of Kronecker products of
the coproduct, the basepoint and the coaction (``cobar_complex``), where
the calculus builds its own from the differential one degree below.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Tuple, Union

import numpy as np

from .fields import Field
from .hopf import HopfAlgebra
from .linalg import Matrix, Vec, basis_vec, identity_defect_witness, vec_add, vec_tensor
from .modules import BimoduleCoalgebra, ModComod, coassociativity_defects
from .reports import Report


@dataclass
class ChainComplex:
    """Graded spaces with differentials raising degree by one; d^2 = 0 is
    enforced at construction for every composable pair.  ``basepoint``
    marks a cobar complex on C^n (x) X, so that dims[n] = (dim C)^n * dims[0]:
    it is the grouplike basepoint g of C, and ``homology_dims`` then ranks
    the normalized complex."""

    field: Field
    dims: List[int]
    diffs: List[Matrix]             # diffs[n]: dims[n] -> dims[n+1]
    basepoint: Optional[Vec] = None

    def __post_init__(self):
        if len(self.dims) != len(self.diffs) + 1:
            raise ValueError("need one differential per adjacent pair of degrees")
        for n, d in enumerate(self.diffs):
            if (d.cols, d.rows) != (self.dims[n], self.dims[n + 1]):
                raise ValueError(f"differential {n} has the wrong shape")
        for n in range(len(self.diffs) - 1):
            pair = [self.diffs[n + 1], self.diffs[n]]
            if identity_defect_witness(self.field, [(1, pair)]) is not None:
                raise ValueError(f"d^2 != 0 at degree {n}")

    @property
    def max_degree(self) -> int:
        return len(self.diffs)


@dataclass
class HomologyTable:
    entries: List[Tuple[int, int]]          # (degree, dim H_n)

    def dims(self) -> List[int]:
        return [d for _, d in self.entries]

    def __str__(self):
        return "  ".join(f"H_{n}={d}" for n, d in self.entries)


def homology_dims(cx: ChainComplex, max_degree: Optional[int] = None) -> HomologyTable:
    """dim H_n = ker(d_n) - rank(d_{n-1}), degree by degree.  d^2 = 0 is
    checked at construction, so rank d_(n-1) + rank d_n <= dims[n]: a
    negative dimension is an internal error (``RuntimeError``).

    On a cobar complex (``basepoint`` set) the ranks are taken on the
    normalized complex, of dimension (cd - 1)^n * xd in degree n
    (``_normalized``), and the dimensions are those of the full complex."""
    top = cx.max_degree if max_degree is None else min(max_degree, cx.max_degree)
    plain = cx.basepoint is None or not (top and cx.dims[0])
    dims, diffs = (cx.dims, cx.diffs[:top]) if plain else _normalized(cx, top)
    entries = []
    prev_rank = 0
    for n, d in enumerate(diffs):
        r = d.rank()
        h = (dims[n] - r) - prev_rank
        if h < 0:
            raise RuntimeError("negative homology dimension although d^2 = 0")
        entries.append((n, h))
        prev_rank = r
    return HomologyTable(entries)


def _normalized(cx: ChainComplex, top: int) -> Tuple[List[int], List[Matrix]]:
    """The dimensions and differentials d_0..d_(top-1) of the normalized
    complex C-bar^n (x) X, C-bar = C/k.g, of the cobar complex ``cx``
    (Ravenel, *Complex Cobordism and Stable Homotopy Groups of Spheres*,
    A1.2.11-12).

    Let W be the span of the tensors with a leg g.  It is a subcomplex:
    every term of a cobar differential keeps the leg g, or doubles it, as
    Delta(g) = g (x) g.  It is acyclic, as eps(g) = 1, so the quotient has
    the homology of the whole complex.  Let j0 be the first index of g,
    and M e_j0 = g, M e_x = e_x for x != j0; M is the identity when g is a
    basis vector.
    In the basis M^n (x) I_X, W is spanned by the coordinate vectors with
    a leg j0, so the quotient differential is the submatrix of
    (M^-1)^(n+1) (x) I_X . d_n . M^n (x) I_X on the rows and columns with
    no leg j0.  An entry in a row with no leg j0 at a column with one
    would put W outside the subcomplex, which the argument above excludes:
    it is an internal error (``RuntimeError``).  The check and the quotient
    come from one mask pass over each differential (``submatrix`` with
    ``closed``)."""
    g, f, xd = cx.basepoint, cx.field, cx.dims[0]
    cd, j0 = cx.dims[1] // xd, min(g)
    has_g = [np.zeros(1, dtype=bool)]       # has_g[n][i]: C^n index i has a leg j0
    for _ in range(top):
        has_g.append(((np.arange(cd) == j0)[:, None] | has_g[-1]).ravel())
    has_g = [np.repeat(m, xd) for m in has_g]
    diffs = cx.diffs[:top]
    if g != {j0: f.one()}:
        M = Matrix.from_columns([g if j == j0 else {j: f.one()} for j in range(cd)], cd, f)
        lift, proj = (list(accumulate([A] * top, lambda P, A: A.kron(P),
                                      initial=Matrix.identity(xd, f))) for A in (M, M.inverse()))
        diffs = [proj[n + 1] @ d @ lift[n] for n, d in enumerate(diffs)]
    quotients = []
    for n, d in enumerate(diffs):
        try:
            quotients.append(d.submatrix(~has_g[n + 1], ~has_g[n], closed=True))
        except ValueError:
            raise RuntimeError("tensors with a basepoint leg are not a subcomplex"
                               f" at degree {n}") from None
    return [int((~m).sum()) for m in has_g], quotients


def cobar_complex(C: Union[HopfAlgebra, BimoduleCoalgebra], X: ModComod,
                  max_degree: int = 3) -> ChainComplex:
    """The unreduced two-sided cobar complex B(k, C, X): degree n space
    C^n (x) X, with k a C-comodule through the grouplike basepoint I and X
    through its (coassociative) coaction.  Its differential is the closed
    sum

        d_n = -(g (x) I) + sum_(j<n) (-1)^j I_(C^j) (x) Delta (x) I
              + (-1)^n I_(C^n) (x) rho

    with g the basepoint as a C x 1 column.  It reads only the coproduct,
    the basepoint and the coaction: no calculus, and no recursion in n.
    """
    I, cd, comul, f = _basepoint(C), C.dim, C.comul, C.field
    if X.coaction is None:
        raise ValueError("comodule has no coaction")
    if coassociativity_defects(X):
        raise ValueError("coaction is not coassociative")
    xd = X.dim

    def eye(n):
        return Matrix.identity(n, f)

    g = Matrix.from_columns([I], cd, f)
    delta = Matrix.from_columns(comul, cd * cd, f)
    rho = Matrix.from_columns(X.coaction, cd * xd, f)
    dims = [cd ** n * xd for n in range(max_degree + 1)]
    diffs: List[Matrix] = []
    for n in range(max_degree):
        terms = [eye(cd ** j).kron(delta).kron(eye(dims[n - 1 - j])) for j in range(n)]
        terms.append(eye(cd ** n).kron(rho))
        d = terms[0]
        for j, term in enumerate(terms[1:], 1):
            d = d - term if j % 2 else d + term
        diffs.append(d - g.kron(eye(dims[n])))
    return ChainComplex(f, dims, diffs, I)


def _basepoint(C: Union[HopfAlgebra, BimoduleCoalgebra]) -> Vec:
    """The grouplike basepoint g of C, without the zeros a file may list:
    ``_normalized`` reads its support."""
    g = C.grouplike if isinstance(C, BimoduleCoalgebra) else C.unit
    return {i: c for i, c in g.items() if not C.field.is_zero(c)}


def _coalgebra(calc) -> Union[HopfAlgebra, BimoduleCoalgebra]:
    """The coalgebra C of the calculus's C^n, which the cobar oracle reads."""
    return calc.C if calc.kind == "general" else calc.B


def _basepoint_coadjoint(calc) -> ModComod:
    """The comodule structure on B itself whose cobar complex matches the
    bare calculus: rho(b) = alpha(b_(1)) I beta(b_(3)) (x) b_(2), built
    from the structure maps directly (conjugation by S or S^-1 for the
    Hopf calculi)."""
    B = calc.B
    f = B.field
    if calc.kind == "general":
        C, alpha, beta, I = calc.C, calc.alpha, calc.beta, calc.C.grouplike
        def wrap(b1: int, b3: int) -> Vec:
            return C.ract(C.lact(alpha.apply(basis_vec(f, b1)), I),
                          beta.apply(basis_vec(f, b3)))
    else:
        conj = calc._conj
        def wrap(b1: int, b3: int) -> Vec:
            return B.multiply(basis_vec(f, b1), conj.apply(basis_vec(f, b3)))
    coaction: List[Vec] = []
    for i in range(B.dim):
        acc: Vec = {}
        # the legs of (I (x) Delta) Delta (e_i)
        for fl, c in B.comul[i].items():
            b1, b23 = divmod(fl, B.dim)
            for fl2, c2 in B.comul[b23].items():
                b2, b3 = divmod(fl2, B.dim)
                vec_add(f, acc, vec_tensor(f, wrap(b1, b3), basis_vec(f, b2), B.dim),
                        f.mul(c, c2))
        coaction.append(acc)
    return ModComod(B, B.dim, None, coaction,
                    coalgebra=calc.C, label="basepoint-coadjoint")


def calculus_complex(calc, X: Optional[ModComod],
                     max_degree: Optional[int] = None) -> ChainComplex:
    """The calculus-side complex: with X None the calculus itself (degree n
    space C^n (x) B), with X given the coefficient complex of the flat
    connection of its coaction.  Either is a cobar complex with the
    basepoint of C, and carries it: the calculus itself by the paper's
    theorem, on an algebra that passed the Hopf axioms as every CLI input
    has, and the coefficient complex because it exists only for a flat,
    that is coassociative, coaction."""
    from .connections import coefficient_complex, connection_from_coaction

    max_degree = calc.max_degree if max_degree is None else max_degree
    cx = (ChainComplex(calc.field, [calc.degree_dim(n) for n in range(max_degree + 1)],
                       [calc.differential(n) for n in range(max_degree)]) if X is None
          else coefficient_complex(connection_from_coaction(calc, X), max_degree))
    cx.basepoint = _basepoint(_coalgebra(calc))
    return cx


def compare_cotor(calc, X: Optional[ModComod],
                  max_degree: Optional[int] = None) -> Tuple[Report, HomologyTable]:
    """Compare the calculus-side complex with the cobar oracle.

    The calculus side is ``calculus_complex(calc, X)``; the oracle
    coefficients are the basepoint-coadjoint comodule on B when X is None,
    and X otherwise.  Differentials are compared entrywise and homology
    dimensions per degree.  Returns the report and the calculus side's
    homology table.

    The ``degree_dims_equal`` line cannot fail: both sides are cd^n * xd.
    The ``differential_equal`` lines cannot fail on input the CLI accepts:
    the two sides agree by the paper's theorem, and only a differential
    corrupted by hand differs.  The ``homology_dims`` line cannot fail when
    every differential matches: equal matrices have equal ranks, so one
    table is computed and used for both sides.  A side whose differential
    differs is ranked on its full matrices.
    """
    max_degree = calc.max_degree if max_degree is None else max_degree
    rep = Report()
    side = calculus_complex(calc, X, max_degree)
    oracle_coeffs = _basepoint_coadjoint(calc) if X is None else X
    oracle = cobar_complex(_coalgebra(calc), oracle_coeffs, max_degree)

    equal = side.dims == oracle.dims
    rep.add("degree_dims_equal", equal, {"calculus": side.dims, "cobar": oracle.dims})
    f = calc.field
    for n in range(max_degree):
        a, b = side.diffs[n], oracle.diffs[n]
        if a == b:
            rep.add(f"differential_equal[{n}]", True)
            continue
        equal = False
        side.basepoint = None   # the side is ranked on its full matrices
        # an entry read from int64 CSR is an int; over Q it prints as the
        # Fraction it stands for
        i, j, v = (a - b).nonzero_witness()
        rep.add(f"differential_equal[{n}]", False,
                {"degree": n, "entry": (i, j, f.of(v))})
    ho = homology_dims(oracle, max_degree)
    hs = ho if equal else homology_dims(side, max_degree)
    rep.add(f"homology_dims={hs.dims()}", hs.dims() == ho.dims(),
            {"calculus": hs.dims(), "cobar": ho.dims()})
    return rep, hs
