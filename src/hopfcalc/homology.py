"""Chain complexes, exact homology dimensions, and the cobar oracle.

The two-sided cobar complex here is constructed from a coalgebra with a
grouplike basepoint and a comodule only, never from a Calculus object, so
it serves as an independent oracle against which the coefficient complexes
of flat connections are compared (both at the chain level and in homology).
Its differential in degree n is one closed sum of Kronecker products of
the coproduct, the basepoint and the coaction (``cobar_complex``), where
the calculus builds its own from the differential one degree below.

Homology is ranked on the normalized quotient by the degenerate tensors,
the ones with a leg at the basepoint.  A calculus-side complex, bare or
with coefficients, builds that quotient by its own recursion
(``quotient_complex``), split by a weight grading into blocks, and proves
d^2 = 0 on it rather than multiplying it out; any other cobar complex is
masked after it is built (``_quotients``).  Each rank skips the columns
that the image of the differential below already spans, and the top
degree of a graded complex is built and ranked one chunk at a time
(``homology_dims``).
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import accumulate
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .fields import QQ, Field
from .hopf import HopfAlgebra
from .linalg import (_BLOCK, _INT64_SAFE, Matrix, Vec, _echelon, _field_values, _sparsetools,
                     _spans, _transposed, _trimmed, identity_defect_witness, kron_sum)
from .modules import BimoduleCoalgebra, ModComod, coaction_matrix, coassociativity_defects
from .reports import Report


@dataclass
class ChainComplex:
    """Graded spaces with differentials raising degree by one.  Their
    shapes are checked at construction, and so is d^2 = 0, for every
    composable pair, unless the caller says otherwise (``d2``); ``checked``
    records that d^2 = 0 is known.  ``basepoint`` marks a cobar complex on
    C^n (x) X, so that dims[n] = (dim C)^n * dims[0]: it is the grouplike
    basepoint g of C, and ``homology_dims`` then ranks the normalized
    complex.  The quotient-first complex (``quotient_complex``) is already
    normalized and carries no basepoint.

    ``d2`` is "check" by default, which multiplies every pair out;
    "proved" when the caller has proved d^2 = 0 (``quotient_complex``); and
    "unchecked" when it is not known (the oracle of ``compare_cotor``, until
    a differential differs from the calculus's)."""

    field: Field
    dims: List[int]
    diffs: List[Matrix]             # diffs[n]: dims[n] -> dims[n+1]
    basepoint: Optional[Vec] = None
    d2: InitVar[str] = "check"
    checked = False                 # not a field: set once d^2 = 0 is known

    def __post_init__(self, d2: str):
        if d2 not in ("check", "proved", "unchecked"):
            raise ValueError(f"unknown d^2 mode {d2!r}")
        if len(self.dims) != len(self.diffs) + 1:
            raise ValueError("need one differential per adjacent pair of degrees")
        for n, d in enumerate(self.diffs):
            if (d.cols, d.rows) != (self.dims[n], self.dims[n + 1]):
                raise ValueError(f"differential {n} has the wrong shape")
        for n in range(len(self.diffs) - 1):
            pair = [self.diffs[n + 1], self.diffs[n]]
            if d2 == "check" and identity_defect_witness(self.field, [(1, pair)]) is not None:
                raise ValueError(f"d^2 != 0 at degree {n}")
        self.checked = d2 != "unchecked"

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
    known from construction, so rank d_(n-1) + rank d_n <= dims[n]: a
    negative dimension is an internal error (``RuntimeError``).

    On a cobar complex (``basepoint`` set) the ranks are taken on the
    normalized complex, of dimension (cd - 1)^n * xd in degree n
    (``_quotients``; Ravenel, *Complex Cobordism and Stable Homotopy Groups
    of Spheres*, A1.2.11-12), and the dimensions are those of the full
    complex.

    Each rank but the first skips the columns that the image of the
    differential below already spans.  Let U = im d_(n-1) in k^(dims[n]).
    ``Matrix.rank`` of d_(n-1) hands back the leads L of its pivots, which
    span U: the leads are distinct, and each pivot is 0 above its lead.
    Ordered by lead, the pivots' rows at L form a triangular matrix with a
    nonzero diagonal, so the projection onto the coordinates L is
    injective on U.  Then U meets k^(L^c) in 0, and dim U = |L|, so
    k^(dims[n]) = U (+) k^(L^c).  d_n d_(n-1) = 0 puts U in ker d_n, so
    d_n(k^(dims[n])) = d_n(k^(L^c)): rank d_n = rank d_n[:, L^c], and the
    leads of the restricted elimination serve the degree above in turn.
    ``Matrix.rank`` takes L^c as its column mask, the set of columns its
    elimination works on in the matrix's own CSC arrays, so no restricted
    or masked copy is built; a quotient of ``quotient_complex`` above
    degree 2 is born column-major, so those arrays are its only copy, and
    its CSR is never built.  The argument needs d^2 = 0, so only a complex
    on which it is known (``checked``: multiplied out at construction, or
    proved by the builder) is ranked this way; any other is ranked on its
    full matrices, where a negative dimension still shows.

    The top of a graded quotient complex, a ``ChunkedDifferential``, is
    ranked one chunk at a time, and each chunk is dropped once ranked.  Its
    chunks partition its columns into runs of whole weights, each chunk
    with every row, and d_n is block diagonal over weights
    (``quotient_complex``): columns of different chunks have their entries
    in disjoint sets of rows, those of their weights.  So d_n[:, L^c] is
    block diagonal over the chunks as well, and the rank of a block
    diagonal matrix is the sum of its blocks' ranks: rank d_n[:, L^c] is
    the sum of the chunks' ranks, each on its slice of L^c.  Leads stay in
    their weight, as a chunk's pivots live in its rows, so the chunks'
    leads together would serve the degree above as one elimination's do;
    the top has no degree above, and none is kept.  Splitting the columns
    changes neither d^2 = 0 nor closedness, which are the complex's.

    It takes over the complex its caller hands it: its own reference is
    dropped once the differentials to rank are in hand, and each of them is
    let go once it is ranked.  So when the caller keeps no reference (as
    ``cli.cmd_homology`` does), the full differentials of a cobar complex
    are freed before the first rank, and no differential outlives its
    rank."""
    top = cx.max_degree if max_degree is None else min(max_degree, cx.max_degree)
    plain = cx.basepoint is None or not (top and cx.dims[0])
    restrict = cx.checked
    dims, diffs = (cx.dims, cx.diffs[:top]) if plain else _quotients(
        cx.basepoint, cx.field, cx.dims[1] // cx.dims[0], cx.dims[0], cx.diffs[:top])
    del cx
    entries = []
    prev_rank, spanned = 0, None
    for n in range(len(diffs)):
        d, diffs[n] = diffs[n], None
        if isinstance(d, Matrix):
            r, leads = d.rank(leads=True, cols=None if spanned is None else ~spanned)
        else:
            r, leads = 0, None
            for at, chunk in d.chunks():
                r += chunk.rank(cols=None if spanned is None else ~spanned[at:at + chunk.cols])
                del chunk
        h = (dims[n] - r) - prev_rank
        if h < 0:
            raise RuntimeError("negative homology dimension although d^2 = 0")
        entries.append((n, h))
        prev_rank, spanned = r, leads if restrict else None
    return HomologyTable(entries)


def _quotients(g: Vec, f: Field, cd: int, xd: int, diffs: List[Matrix],
               first: int = 0) -> Tuple[List[int], List[Matrix]]:
    """The dimensions of degrees 0 .. first + len(diffs) and the quotient
    differentials of ``diffs``, the differentials d_first, d_(first+1), ..
    of a complex on C^n (x) X (dim C = cd, dim X = xd) with the grouplike
    basepoint g of C, by the subcomplex of the tensors with a leg g.

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
    it is an internal error (``RuntimeError``) that names the degree n.
    The check and the quotient come from one mask pass over each
    differential (``submatrix`` with ``closed``); has_g[n][i] says whether
    index i of C^n (x) X has a leg j0."""
    j0, top = min(g), first + len(diffs)
    has_g = [np.repeat(m, xd) for m in accumulate(range(top), lambda h, _: (
        (np.arange(cd) == j0)[:, None] | h).ravel(), initial=np.zeros(1, dtype=bool))]
    if g != {j0: f.one()}:
        M = Matrix.from_columns([g if j == j0 else {j: f.one()} for j in range(cd)], cd, f)
        lift, proj = (list(accumulate([A] * top, lambda P, A: A.kron(P),
                                      initial=Matrix.identity(xd, f))) for A in (M, M.inverse()))
        diffs = [proj[n + 1] @ d @ lift[n] for n, d in enumerate(diffs, first)]
    quotients = []
    for n, d in enumerate(diffs, first):
        try:
            quotients.append(d.submatrix(~has_g[n + 1], ~has_g[n], closed=True))
        except ValueError:
            raise RuntimeError("tensors with a basepoint leg are not a subcomplex"
                               f" at degree {n}") from None
    return [int((~m).sum()) for m in has_g], quotients


def quotient_complex(calc, X: Optional[ModComod],
                     max_degree: Optional[int] = None) -> ChainComplex:
    """The normalized complex C-bar^n (x) X, C-bar = C/k.g, of the
    calculus-side complex ``calculus_complex(calc, X)`` up to ``max_degree``,
    built by its own recursion from the first three full differentials d_0,
    d_1 and d_2 and xd = dim X: D_0, D_1 and D_2 with xd = dim B for the bare
    calculus (X None), d_X^0, d_X^1 and d_X^2 with xd = dim X for the
    coefficient complex of X.  No degree above 2 is built in full, and
    above degree 3 the top quotient is not held whole: it is a
    ``ChunkedDifferential`` (rows, cols, chunks), whose ``chunks()`` builds
    it anew one chunk at a time.  The complex holds the quotients of
    ``_quotients``, each degree from 2 on in its weight order (below),
    takes d^2 = 0 on them from the proof below rather than multiplying it
    out, and carries no basepoint, so ``homology_dims`` ranks it as it is.
    Its homology is that of the full complex.

    Both complexes obey one recursion for n >= 1,

        d_n = E (x) I_(C^(n-1) (x) X) - I_C (x) d_(n-1),

    D_n by the ``calculus`` module docstring (X = B), and d_X^n by that of
    ``connections.coefficient_complex``.  Everything below uses that and
    nothing else of either complex.

    *The recursion.*  Write every matrix in the basis of ``_quotients``,
    that is conjugated by M when g is not a basis vector: then g = e_j0,
    and the conjugate of d_n = E (x) I - I_C (x) d_(n-1) is
    E' (x) I - I_C (x) d'_(n-1), with E' the conjugate of E, as
    ((M^-1)^(x)(n+1) (x) I_X) (E (x) I) (M^(x)n (x) I_X)
    = (M^-1 (x) M^-1) E M (x) I.  The quotient keeps the coordinates with
    no leg j0, one mask per C leg, and a mask per leg passes through a
    Kronecker product: (A (x) B)[R1 x R2, C1 x C2] = A[R1, C1] (x) B[R2, C2].
    So

        d-bar_n = E-bar (x) I - I_(C-bar) (x) d-bar_(n-1),
        E-bar = E'[C-bar (x) C-bar, C-bar],

    at (cd - 1)/cd of the size per leg.  d_0, d_1 and d_2 are masked
    (``_quotients``); the recursion starts at d-bar_2.

    *The grading* (Ravenel, *Complex Cobordism and Stable Homotopy Groups
    of Spheres*, A1.2, where cobar complexes of graded comodules split by
    internal degree; Bruner, "Calculation of large Ext modules", 1989,
    which computes Ext one internal degree at a time).  Give each basis
    vector a of C-bar an integer weight w(a), each basis vector x of X a
    weight v(x), and the tensor a_1 (x) .. (x) a_n (x) x the weight
    w(a_1) + .. + w(a_n) + v(x).  A matrix between two such spaces is
    homogeneous when each nonzero entry joins a row and a column of one
    weight; each entry of E-bar and of d-bar_2 asks one linear condition of
    (w, v), its row's legs minus its column's, and ``grading`` takes (w, v)
    in the integer kernel of them all.  The recursion reads E-bar and
    d-bar_2 and nothing else, so every d-bar_n with n >= 2 is homogeneous,
    by induction: an entry of E-bar (x) I joins the row (a, b, t) and the
    column (e, t) with w(a) + w(b) = w(e), and an entry of
    I_(C-bar) (x) d-bar_(n-1) joins (a, s) and (a, t) with s and t of one
    weight.  The conditions come from every entry that is built, a
    corrupted one included, so no homogeneity is checked.  So d-bar_n maps
    the tensors of weight w of degree n into those of weight w of degree
    n + 1, and once each degree is sorted by weight it is block diagonal.
    With every weight 0 it is one block, the whole-matrix recursion's
    arithmetic; on k[G], E-bar(g) = g (x) g, so w = 0 on C-bar and the
    blocks are those of the weights of X.

    *The order.*  Degrees 2 and 3 are sorted stably by weight, which
    permutes the rows of d-bar_1 and both sides of d-bar_2; degrees 0 and 1
    keep their order, as nothing graded reads them.  The sort is an index
    map, not a product with permutation matrices: the rows of d-bar_1 and
    of d-bar_2 are gathered in weight order, the columns of d-bar_2 renamed
    to their places, and one transpose sorts each column and leaves both
    born column-major.  A stable sort of the flat indices orders the
    tensors of weight w of degree n by their first leg a, then by the rest:
    B_n(w) is the union over a of {a} (x) B_(n-1)(w - w(a)), in that order.
    The degrees above are built in that order.  So a table per degree of
    where each weight starts, and where its a-part starts within it,
    places every tensor, and nothing of the size of a degree above 3 is
    made to order it (``_graded``).

    *The blocks.*  The columns of weight w of d-bar_n are e (x) t, over
    the legs e and then the columns t of weight w - w(e) of degree n - 1.
    E-bar (x) I puts each entry E-bar[(a, b), e] at the row (a, b, t): a
    shifted identity of the size of B_(n-1)(w - w(e)) per entry of E-bar.
    I_(C-bar) (x) d-bar_(n-1) puts column t of d-bar_(n-1), whose rows s
    lie in B_n(w - w(e)), at the rows (e, s): its blocks at the weights
    w - w(e), one per e, on the diagonal.  Both are read off the tables and
    the CSC arrays of d-bar_(n-1), and each column's rows come sorted, as
    the a-parts follow a and E-bar's entries (a, b); one merge of their
    transposes (``csr_minus_csr``) sums them into the canonical CSC arrays
    the rank reads, and the block is born column-major on them
    (``Matrix._of_csc``), its CSR never built.  The weights are packed into
    runs of consecutive weights of about ``_BLOCK`` entries with the two
    parts they are summed from, by a bound read off E-bar's column counts
    and d-bar_(n-1)'s pointers; a small degree is one run.  d-bar_3 ..
    d-bar_(top-2), which the recursion reads whole, are written run after
    run into one set of arrays sized by that bound and trimmed once; the
    top's chunks are its runs, each chunk every row and its run's columns,
    and ``homology_dims`` ranks them one at a time.  So the top is never
    held whole, and no d-bar_n above degree 2 is held twice.

    *Closedness.*  The quotient of a d_n is a quotient map only when d_n
    has no entry in a kept row and a dropped column.  For d_0, d_1 and d_2
    the mask pass checks it.  For n >= 3 it follows by induction.  A kept
    row of d_n is (a, b, w) with a, b != j0 and w a kept index of degree
    n - 1.  The term E' (x) I has entries only at columns (c, w), and such
    a column is dropped only at c = j0; E'[(a, b), j0] = 0, since
    E(g) = Delta(g) - 2 g (x) g = -g (x) g, so E' e_j0 = -e_j0 (x) e_j0.
    The term I_C (x) d'_(n-1) keeps the leg a != j0, so it meets a dropped
    column only through d'_(n-1)[kept, dropped] = 0.  The same two terms
    show that a d_2 built from d_1 is closed exactly when d_1 is and
    E'[C-bar (x) C-bar, j0] = 0 (when cd >= 2; for cd = 1 every quotient
    above degree 0 is 0 x 0).  So the mask pass over E-bar, which checks
    that, cannot fail once d_2's has passed.

    *d^2 = 0 on the full complex.*  For n >= 1, d_(n+1) and d_n both come
    from the recursion, and multiplying out d_(n+1) d_n the two
    E (x) d_(n-1) terms cancel:

        d^2[n] = d_(n+1) d_n = Z (x) I + I_C (x) d^2[n-1],
        Z = (E (x) I_C - I_C (x) E) E.

    For n >= 2 that holds whatever d_1 is, as d_2 is built from it, so
    also when the calculus's cache holds a D_1 corrupted by hand.

    So d^2[n] = 0 for every n >= 2 exactly when d^2[1] = 0 and Z = 0, and
    the first failing degree is 2 when d^2[1] = 0 and Z != 0.  d^2[0] and
    d^2[1] are computed on d_0, d_1 and d_2, by the constructor of the
    complex of degree 3 that ``calculus_complex`` builds, so they hold for
    whatever D_0, D_1 and E the calculus's cache holds; Z, a cd^3 x cd
    matrix, is computed when there is a d^2[2].  These small identities
    stand for the d^2 checks of the full complex, in the same order and
    with the same ``ValueError``, and they come before the closedness
    checks, as when the full complex was built first.  A D_n with n >= 2
    corrupted in the cache by hand is not seen by them, as in
    ``verify_dga``.

    *d^2 = 0 on the quotient.*  Each d-bar_n is the quotient of d_n (the
    recursion above), and each d_n is closed, so the quotient maps q_n
    form a chain map: d-bar_n q_n = q_(n+1) d_n.  Then d-bar_(n+1) d-bar_n
    q_n = q_(n+2) d_(n+1) d_n = 0, and q_n is onto, so d-bar_(n+1)
    d-bar_n = 0.  Sorting a degree by weight is a change of its basis,
    P_(n+1) d-bar_n P_n^-1, which keeps d^2 = 0, every rank and, with the
    closedness above, the homology.  The weight order does not change the
    recursion's entries, only where they lie, so the closedness argument
    holds as it is.  The complex is built with ``d2="proved"``: marked
    checked, which the restricted ranks of ``homology_dims`` need, with no
    product multiplied out.  A tests-only oracle multiplies every pair out.

    A bare complex's D_0, D_1 and D_2 stay in the calculus's cache: a
    caller that ranks the complex without the calculus beside it drops
    ``calc`` first.  A coefficient complex's d_X^0, d_X^1 and d_X^2 are let
    go before the recursion runs."""
    top = calc.max_degree if max_degree is None else max_degree
    low = calculus_complex(calc, X, min(top, 3))
    f, cd, xd, g = calc.field, calc.cdim, low.dims[0], low.basepoint
    E, eye_c = calc._reduced_comul_matrix(), Matrix.identity(cd, f)
    # Z stands for d^2 at every degree >= 2
    if top > 3 and identity_defect_witness(
            f, [(1, [(E, eye_c), E]), (-1, [(eye_c, E), E])]) is not None:
        raise ValueError("d^2 != 0 at degree 2")
    quotients = _quotients(g, f, cd, xd, low.diffs)[1]
    del low
    dims = [(cd - 1) ** n * xd for n in range(top + 1)]
    return ChainComplex(f, dims, quotients if top <= 3 else _graded(
        _quotients(g, f, cd, 1, [E], first=1)[1][0], quotients, dims), d2="proved")


ChunkedDifferential = NamedTuple("ChunkedDifferential",
                                 [("rows", int), ("cols", int), ("chunks", object)])


def grading(e_bar: Matrix, d2: Matrix, xd: int, top: int) -> Tuple[np.ndarray, np.ndarray]:
    """One integer weight per basis vector of C-bar and of X, (w, v), such
    that every nonzero entry of ``e_bar`` and of ``d2`` joins tensors of one
    weight (``quotient_complex``), tensors of degree up to ``top``.

    An entry's leg pattern counts its row's legs minus its column's, one
    coordinate per basis vector of C-bar and then of X (an X leg has sign
    +-2 in ``sign``); the weights must be 0 on every pattern.  K has a row
    per distinct pattern, told apart by its counts read as balanced base-8
    digits, exact in int64 up to 20 coordinates and in Python ints above.
    The kernel of K is read off the package's own elimination of [K; I],
    as ``Matrix.inverse`` reads an inverse off [A; I]: ``_echelon``, the
    forward elimination that ``column_echelon`` starts from, is enough.
    The columns of [K; I] are independent, so there are dim C-bar + xd
    pivots.  A pivot is 0 above its lead, so one whose lead lies in I is
    (0, y) with Ky = 0.  The pivots with a lead in K have distinct leads
    there, so their parts on K are independent, and there are at most
    rank K of them.  So at least the kernel's dimension of pivots have their
    lead in I: independent, they are a basis of it, of integers, as the
    elimination is fraction free, and two tensors have one weight under
    every kernel vector exactly when they have under these.

    The kernel's columns are taken in a mixed radix.  A tensor of degree at
    most top has at most top + 1 legs, so coordinate k of its weight vector
    lies within (top + 1) max|column k| of 0, a range of width
    2 (top + 1) max|column k| + 1, and with the product of the widths
    before it as column k's radix, no two weight vectors of such tensors
    meet, and every weight lies below 2^61.  A column that would take the
    radix to 2^62 is left out with those after it, which coarsens the
    grading: a coarser grading is still one."""
    c, key, val, m = e_bar.cols, [], [], 0
    digit = np.array([8 ** j for j in range(c + xd)], dtype=np.int64 if c + xd <= 20 else object)
    for d, sign in ((e_bar, np.array([1, 1, -1])), (d2, np.array([1, 1, 1, 2, -1, -1, -2]))):
        x = abs(sign) == 2
        at = np.array(np.unravel_index(d._entry_rows() * d.cols + d._csr[1], np.where(x, xd, c)))
        at += c * x[:, None]
        at = at[:, np.unique(np.sign(sign) @ digit[at], return_index=True)[1]]
        key.append(((m + np.arange(at.shape[1])) * (c + xd) + at).ravel())
        val.append(np.sign(sign).repeat(at.shape[1]))
        m += at.shape[1]
    key.append(np.arange(c + xd) * (c + xd + 1) + m * (c + xd))
    lead, start, length, take = _echelon(Matrix._of_entries(
        m + c + xd, c + xd, QQ, np.concatenate(key), np.concatenate(val + [np.ones(c + xd, int)])))
    row, val = take(_spans(start[lead >= m], length[lead >= m]))
    W = np.zeros((c + xd, int((lead >= m).sum())), dtype=object)
    W[row - m, np.arange(W.shape[1]).repeat(length[lead >= m])] = val
    width = 2 * (top + 1) * abs(W).max(0, initial=0) + 1
    radix = np.cumprod(np.append(1, width))
    kappa = W[:, radix[1:] < _INT64_SAFE] @ radix[:-1][radix[1:] < _INT64_SAFE]
    return kappa[:c].astype(np.int64), kappa[c:].astype(np.int64)


def _graded(e_bar: Matrix, quotients: List[Matrix], dims: List[int]) -> list:
    """The quotients d-bar_0 .. d-bar_(top-1) of ``quotient_complex``,
    from its masked d-bar_0, d-bar_1 and d-bar_2 (``quotients``) and
    E-bar, in the weight-ordered bases, the top a ``ChunkedDifferential``.

    The weights of every degree up to top are sorted in ``keys``, a weight
    g named by its place there, and G stands for one that does not occur,
    with no tensor of it in any degree.  below[g, a] is the weight
    g - w(a), or G.  Per degree, offs[n][g] is where the tensors of weight
    g start and sub[n][g, a] where their a-part, the tensors a (x) t,
    starts.  ``np.unique`` is asked for its indices, which keeps it off the
    masked-array check whose first call imports ``numpy.ma`` (~15 ms)."""
    f, c, top = e_bar.field, e_bar.cols, len(dims) - 1
    wc, wx = grading(e_bar, quotients[2], dims[0], top)

    def reordered(m, rows, cols):
        """``m`` with its row rows[i] as row i and its column j at cols[j],
        born column-major: the rows are gathered and their columns renamed,
        and the one transpose sorts them."""
        (ptr, idx, val), cnt = m._csr, np.diff(m._csr[0])[rows]
        at = _spans(ptr[rows], cnt)
        return Matrix._of_csc(m.rows, m.cols, f, _transposed(
            m.rows, m.cols, np.append(0, cnt.cumsum()), cols[idx[at]], val[at]))
    w2 = (wc[:, None] + (wc[:, None] + wx).ravel()).ravel()
    o2 = np.argsort(w2, kind="stable")
    quotients[1:3] = reordered(quotients[1], o2, np.arange(dims[1])), reordered(
        quotients[2], np.argsort((wc[:, None] + w2).ravel(), kind="stable"), np.argsort(o2))
    keys = list(accumulate(range(top), lambda k, _: np.unique(
        k[:, None] + np.append(0, wc), return_index=True)[0], initial=wx))[-1]
    G = len(keys)
    at = np.minimum(np.searchsorted(keys, keys[:, None] - wc), G - 1)
    below = np.vstack((np.where(keys[at] == keys[:, None] - wc, at, G), np.full((1, c), G)))
    cnt = [np.bincount(np.searchsorted(keys, wx), minlength=G + 1)]
    offs, sub = [np.append(0, cnt[0].cumsum())], [None]
    for n in range(1, top + 1):
        part = cnt[-1][below]
        cnt.append(part.sum(1))
        offs.append(np.append(0, cnt[-1].cumsum()))
        sub.append(offs[-1][:-1, None] + part.cumsum(1) - part)
    (e_ptr, e_row, e_val), e_cnt = e_bar._csc_arrays(), np.diff(e_bar._csc_arrays()[0])
    ea, eb = np.divmod(e_row, c)

    def runs(n, m):
        """The CSC arrays of d-bar_(n-1) = ``m``, whether every sum of
        d-bar_n stays within the int64 bound of ``_combine``, and est[g], the
        entries of E-bar (x) I and of I (x) d-bar_(n-1) that the columns of
        weight g of d-bar_n read, a bound on their entries; and the runs
        (g0, g1) of weights packed to about ``_BLOCK`` of those each."""
        ptr, row, v = m._csc_arrays()
        fast = v.dtype == e_val.dtype == np.int64 and e_bar._max_abs() + (
            f.char - 1 if f.char else int(abs(v).max(initial=0))) < _INT64_SAFE
        est = (cnt[n - 1][below] * e_cnt + np.diff(ptr[offs[n - 1]])[below]).sum(1)
        starts = np.flatnonzero(np.diff((est.cumsum() - est) // (_BLOCK // 2), prepend=-1))
        return (ptr, row, v, fast, est), list(zip(starts, np.append(starts[1:], G + 1)))

    def built(n, low, every):
        """The columns of the weights of the runs ``every`` of d-bar_n,
        column-major, written run after run into one set of arrays sized by
        ``est`` and trimmed once, so that no second copy is made.

        Per weight i and leg e of C-bar (the pair (i, e) a segment) the
        columns are e (x) t, t the L columns of degree n - 1 of the weight
        below, from F on, col their numbers there.  E-bar (x) I puts entry
        (a, b) of column e of E-bar at the row (a, b, t), R[i, (a, b)] + t,
        and I (x) d-bar_(n-1) column t of d-bar_(n-1) at its rows moved into
        the e-part: the L columns of one segment are one run, k, of
        d-bar_(n-1)'s storage.  When ``fast`` the two sides are merged by
        ``csr_minus_csr`` straight into the arrays, so no run's result is
        copied.  Over F_p both sides lie in [0, p), so a difference is 0 mod
        p only where it is 0, and the routine drops those
        (``kron_minus_blocks``); the values left lie in (-p, p), and adding p
        to the negative ones of each run, by their sign bit, reduces them
        mod p with no division, no zero added and no ``eliminate_zeros``
        pass.  Otherwise ``Matrix`` subtraction sums them on the exact path,
        into objects that ``_field_values`` types at the end as every exact
        result is typed (int64 wherever the values allow).  Each run's
        pointers are written from the place where the last run's ended,
        shifted by the entries before it."""
        (pptr, prow, pval, fast, est), (g0, g1) = low, (every[0][0], every[-1][1])
        ptr = np.empty(offs[n][g1] - offs[n][g0] + 1, dtype=np.int64)
        idx, at = np.empty(int(est[g0:g1].sum()), dtype=np.int64), 0
        val = np.empty(len(idx), dtype=np.int64 if fast else object)
        for h0, h1 in every:
            B, out = below[h0:h1], ptr[offs[n][h0] - offs[n][g0]:offs[n][h1] - offs[n][g0] + 1]
            L, F = cnt[n - 1][B].ravel(), offs[n - 1][B].ravel()
            seg, col = np.arange(len(L)).repeat(L), _spans(F, L)
            t, m, s0, s1 = col - F[seg], np.tile(e_cnt, h1 - h0)[seg], pptr[F], pptr[F + L]
            R = sub[n + 1][h0:h1, ea] + (sub[n] - offs[n][:-1, None])[B[:, ea], eb]
            q = _spans((np.arange(h1 - h0)[:, None] * len(ea) + e_ptr[:-1]).ravel()[seg], m)
            k = _spans(s0, s1 - s0)
            sides = [(np.append(0, m.cumsum()), R.ravel()[q] + t.repeat(m),
                      np.tile(e_val, h1 - h0)[q]),
                     (np.append(0, (pptr[col + 1] - pptr[col]).cumsum()),
                      prow[k] + (sub[n + 1][h0:h1] - offs[n][B]).ravel().repeat(s1 - s0), pval[k])]
            del q, k
            if fast:
                _sparsetools.csr_minus_csr(len(col), dims[n + 1], *sides[0], *sides[1], out,
                                           idx[at:], val[at:])
                if f.char:
                    val[at:at + out[-1]] += (val[at:at + out[-1]] >> 63) & f.char
            else:
                d = (Matrix._of_csr(len(col), dims[n + 1], f, sides[0])
                     - Matrix._of_csr(len(col), dims[n + 1], f, sides[1]))._csr
                out[:], idx[at:at + len(d[1])], val[at:at + len(d[1])] = d
            out += at
            at = int(out[-1])
        if not fast:
            val = _field_values(f, val[:at])
        return Matrix._of_csc(dims[n + 1], len(ptr) - 1, f, _trimmed(ptr, idx, val))

    for n in range(3, top):
        low, every = runs(n, quotients[-1])
        quotients.append(built(n, low, every) if n < top - 1 else ChunkedDifferential(
            dims[top], dims[top - 1], lambda: ((int(offs[top - 1][r[0]]), built(top - 1, low, [r]))
                                               for r in every)))
    return quotients


def cobar_complex(C: BimoduleCoalgebra, X: ModComod,
                  max_degree: int = 3, check: bool = True) -> ChainComplex:
    """The unreduced two-sided cobar complex B(k, C, X): degree n space
    C^n (x) X, with k a C-comodule through the grouplike basepoint I and X
    through its (coassociative) coaction.  Its differential is the closed
    sum

        d_n = -(g (x) I) + sum_(j<n) (-1)^j I_(C^j) (x) Delta (x) I
              + (-1)^n I_(C^n) (x) rho

    with g = ``C.grouplike``, Delta = ``C.comul`` and rho =
    ``coaction_matrix(X)``, built once per comodule: on every
    ``compare_cotor`` path the coassociativity check or the flatness check
    before it has built it already.  It reads only the coproduct, the
    basepoint and the coaction: no calculus, and no recursion in n.

    Each d_n is summed in one pass (``kron_sum``): the entries of its
    n + 2 terms are listed in one set of index arrays and compressed once,
    so no term is built as a matrix and no partial sum is reread.  A term
    has at most one entry at any place, so every entry of d_n is at most
    max|g| + n max|Delta| + max|rho| in absolute value, (n + 2)(p - 1) over
    F_p; the sums are int64 while that bound stays below 2^62, and exact
    (``Matrix._of_entries``) otherwise.  The sum is the closed formula read
    term by term, not the recursion d_n = E (x) I - I_C (x) d_(n-1) that
    the calculus side runs, so the oracle still shares no construction with
    the complexes it checks: only the listing and compressing of entries,
    which knows nothing of either.

    A Hopf algebra H passed for C stands for
    ``BimoduleCoalgebra.from_hopf(H)``, as ``verdictbench/tables.py``
    passes it.  The coaction's coassociativity is checked first, and
    d^2 = 0 at construction, unless ``check`` is false: ``compare_cotor``,
    which checks each only where it can matter.
    """
    if isinstance(C, HopfAlgebra):
        C = BimoduleCoalgebra.from_hopf(C)
    cd, f, g, delta = C.dim, C.field, C.grouplike, C.comul
    if X.coaction is None:
        raise ValueError("comodule has no coaction")
    if check and coassociativity_defects(X):
        raise ValueError("coaction is not coassociative")
    rho = coaction_matrix(X)
    dims = [cd ** n * X.dim for n in range(max_degree + 1)]
    diffs = [kron_sum([(-1, 1, g, dims[n])] + [((-1) ** j, cd ** j, delta, dims[n - 1 - j])
                                               for j in range(n)] + [((-1) ** n, cd ** n, rho, 1)],
                      dims[n + 1], dims[n], f) for n in range(max_degree)]
    return ChainComplex(f, dims, diffs, g.columns()[0], "check" if check else "unchecked")


def _basepoint_coadjoint(calc) -> ModComod:
    """The comodule structure on B itself whose cobar complex matches the
    bare calculus: rho(b) = alpha(b_(1)) . I . beta(b_(3)) (x) b_(2), that is

        rho = (W (x) I_B) (I_B (x) flip_(B,B)) (I_B (x) Delta) Delta,

    with W = R (L (alpha (x) g) (x) beta): C <- B (x) B the wrap of the
    outer legs around the basepoint, L and R the actions of B on C
    (``C.left``, ``C.right``) and g the basepoint I as a C x 1 column.  For
    K and K-hat, C = B = H and W = mu (I_B (x) S^-1), resp. mu (I_B (x) S).

    It is built from the structure matrices and maps alone, never from the
    calculus's sandwich matrix, products or differentials: T (I_B (x) g),
    the first term of D_0, is this same matrix, so reading it would make
    the cobar oracle of ``compare_cotor`` check the calculus against
    itself."""
    B, C, f, bd = calc.B, calc.C, calc.field, calc.B.dim
    eye = Matrix.identity(bd, f)
    W = C.right @ (C.left @ calc.alpha.matrix.kron(C.grouplike)).kron(calc.beta.matrix)
    delta = B.comul_matrix()
    rho = W.kron(eye) @ eye.kron(Matrix.flip(bd, bd, f)) @ eye.kron(delta) @ delta
    return ModComod(B, bd, None, rho.columns(), coalgebra=C, label="basepoint-coadjoint")


def calculus_complex(calc, X: Optional[ModComod],
                     max_degree: Optional[int] = None) -> ChainComplex:
    """The calculus-side complex: with X None the calculus itself (degree n
    space C^n (x) B), with X given the coefficient complex of the flat
    connection of its coaction.  Either is a cobar complex with the
    basepoint of C, and carries it: the calculus itself by the paper's
    theorem, on an algebra that passed the Hopf axioms as every CLI input
    has, and the coefficient complex because it exists only for a flat,
    that is coassociative, coaction.

    The complex here is the full one, which ``compare_cotor`` compares
    entry by entry with the oracle; a verdict without the oracle ranks
    ``quotient_complex``, which builds no full differential above degree
    2.  The full bare complex shares its differentials with ``calc``, whose
    cache then holds every D_n: a caller that ranks the complex without the
    calculus beside it drops ``calc`` first.  The coefficient complex's
    d_X^n are its own, and the cache holds only D_0 of them."""
    from .connections import coefficient_complex, connection_from_coaction

    max_degree = calc.max_degree if max_degree is None else max_degree
    cx = (ChainComplex(calc.field, [calc.degree_dim(n) for n in range(max_degree + 1)],
                       [calc.differential(n) for n in range(max_degree)]) if X is None
          else coefficient_complex(connection_from_coaction(calc, X), max_degree))
    cx.basepoint = calc.C.grouplike.columns()[0]
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

    The calculus side is checked (d^2 = 0) at construction.  The oracle is
    built unchecked, and checked only when some differential differs: when
    every one matches, its d^2 is the calculus side's, which has passed, and
    the checked side is ranked in its place.  A d^2 failure of the oracle
    therefore needs a differing differential, and it raises the same
    ``ValueError`` before any report exists, as a check at construction
    would.  The coaction is checked for coassociativity once: a given X by
    the calculus side, whose coefficient complex exists only for a flat
    connection, and ``curvature`` is the coassociativity defect of X's
    coaction, so a defect raises "connection is not flat" there first; the
    basepoint-coadjoint comodule, which nothing else checks, here.
    """
    max_degree = calc.max_degree if max_degree is None else max_degree
    rep = Report()
    side = calculus_complex(calc, X, max_degree)
    if X is None:
        X = _basepoint_coadjoint(calc)
        if coassociativity_defects(X):
            raise ValueError("coaction is not coassociative")
    oracle = cobar_complex(calc.C, X, max_degree, check=False)

    equal = side.dims == oracle.dims
    rep.add("degree_dims_equal", equal, {"calculus": side.dims, "cobar": oracle.dims})
    f = calc.field
    for n in range(max_degree):
        if side.diffs[n] == oracle.diffs[n]:
            rep.add(f"differential_equal[{n}]", True)
            continue
        equal = False
        side.basepoint = None   # the side is ranked on its full matrices
        # an entry read from int64 CSR is an int; over Q it prints as the
        # Fraction it stands for
        i, j, v = (side.diffs[n] - oracle.diffs[n]).nonzero_witness()
        rep.add(f"differential_equal[{n}]", False,
                {"degree": n, "entry": (i, j, f.of(v))})
    if equal:
        del oracle
        ho = hs = homology_dims(side, max_degree)
    else:
        ho = homology_dims(ChainComplex(f, oracle.dims, oracle.diffs, oracle.basepoint),
                           max_degree)
        hs = homology_dims(side, max_degree)
    rep.add(f"homology_dims={hs.dims()}", hs.dims() == ho.dims(),
            {"calculus": hs.dims(), "cobar": ho.dims()})
    return rep, hs
