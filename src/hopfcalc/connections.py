"""Connections on modules over the differential calculi.

A connection is a linear map nabla: X -> C (x) X, using the identification
of Omega^1 (x)_B X with C (x) X that sends (c (x) b) (x) x to c (x) bx.
Coactions and connections determine each other through

    nabla(x) = rho(x) - I (x) x,

and the compatibility conditions of modules.py translate exactly into the
Leibniz property of nabla, flatness into coassociativity; the defect
tensors agree entry for entry, which the test suite pins down.

B acts on Omega^n (x)_B X = C^n (x) X by left multiplication by
Omega^0 = B in the calculus, read through the action: that is the
sandwich action M_n (``sandwich_action``), the one construction of it,
built from the calculus's sandwich matrix T alone.  The Leibniz check of
a connection, the degree-0 differential of the coefficient complex of a
flat one, and the DG-module check are products of calculus matrices, D_0
and M_n, with the action and nabla; every higher coefficient differential,
the one behind the curvature included, is one step of the recursion of
D_n on the calculus's E (``coefficient_complex``).  The tensor of a
YD-flat with an AYD-flat connection is a product of structure matrices,
the two actions and the two connections (``tensor_connection``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .calculus import Calculus
from .homology import ChainComplex
from .linalg import Matrix, column_witness, kron_minus_blocks
from .modules import (DefectReport, ModComod, action_matrix, coaction_matrix,
                      coassociativity_defects)
from .reports import Report


@dataclass
class Connection:
    """nabla together with the calculus it lives over and the module."""

    calc: Calculus
    X: ModComod
    nabla: Matrix                   # X -> C (x) X
    _m1: Optional[Matrix] = field(default=None, repr=False, compare=False)

    def sandwich_action(self) -> Matrix:
        """M_1 of the calculus on C (x) X (``sandwich_action``), built once
        for the Leibniz check, the curvature and the module's compatibility."""
        if self._m1 is None:
            self._m1 = sandwich_action(self.calc, action_matrix(self.X), 1)
        return self._m1


@dataclass
class Curvature:
    matrix: Matrix                  # X -> C (x) C (x) X
    d0: Optional[Matrix] = None     # d_X^0 and d_X^1 of the direct route,
    d1: Optional[Matrix] = None     # None when nabla = 0

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def witness(self) -> Optional[dict]:
        """The first nonzero column of R, or None."""
        R = self.matrix
        return column_witness(R, Matrix.zero(R.rows, R.cols, R.field), [R.cols])


def _basepoint_term(calc: Calculus, xd: int) -> Matrix:
    """g (x) I_X: x -> I (x) x, with g the basepoint I as a C x 1 column."""
    return calc.C.grouplike.kron(Matrix.identity(xd, calc.field))


def connection_from_coaction(calc: Calculus, X: ModComod) -> Connection:
    """nabla = rho - g (x) I_X, that is nabla(x) = rho(x) - I (x) x; rho
    need not be coassociative."""
    if X.coaction is None:
        raise ValueError("module has no coaction candidate")
    return Connection(calc, X, coaction_matrix(X) - _basepoint_term(calc, X.dim))


def _coaction(conn: Connection) -> Matrix:
    """rho = nabla + g (x) I_X as a matrix."""
    return conn.nabla + _basepoint_term(conn.calc, conn.X.dim)


def coaction_from_connection(conn: Connection) -> ModComod:
    """Inverse direction: rho = nabla + g (x) I_X."""
    out = conn.X.copy_with(coaction=_coaction(conn).columns())
    out.coalgebra = conn.calc.C
    return out


def check_connection(conn: Connection) -> DefectReport:
    """Leibniz property of nabla against the degree-0 differential,
    nabla(bx) = b.nabla(x) + d(b) (x)_B x for every basis pair (b, x),
    as one matrix identity on B (x) X:

        nabla . act = M_1 (I_B (x) nabla) + (I_C (x) act) (D_0 (x) I_X)."""
    calc, X = conn.calc, conn.X
    if X.action is None:
        raise ValueError("connection check needs the module action")
    f, bd, xd = calc.field, calc.B.dim, X.dim
    act = action_matrix(X)
    rhs = (conn.sandwich_action() @ Matrix.identity(bd, f).kron(conn.nabla)
           + Matrix.identity(calc.cdim, f).kron(act)
           @ calc.differential(0).kron(Matrix.identity(xd, f)))
    return DefectReport("connection", conn.nabla @ act, rhs, [bd, xd])


def sandwich_action(calc: Calculus, act: Matrix, n: int) -> Matrix:
    """M_n: C^n (x) X <- B (x) C^n (x) X, the action of B = Omega^0 on
    Omega^n (x)_B X = C^n (x) X by left multiplication in the calculus,
    read through the action ``act``: X <- B (x) X.  With T the sandwich
    matrix of the calculus,

        M_n = (I_(C^n) (x) act) (S_n (x) I_X),
        S_0 = I_B,  S_k = (I_C (x) S_(k-1)) (T (x) I_(C^(k-1))).

    S_n: C^n (x) B <- B (x) C^n is product(0, n) (I_(B (x) C^n) (x) u),
    with u the unit: the A_m recursion of the calculus at w = c (x) 1.  No
    product is built.

    For the S^-1 calculus, b sends c^1 (x) ... (x) c^n (x) x to
    b_(1) c^1 S^-1(b_(2n+1)) (x) ... (x) b_(n+1) x (S for the S calculus),
    the sandwich action of Hajac, Khalkhali, Rangipour and Sommerhaeuser;
    M_0 is ``act`` itself."""
    f, cd = calc.field, calc.cdim
    T = calc._sandwich_matrix()
    S = T if n else Matrix.identity(calc.B.dim, f)      # S_1 = T
    for k in range(2, n + 1):
        S = Matrix.identity(cd, f).kron(S) @ T.kron(Matrix.identity(cd ** (k - 1), f))
    return Matrix.identity(cd ** n, f).kron(act) @ S.kron(Matrix.identity(act.rows, f))


def _leibniz_term(conn: Connection) -> Matrix:
    """K = M_1 (u (x) I_(C (x) X)) nabla: x -> 1 . nabla(x), the term
    (c (x) 1) . nabla(x) of the graded Leibniz rule with its C^n prefix
    dropped."""
    calc = conn.calc
    if conn.nabla.is_zero():        # then K = 0, of nabla's shape, without M_1
        return conn.nabla
    return (conn.sandwich_action()
            @ calc.B.unit_column().kron(Matrix.identity(calc.cdim * conn.X.dim, calc.field))
            @ conn.nabla)


def _coefficient_base(conn: Connection) -> Matrix:
    """d_X^0 = (I_C (x) act) (D_0 u (x) I_X) + K (``coefficient_complex``).
    The recursion above degree 0 needs a unital action, act (u (x) I_X) =
    I_X, so that is checked here, once per complex: a ``ValueError``
    otherwise, as for a connection that is not flat."""
    calc, act = conn.calc, action_matrix(conn.X)
    f, u, eye_x = calc.field, calc.B.unit_column(), Matrix.identity(conn.X.dim, calc.field)
    if act @ u.kron(eye_x) != eye_x:
        raise ValueError("module action is not unital")
    return (Matrix.identity(calc.cdim, f).kron(act) @ (calc.differential(0) @ u).kron(eye_x)
            + _leibniz_term(conn))


def _coefficient_differential(calc: Calculus, below: Matrix) -> Matrix:
    """d_X^n = E (x) I_(C^(n-1) (x) X) - I_C (x) d_X^(n-1) for n >= 1, with
    d_X^(n-1) = ``below`` (``coefficient_complex`` has the proof), built by
    ``kron_minus_blocks`` as D_n is: one run of I_C blocks at a time, from
    the calculus's E and nothing else of it."""
    return kron_minus_blocks(calc._reduced_comul_matrix(),
                             Matrix.identity(below.cols, calc.field), calc.cdim, below)


def curvature(conn: Connection) -> Curvature:
    """R = nabla_hat o nabla, computed two independent ways and asserted
    equal: through the calculus matrices, with nabla_hat the degree-1
    differential of ``coefficient_complex``, and by the closed
    coassociativity formula (Delta_C (x) id) rho - (id (x) rho) rho."""
    calc, X = conn.calc, conn.X
    defects = coassociativity_defects(coaction_from_connection(conn))
    R = Matrix.from_columns([defects.get((a,), {}) for a in range(X.dim)],
                            calc.cdim * calc.cdim * X.dim, calc.field)
    d0 = d1 = None
    if conn.nabla.is_zero():        # then so is the direct route, without d_X^1
        direct = Matrix.zero(R.rows, R.cols, calc.field)
    else:
        d0 = _coefficient_base(conn)
        d1 = _coefficient_differential(calc, d0)
        direct = d1 @ conn.nabla
    if direct != R:
        raise RuntimeError("curvature routes disagree; calculus is inconsistent")
    return Curvature(R, d0, d1)


def is_flat(conn: Connection) -> bool:
    return curvature(conn).is_zero()


def coefficient_complex(conn: Connection, max_degree: Optional[int] = None) -> ChainComplex:
    """The complex on C^n (x) X whose differential is the graded-Leibniz
    extension of the flat connection, built through the matrices of its
    calculus (independently of the cobar construction it is compared against).

    The degree-n representative of c (x) x is (c (x) 1) (x) x, and its image
    d(c (x) 1) (x)_B x + (-1)^n (c (x) 1) . nabla(x) is identified into
    C^(n+1) (x) X by acting with the B slot.  With u the unit as a B x 1
    column, L_n = I_(C^n) (x) u and ``act`` the action X <- B (x) X, that is

        d_X^n = G_n + (-1)^n I_(C^n) (x) K,
        G_n = (I_(C^(n+1)) (x) act) (D_n L_n (x) I_X),
        K = M_1 (u (x) I_(C (x) X)) nabla,

    with M_1 the ``sandwich_action`` of B on C (x) X, because
    product(n, 1) = I_(C^n) (x) product(0, 1).  So d_X^0 = (I_C (x) act)
    (D_0 u (x) I_X) + K (``_coefficient_base``).

    *The recursion.*  For n >= 1,

        d_X^n = E (x) I_(C^(n-1) (x) X) - I_C (x) d_X^(n-1),

    the recursion of D_n itself (``calculus`` module docstring) with X in
    the place of B.  Proof: D_n = E (x) I_(C^(n-1) (x) B) - I_C (x) D_(n-1)
    and L_n = I_C (x) L_(n-1), so by the mixed-product rule
    (A (x) B)(C (x) D) = AC (x) BD (Van Loan, "The ubiquitous Kronecker
    product", J. Comput. Appl. Math. 123, 2000)

        D_n L_n = E (x) L_(n-1) - I_C (x) D_(n-1) L_(n-1).

    Tensor with I_X and apply I_(C^(n+1)) (x) act.  The first term becomes
    E (x) I_(C^(n-1)) (x) act (u (x) I_X) = E (x) I_(C^(n-1) (x) X), as the
    action is unital (act (u (x) I_X) = I_X, checked once by
    ``_coefficient_base``); the second keeps its first C leg, and becomes
    I_C (x) G_(n-1).  So G_n = E (x) I - I_C (x) G_(n-1).  Put
    G_(n-1) = d_X^(n-1) - (-1)^(n-1) I_(C^(n-1)) (x) K in: the term
    I_C (x) (-1)^n I_(C^(n-1)) (x) K that this gives cancels the
    (-1)^n I_(C^n) (x) K of d_X^n, which leaves the recursion.  Neither
    rho nor K enters above degree 0, and no D_n with n > 0, D_n L_n or
    product(n, 1) is built: each d_X^n is one ``kron_minus_blocks`` call
    (``_coefficient_differential``), as each D_n is.  The premise is
    needed: with a non-unital action the first term keeps
    act (u (x) I_X), and the recursion gives another matrix.

    *What the cobar comparison still checks.*  ``compare_cotor`` compares
    these matrices with ``homology.cobar_complex``, whose d_n is one closed
    sum of Kronecker products of Delta_C, g and rho, with no recursion in n.
    ``differential_equal[0]`` is the paper's theorem in degree 0: d_X^0,
    built from D_0, T and the action, against rho - g (x) I.  The higher
    degrees check the recursion on the calculus's E against that closed
    sum, and the oracle is unchanged.  d_X^0 and d_X^1 are read from the
    flatness check's curvature when it built them.

    *d^2 = 0.*  Every d_X^n with n >= 1 comes from the recursion (d_X^1 as
    well, in ``curvature``), so multiplying out d_X^(n+1) d_X^n the two
    E (x) d_X^(n-1) terms cancel, as for D_n (``homology.quotient_complex``):

        d^2[n] = Z (x) I_(C^(n-1) (x) X) + I_C (x) d^2[n-1],  n >= 1,
        Z = (E (x) I_C - I_C (x) E) E.

    So once d^2[0] = 0, d^2[1] = Z (x) I_X, which is 0 exactly when Z is
    (or X is 0), and then d^2[n] = 0 for every n by induction.  Only d^2[0] and
    d^2[1] are multiplied out, by the constructor of the complex of degree
    3; they fail where the check of every pair would first fail, with the
    same ``ValueError``, and the complex is marked proved, so no product of
    two higher differentials is built.
    """
    calc, R = conn.calc, curvature(conn)
    if not R.is_zero():
        raise ValueError("connection is not flat")
    max_degree = calc.max_degree if max_degree is None else max_degree
    dims = [calc.cdim ** n * conn.X.dim for n in range(max_degree + 1)]
    # so that an empty complex builds nothing
    diffs = ([R.d0, R.d1] if R.d0 is not None else [])[:max_degree]
    for n in range(len(diffs), max_degree):
        diffs.append(_coefficient_differential(calc, diffs[-1]) if n else _coefficient_base(conn))
    ChainComplex(calc.field, dims[:4], diffs[:3])
    return ChainComplex(calc.field, dims, diffs, d2="proved")


def tensor_connection(conn_yd: Connection, conn_ayd: Connection) -> Connection:
    """Tensor of a flat connection over the S calculus with a flat one over
    the S^-1 calculus (Hajac, Khalkhali, Rangipour and Sommerhaeuser), on
    X (x) X' over the S^-1 calculus, with the diagonal action
    (act (x) act') (I_H (x) flip_(H,X) (x) I) (Delta (x) I) and the connection
    nabla (x) I + (Sigma (x) I) (I_X (x) nabla'), Sigma the switch

        Sigma = (mu (x) I_X) (I_H (x) flip_(X,H)) (nabla (x) I_H) + flip_(X,H),

    Sigma(x (x) h) = x_{{-1}} h (x) x_{{0}} + h (x) x (double braces: the
    components of nabla).  Its coaction must be the componentwise product
    of the two coactions; a disagreement is an internal error."""
    if conn_yd.calc.kind != "khat" or conn_ayd.calc.kind != "k":
        raise ValueError("expected (S-calculus connection, S^-1-calculus connection)")
    H = conn_yd.calc.B
    if H is not conn_ayd.calc.B:
        raise ValueError("connections live over different algebras")
    if not (is_flat(conn_yd) and is_flat(conn_ayd)):
        raise ValueError("both inputs must be flat")
    f, hd = H.field, H.dim
    X, Xp = conn_yd.X, conn_ayd.X
    dx, dy = X.dim, Xp.dim

    def eye(n):
        return Matrix.identity(n, f)

    act = (action_matrix(X).kron(action_matrix(Xp))
           @ eye(hd).kron(Matrix.flip(hd, dx, f)).kron(eye(dy))
           @ H.comul_matrix().kron(eye(dx * dy)))
    flip_xh = Matrix.flip(dx, hd, f)
    switch = H.mul_matrix().kron(eye(dx)) @ eye(hd).kron(flip_xh) @ conn_yd.nabla.kron(eye(hd))
    nabla = (conn_yd.nabla.kron(eye(dy))
             + (switch + flip_xh).kron(eye(dy)) @ eye(dx).kron(conn_ayd.nabla))

    action = {divmod(j, dx * dy): col for j, col in enumerate(act.columns())}
    Xt = ModComod(H, dx * dy, action, None, label=f"tensor({X.label},{Xp.label})")
    conn = Connection(conn_ayd.calc, Xt, nabla)
    rho = _coaction(conn)
    if rho != (H.mul_matrix().kron(eye(dx * dy)) @ eye(hd).kron(flip_xh).kron(eye(dy))
               @ _coaction(conn_yd).kron(_coaction(conn_ayd))):
        raise RuntimeError("tensor coaction disagrees with the product formula")
    Xt.coaction = rho.columns()
    return conn


def check_dg_module_structure(calc: Calculus, conn: Connection,
                              max_degree: int = 2) -> Report:
    """Over a cocommutative Hopf algebra the coefficient complex of a flat
    connection is a differential graded module for the sandwich action on
    each C^n (x) X: d_n M_n = M_(n+1) (I_B (x) d_n), with a failure
    witnessed at the first basis (b, t) of B (x) C^n (x) X where the
    sides differ.  Over a non-cocommutative algebra the statement does not
    apply and is reported as such."""
    rep = Report()
    H = calc.B
    if calc.kind == "general":
        raise ValueError("DG-module check applies to the Hopf calculi only")
    if not H.is_cocommutative():
        rep.add("dg_module_commutes_with_action", None)
        return rep
    if max_degree + 1 > calc.max_degree:
        raise ValueError("calculus not materialized deep enough")
    f = calc.field
    cx = coefficient_complex(conn, max_degree + 1)
    act = action_matrix(conn.X)
    M = [sandwich_action(calc, act, n) for n in range(max_degree + 2)]
    for n in range(max_degree + 1):
        d = cx.diffs[n]
        w = column_witness(d @ M[n], M[n + 1] @ Matrix.identity(H.dim, f).kron(d),
                           [H.dim, cx.dims[n]])
        if w is not None:
            w["degree"] = n
        rep.add(f"dg_module_degree[{n}]", w is None, w)
    return rep

