"""Connections on modules over the differential calculi.

A connection is a linear map nabla: X -> C (x) X, using the identification
of Omega^1 (x)_B X with C (x) X that sends (c (x) b) (x) x to c (x) bx.
Coactions and connections determine each other through

    nabla(x) = rho(x) - I (x) x,

and the compatibility conditions of modules.py translate exactly into the
Leibniz property of nabla, flatness into coassociativity; the defect
tensors agree entry for entry, which the test suite pins down.  The
coefficient complex of a flat connection is a product of calculus
matrices, D_n and product(0, 1), with the action and nabla
(``coefficient_complex``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .calculus import Calculus
from .homology import ChainComplex
from .linalg import Matrix, Vec, basis_vec, vec_add, vec_sub, vec_tensor
from .modules import (Bimodule, DefectReport, ModComod, b_slot_act,
                      coassociativity_defects, oslash_action, sandwich_act)
from .reports import Report


@dataclass
class Connection:
    """nabla together with the calculus it lives over and the module."""

    calc: Calculus
    X: ModComod
    nabla: Matrix                   # X -> C (x) X

    def apply(self, v: Vec) -> Vec:
        return self.nabla.apply(v)


@dataclass
class Curvature:
    matrix: Matrix                  # X -> C (x) C (x) X

    def is_zero(self) -> bool:
        return self.matrix.is_zero()


def identify(calc: Calculus, X: ModComod, v: Vec) -> Vec:
    """The basis identification C^n (x) B (x) X -> C^n (x) X sending the
    B slot into the module by acting: c... (x) b (x) x -> c... (x) bx.

    Centralized because every route from calculus matrices to coefficient
    spaces passes through it, and a slip here flips signs silently.
    """
    f = calc.field
    bd, xd = calc.B.dim, X.dim
    out: Vec = {}
    for fl, c in v.items():
        head, bx = divmod(fl, bd * xd)
        b, x = divmod(bx, xd)
        img = X.action.get((b, x))
        if not img:
            continue
        for x2, c2 in img.items():
            vec_add(f, out, {head * xd + x2: f.mul(c, c2)})
    return out


def connection_from_coaction(calc: Calculus, X: ModComod) -> Connection:
    """nabla(x) = rho(x) - I (x) x; rho need not be coassociative."""
    if X.coaction is None:
        raise ValueError("module has no coaction candidate")
    f = calc.field
    xd = X.dim
    nabla = Matrix(calc.cdim * xd, xd, f)
    for a in range(xd):
        col = dict(X.coaction[a])
        for i, ci in calc.basepoint.items():
            vec_add(f, col, {i * xd + a: f.neg(ci)})
        nabla._init_column(a, col)
    return Connection(calc, X, nabla)


def coaction_from_connection(conn: Connection) -> ModComod:
    """Inverse direction: rho(x) = nabla(x) + I (x) x."""
    calc, X = conn.calc, conn.X
    f = calc.field
    xd = X.dim
    coaction: List[Vec] = []
    for a in range(xd):
        col = conn.nabla.column(a)
        for i, ci in calc.basepoint.items():
            vec_add(f, col, {i * xd + a: ci})
        coaction.append(col)
    out = X.copy_with(coaction=coaction)
    out.coalgebra = calc.C
    return out


def check_connection(conn: Connection) -> DefectReport:
    """Leibniz property of nabla against the degree-0 differential:
    defect(b, x) = nabla(bx) - b.nabla(x) - d(b) (x)_B x in C (x) X."""
    calc, X = conn.calc, conn.X
    if X.action is None:
        raise ValueError("connection check needs the module action")
    f = calc.field
    B = calc.B
    xd = X.dim
    defects: Dict[tuple, Vec] = {}
    d0 = calc.differential(0)
    for i in range(B.dim):
        dterm_raw = d0.column(i)            # in C (x) B
        for a in range(xd):
            lhs = conn.nabla.apply(X.act(basis_vec(f, i), basis_vec(f, a)))
            # b . nabla(x), the sandwich action on the C slot
            rhs = sandwich_act(calc, X, i, conn.nabla.column(a))
            # d(b) (x)_B x via the identification
            vec_add(f, rhs, b_slot_act(X, [(f.one(), dterm_raw, a)]))
            d = vec_sub(f, lhs, rhs)
            if d:
                defects[(i, a)] = d
    return DefectReport("connection", defects)


def _extend_degree1(conn: Connection, v: Vec) -> Vec:
    """The extension of nabla to C (x) X -> C (x) C (x) X by the graded
    Leibniz rule, computed through the calculus matrices: the degree-1
    representative of c (x) x is (c (x) 1) (x) x, and

        nabla_hat((c (x) 1) (x) x) = d(c (x) 1) (x)_B x
                                     - (c (x) 1) . nabla(x) identified.
    """
    calc, X = conn.calc, conn.X
    f = calc.field
    bd, xd, cd = calc.B.dim, X.dim, calc.cdim
    out: Vec = {}
    for fl, coeff in v.items():
        c, x = divmod(fl, xd)
        rep: Vec = {c * bd + u: cu for u, cu in calc.B.unit.items()}
        dpart = calc.differential(1).apply(rep)
        lifted = {fl2 * xd + x: c2 for fl2, c2 in dpart.items()}
        vec_add(f, out, identify(calc, X, lifted), coeff)
        for fl2, c2 in conn.nabla.column(x).items():
            c2i, x2 = divmod(fl2, xd)
            rep2: Vec = {c2i * bd + u: cu for u, cu in calc.B.unit.items()}
            prod = calc.product_apply(rep, 1, rep2, 1)
            lifted = {fl3 * xd + x2: c3 for fl3, c3 in prod.items()}
            vec_add(f, out, identify(calc, X, lifted), f.neg(f.mul(coeff, c2)))
    return out


def curvature(conn: Connection) -> Curvature:
    """R = nabla_hat o nabla, computed two independent ways and asserted
    equal: through the calculus matrices, and by the closed coassociativity
    formula (Delta_C (x) id) rho - (id (x) rho) rho."""
    calc, X = conn.calc, conn.X
    f = calc.field
    cd, xd = calc.cdim, X.dim
    defects = coassociativity_defects(coaction_from_connection(conn))
    R = Matrix(cd * cd * xd, xd, f)
    for a in range(xd):
        direct = _extend_degree1(conn, conn.nabla.column(a))
        formula = defects.get((a,), {})
        if vec_sub(f, direct, formula):
            raise RuntimeError("curvature routes disagree; calculus is inconsistent")
        R._init_column(a, formula)
    return Curvature(R)


def is_flat(conn: Connection) -> bool:
    return curvature(conn).is_zero()


def coefficient_complex(calc: Calculus, conn: Connection,
                        max_degree: Optional[int] = None) -> ChainComplex:
    """The complex on C^n (x) X whose differential is the graded-Leibniz
    extension of the flat connection, built through the calculus matrices
    (independently of the cobar construction it is compared against).

    The degree-n representative of c (x) x is (c (x) 1) (x) x, and its image
    d(c (x) 1) (x)_B x + (-1)^n (c (x) 1) . nabla(x) is identified into
    C^(n+1) (x) X by acting with the B slot.  With u the unit as a B x 1
    column, L_n = I_(C^n) (x) u and ``act`` the action X <- B (x) X, that is

        d_X^n = (I_(C^(n+1)) (x) act) (D_n L_n (x) I_X) + (-1)^n I_(C^n) (x) K,
        K = (I_C (x) act) (product(0, 1) (u (x) I_C (x) u) (x) I_X) nabla,

    using product(n, 1) = I_(C^n) (x) product(0, 1).  product(n, 1) itself
    is never built: for Taft(3,2) at n = 4 it has 8.3 M entries.  The
    calculus side goes through D_n and product(0, 1), never through the
    recursion of D_n with rho in place of F_0: that recursion is the cobar
    oracle itself."""
    if not is_flat(conn):
        raise ValueError("connection is not flat")
    X = conn.X
    max_degree = calc.max_degree if max_degree is None else max_degree
    f = calc.field
    cd, bd, xd = calc.cdim, calc.B.dim, X.dim

    def eye(n):
        return Matrix.identity(n, f)

    act = Matrix.from_columns_csr(
        [X.action.get((b, x), {}) for b in range(bd) for x in range(xd)], xd, f)
    u = Matrix.from_columns_csr([calc.unit_element()], bd, f)
    dims = [cd ** n * xd for n in range(max_degree + 1)]
    diffs: List[Matrix] = []
    for n in range(max_degree):
        if n == 0:      # so that an empty complex builds no product
            lift = calc.product(0, 1) @ u.kron(eye(cd)).kron(u)
            K = eye(cd).kron(act) @ lift.kron(eye(xd)) @ conn.nabla
        dl = calc.differential(n) @ eye(cd ** n).kron(u)
        d = eye(cd ** (n + 1)).kron(act) @ dl.kron(eye(xd))
        tail = eye(cd ** n).kron(K)
        diffs.append(d - tail if n % 2 else d + tail)
    return ChainComplex(f, dims, diffs)


def tensor_connection(conn_yd: Connection, conn_ayd: Connection) -> Connection:
    """Tensor of a flat connection over the S calculus with a flat one over
    the S^-1 calculus, with the switch

        sigma(x (x) h) = x_{{-1}} h (x) x_{{0}} + h (x) x

    (double braces: the components of nabla).  The result lives over the
    S^-1 calculus on X (x) X' with the diagonal action, and its coaction is
    the componentwise product of the two coactions."""
    if conn_yd.calc.kind != "khat" or conn_ayd.calc.kind != "k":
        raise ValueError("expected (S-calculus connection, S^-1-calculus connection)")
    H = conn_yd.calc.B
    if H is not conn_ayd.calc.B:
        raise ValueError("connections live over different algebras")
    if not (is_flat(conn_yd) and is_flat(conn_ayd)):
        raise ValueError("both inputs must be flat")
    f = H.field
    X, Xp = conn_yd.X, conn_ayd.X
    dx, dy = X.dim, Xp.dim
    dim = dx * dy

    action: Dict[Tuple[int, int], Vec] = {}
    for i in range(H.dim):
        for a in range(dx):
            for b in range(dy):
                acc: Vec = {}
                for fl, c in H.comul[i].items():
                    h1, h2 = divmod(fl, H.dim)
                    left = X.action.get((h1, a), {})
                    right = Xp.action.get((h2, b), {})
                    vec_add(f, acc, vec_tensor(f, left, right, dy), c)
                action[(i, a * dy + b)] = acc

    nabla = Matrix(H.dim * dim, dim, f)
    for a in range(dx):
        na = conn_yd.nabla.column(a)
        for b in range(dy):
            col: Vec = {}
            for fl, c in na.items():
                h, a2 = divmod(fl, dx)
                col[h * dim + a2 * dy + b] = c
            for fl, c in conn_ayd.nabla.column(b).items():
                hp, b2 = divmod(fl, dy)
                # sigma(x (x) h') (x) x': first summand conjugates through
                # the components of nabla_X, the second passes x through
                for fl2, c2 in na.items():
                    k, a2 = divmod(fl2, dx)
                    prod = H.mul.get((k, hp), {})
                    for h2, c3 in prod.items():
                        vec_add(f, col, {h2 * dim + a2 * dy + b2: f.mul(f.mul(c, c2), c3)})
                vec_add(f, col, {hp * dim + a * dy + b2: c})
            nabla._init_column(a * dy + b, col)

    Xt = ModComod(H, dim, action, None, label=f"tensor({X.label},{Xp.label})")
    conn = Connection(conn_ayd.calc, Xt, nabla)
    Xt.coaction = coaction_from_connection(conn).coaction

    # the recovered coaction must be the componentwise product of the inputs
    rho_x = coaction_from_connection(conn_yd).coaction
    rho_y = coaction_from_connection(conn_ayd).coaction
    for a in range(dx):
        for b in range(dy):
            expect: Vec = {}
            for fl, c in rho_x[a].items():
                h1, a2 = divmod(fl, dx)
                for fl2, c2 in rho_y[b].items():
                    h2, b2 = divmod(fl2, dy)
                    for h3, c3 in H.mul.get((h1, h2), {}).items():
                        vec_add(f, expect,
                                {h3 * dim + a2 * dy + b2: f.mul(f.mul(c, c2), c3)})
            if vec_sub(f, Xt.coaction[a * dy + b], expect):
                raise RuntimeError("tensor coaction disagrees with the product formula")
    return conn


def check_dg_module_structure(calc: Calculus, conn: Connection,
                              max_degree: int = 2) -> Report:
    """Over a cocommutative Hopf algebra the coefficient complex of a flat
    connection is a differential graded module for the sandwich action on
    each C^n (x) X; over a non-cocommutative one the statement does not
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
    X = conn.X
    conj = calc._conj
    cx = coefficient_complex(calc, conn, max_degree + 1)
    for n in range(max_degree + 1):
        slots = [Bimodule.regular(H)] * n + [Bimodule.from_left_module(X)]
        slots_up = [Bimodule.regular(H)] * (n + 1) + [Bimodule.from_left_module(X)]
        d = cx.diffs[n]
        ok, wit = True, None
        for i in range(H.dim):
            for fl in range(cx.dims[n]):
                t = basis_vec(f, fl)
                lhs = d.apply(oslash_action(slots, basis_vec(f, i), t, conj))
                rhs = oslash_action(slots_up, basis_vec(f, i), d.apply(t), conj)
                dd = vec_sub(f, lhs, rhs)
                if dd:
                    ok, wit = False, {"basis": (i, fl), "degree": n, "defect": dd}
                    break
            if not ok:
                break
        rep.add(f"dg_module_degree[{n}]", ok, wit)
    return rep
