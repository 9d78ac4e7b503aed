"""Shared builders, the tests' per-vector arithmetic and the adversarial
module corpus.

The package applies structure tensors only as matrices.  The oracles here
and in the test modules keep the dict arithmetic of sparse vectors
``{index: scalar}``, one ``Field`` call per entry (``vec_add``,
``bilinear``, ``apply``, ``multiply``, ``lact``, ``act``, ...), so that no
oracle shares a kernel with the code it checks.  A bimodule coalgebra,
which the package holds as matrices, has a dict twin here
(``DictCoalgebra``) for them to read, and the sandwich of K and K-hat
takes its conj from the Hopf algebra itself (``hopf_conj``).

The corpus for the correspondence theorems is: trivial, every (delta,
sigma) one-dimensional pair, the coadjoint comodule (with the regular
action attached), the regular module-comodule, and single-entry mutations
of their coactions.  Mutations are seeded so runs are reproducible.
"""
import contextlib
import functools
import io
import json
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from hopfcalc import cli
from hopfcalc.calculus import Calculus
from hopfcalc.connections import sandwich_action
from hopfcalc.fields import QQ, Field
from hopfcalc.hopf import (HopfAlgebra, build_dual_group_algebra, build_group_algebra,
                           build_sweedler, build_taft, cyclic_table, symmetric_table)
from hopfcalc.linalg import Matrix, Vec, bilinear_matrix, pairing_matrix, tensor_decode
from hopfcalc.modules import (BimoduleCoalgebra, ModComod, action_matrix, add_action_axioms,
                              check_ayd, coadjoint_comodule, coaction_matrix,
                              coassociativity_defects, enumerate_characters,
                              enumerate_grouplikes, one_dim_modcomod, regular_modcomod,
                              trivial_modcomod)
from hopfcalc.reports import Report


# per-vector arithmetic that only the tests' oracles use: dicts {index:
# scalar} without zeros, one Field call per entry


def vec_add(field: Field, dst: Vec, src: Vec, coeff=None) -> None:
    """In-place ``dst += coeff * src`` (coeff defaults to 1), pruning zeros."""
    if coeff is not None and field.is_zero(coeff):
        return
    for i, c in src.items():
        c2 = field.mul(coeff, c) if coeff is not None else c
        acc = field.add(dst.get(i, field.zero()), c2)
        if field.is_zero(acc):
            dst.pop(i, None)
        else:
            dst[i] = acc


def vec_scale(field: Field, v: Vec, coeff) -> Vec:
    if field.is_zero(coeff):
        return {}
    return {i: field.mul(coeff, c) for i, c in v.items()}


def vec_tensor(field: Field, a: Vec, b: Vec, dim_b: int) -> Vec:
    """Tensor product of sparse vectors, b indexed within a block of dim_b."""
    out: Vec = {}
    for i, ci in a.items():
        for j, cj in b.items():
            out[i * dim_b + j] = field.mul(ci, cj)
    return out


def basis_vec(field: Field, i: int) -> Vec:
    return {i: field.one()}


def bilinear(field: Field, table, u: Vec, v: Vec) -> Vec:
    """The bilinear map with ``table[(i, j)]`` the image of the basis pair
    (i, j), applied to ``(u, v)``; a missing pair maps to 0."""
    out: Vec = {}
    for i, ci in u.items():
        for j, cj in v.items():
            img = table.get((i, j))
            if img:
                vec_add(field, out, img, field.mul(ci, cj))
    return out


def pairing(field: Field, w, v: Vec):
    """The covector with values ``w`` on the basis, evaluated at ``v``."""
    acc = field.zero()
    for i, c in v.items():
        acc = field.add(acc, field.mul(w.get(i, field.zero()), c))
    return acc


def column(m: Matrix, j: int) -> Vec:
    """Column j of ``m`` as a new dict of field scalars, read off its CSC
    arrays."""
    ptr, idx, val = m._csc_arrays()
    s, e = ptr[j], ptr[j + 1]
    return {i: m.field.of(v) for i, v in zip(idx[s:e].tolist(), val[s:e].tolist())}


def apply(m: Matrix, v: Vec) -> Vec:
    """The matrix ``m`` applied to the sparse vector ``v``, column by column."""
    out: Vec = {}
    for k, c in v.items():
        vec_add(m.field, out, column(m, k), c)
    return out


def multiply(H: HopfAlgebra, u: Vec, v: Vec) -> Vec:
    return bilinear(H.field, H.mul, u, v)


@dataclass
class DictCoalgebra:
    """The dict twin of a ``BimoduleCoalgebra``: its structure matrices
    read off column by column (``of``), as the tables that the oracles
    apply one sparse vector at a time."""

    B: HopfAlgebra
    dim: int
    comul: list                 # c -> C (x) C, flat
    counit: dict                # c -> eps(c)
    left: dict                  # (b_i, c_a) -> b_i . c_a
    right: dict                 # (c_a, b_i) -> c_a . b_i
    grouplike: Vec

    @property
    def field(self) -> Field:
        return self.B.field

    @classmethod
    def of(cls, C: BimoduleCoalgebra) -> "DictCoalgebra":
        d, bd = C.dim, C.B.dim
        return cls(C.B, d, C.comul.columns(),
                   {a: col[0] for a, col in enumerate(C.counit.columns()) if col},
                   {divmod(j, d): col for j, col in enumerate(C.left.columns())},
                   {divmod(j, bd): col for j, col in enumerate(C.right.columns())},
                   C.grouplike.columns()[0])

    def matrices(self) -> BimoduleCoalgebra:
        """The ``BimoduleCoalgebra`` with these tables."""
        f, d, bd = self.field, self.dim, self.B.dim
        return BimoduleCoalgebra(self.B, d, Matrix.from_columns(self.comul, d * d, f),
                                 pairing_matrix(f, self.counit, d),
                                 bilinear_matrix(f, self.left, bd, d, d),
                                 bilinear_matrix(f, self.right, d, bd, d),
                                 Matrix.from_columns([self.grouplike], d, f))


def lact(C: DictCoalgebra, b: Vec, c: Vec) -> Vec:
    return bilinear(C.field, C.left, b, c)


def ract(C: DictCoalgebra, c: Vec, b: Vec) -> Vec:
    return bilinear(C.field, C.right, c, b)


def hopf_conj(kind: str, H: HopfAlgebra) -> Matrix:
    """conj of the sandwich a . c . conj(z), from H itself: S^-1 for K
    (``kind`` "k") and S for K-hat ("khat")."""
    return H.antipode_inverse() if kind == "k" else H.antipode


def act(X: ModComod, h: Vec, x: Vec) -> Vec:
    if X.action is None:
        raise ValueError("module has no action")
    return bilinear(X.field, X.action, h, x)


def cli_report(argv: str):
    """(exit code, report) of one CLI line, run in this process."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv.split())
    return code, json.loads(out.getvalue())


def traced_peak(argv: str):
    """(exit code, report, tracemalloc peak in bytes) of one CLI line."""
    tracemalloc.start()
    try:
        code, doc = cli_report(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, doc, peak


# matrix operations that only the tests use


def from_rows(rows, field: Field) -> Matrix:
    """The matrix with the given rows of field scalars."""
    data = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            v = field.of(v)
            if not field.is_zero(v):
                data[(i, j)] = v
    return Matrix(len(rows), len(rows[0]) if rows else 0, field, data)


def with_column(m: Matrix, j: int, col) -> Matrix:
    """A new matrix: ``m`` with column j replaced by ``col``."""
    cols = m.columns()
    cols[j] = col
    return Matrix.from_columns(cols, m.rows, m.field)


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows, m.field, {(j, i): v for (i, j), v in m.entries()})


def holds_csr(m: Matrix) -> bool:
    """Whether ``m`` holds its CSR, read off its slot without building the
    CSR of a matrix born column-major."""
    try:
        Matrix._csr.__get__(m)
    except AttributeError:
        return False
    return True


def kernel_dim(m: Matrix) -> int:
    return m.cols - m.rank()


class Ref:
    """The tests-only dict reference for ``Matrix``: the nonzero entries
    ``{(row, col): scalar}`` of a rows x cols matrix, with every operation
    computed entry by entry in the field's arithmetic."""

    def __init__(self, field, rows, cols, data):
        self.f, self.rows, self.cols = field, rows, cols
        self.d = {k: field.of(v) for k, v in data.items() if not field.is_zero(field.of(v))}

    def matrix(self) -> Matrix:
        return Matrix(self.rows, self.cols, self.f, self.d)

    def kron(self, o: "Ref") -> "Ref":
        return Ref(self.f, self.rows * o.rows, self.cols * o.cols,
                   {(i * o.rows + k, j * o.cols + l): self.f.mul(u, v)
                    for (i, j), u in self.d.items() for (k, l), v in o.d.items()})

    def __matmul__(self, o: "Ref") -> "Ref":
        f, out, rows_of_o = self.f, {}, {}
        for (k, j), v in o.d.items():
            rows_of_o.setdefault(k, []).append((j, v))
        for (i, k), u in self.d.items():
            for j, v in rows_of_o.get(k, ()):
                out[(i, j)] = f.add(out.get((i, j), f.zero()), f.mul(u, v))
        return Ref(f, self.rows, o.cols, out)

    def plus(self, o: "Ref", c) -> "Ref":
        """``self + c * o``."""
        out = dict(self.d)
        for k, v in o.d.items():
            out[k] = self.f.add(out.get(k, self.f.zero()), self.f.mul(c, v))
        return Ref(self.f, self.rows, self.cols, out)

    def columns(self):
        out = [{} for _ in range(self.cols)]
        for (i, j), v in self.d.items():
            out[j][i] = v
        return out

    def witness(self):
        """The first nonzero entry in row-major order, or None."""
        return min(((i, j, v) for (i, j), v in self.d.items()), default=None)

    def value_type(self):
        """The value type a Matrix with these entries must have."""
        ints = all(v.denominator == 1 and abs(v) < 2**62 for v in self.d.values())
        return np.int64 if ints else object


def reference_echelon(field: Field, cols):
    """The pivot rows ``{lead: (a, rest)}`` of a forward Gaussian
    elimination of ``cols`` in integers, one column at a time in dicts:
    the oracle of the rank, ``len`` of it, for ``Matrix.rank``.

    ``cols`` hold nonzero field scalars, as a ``Matrix``'s columns do.
    Pivot row ``(a, rest)`` stands for ``a * e_lead + rest``, every index
    of ``rest`` above ``lead``.  A vector whose entry at a pivot's lead is
    ``coeff`` becomes ``(a/g)*r - (coeff/g)*pivot`` with ``g = gcd(a,
    coeff)``.  Over F_p a new pivot row is normalized to ``a = 1`` and
    every entry is reduced mod p; over Q each vector is first scaled by the
    lcm of its denominators, and when ``a/g`` is not +-1 its content is
    divided out."""
    p = field.char
    pivots = {}
    for col in cols:
        if p:
            r = dict(col)
        else:
            den = lcm(*(v.denominator for v in col.values()))
            r = {k: v.numerator * (den // v.denominator) for k, v in col.items()}
        while r:
            lead = min(r)
            coeff = r.pop(lead)
            piv = pivots.get(lead)
            if piv is None:
                if p:
                    inv = pow(coeff, -1, p)
                    r = {k: v * inv % p for k, v in r.items()}
                    coeff = 1
                pivots[lead] = (coeff, r)
                break
            a, prow = piv
            g = gcd(a, coeff)
            sa, sc = a // g, coeff // g
            if sa < 0:
                sa, sc = -sa, -sc
            if sa != 1:
                r = {k: sa * v for k, v in r.items()}
            for k, pv in prow.items():
                x = r.get(k, 0) - sc * pv
                if p:
                    x %= p
                if x:
                    r[k] = x
                else:
                    r.pop(k, None)
            if sa != 1 and r:
                content = gcd(*r.values())
                if content != 1:
                    r = {k: v // content for k, v in r.items()}
    return pivots


def reference_column_echelon(field: Field, cols):
    """Reduced (echelon) basis of the column space, with pivot rows, by
    Gauss-Jordan elimination in the field's arithmetic, one column at a
    time: the oracle for ``linalg.column_echelon``."""
    basis, pivots = [], []
    for col in cols:
        r = {k: v for k, v in col.items() if not field.is_zero(v)}
        for b, p in zip(basis, pivots):
            c = r.get(p)
            if c is not None:
                vec_add(field, r, b, field.neg(c))
        if not r:
            continue
        p = min(r)
        scale = field.inv(r[p])
        r = {k: field.mul(scale, v) for k, v in r.items()}
        for i, (b, bp) in enumerate(zip(basis, pivots)):
            c = b.get(p)
            if c is not None:
                nb = dict(b)
                vec_add(field, nb, r, field.neg(c))
                basis[i] = nb
        basis.append(r)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [basis[i] for i in order], [pivots[i] for i in order]


# algebra and calculus operations that only the tests use


def expand_slot(H: HopfAlgebra, t: Vec, nfactors: int, slot: int) -> Vec:
    """Apply the coproduct to one tensor leg: H^{(x)n} -> H^{(x)(n+1)}."""
    f = H.field
    d = H.dim
    dims = [d] * nfactors
    out: Vec = {}
    for flat, c in t.items():
        idx = tensor_decode(flat, dims)
        head = 0
        for a in idx[:slot]:
            head = head * d + a
        tail = idx[slot + 1:]
        for pair_flat, cc in H.comul[idx[slot]].items():
            new = head * d * d + pair_flat
            for a in tail:
                new = new * d + a
            acc = f.add(out.get(new, f.zero()), f.mul(c, cc))
            if f.is_zero(acc):
                out.pop(new, None)
            else:
                out[new] = acc
    return out


def linear(field: Field, cols, v: Vec) -> Vec:
    """The linear map with ``cols[i]`` the image of basis vector i, applied
    to ``v``."""
    out: Vec = {}
    for i, c in v.items():
        vec_add(field, out, cols[i], c)
    return out


def vec_sub(field: Field, a: Vec, b: Vec) -> Vec:
    out = dict(a)
    vec_add(field, out, b, field.neg(field.one()))
    return out


def vec_eq(field: Field, a: Vec, b: Vec) -> bool:
    return not vec_sub(field, a, b)


def comultiply(H: HopfAlgebra, u: Vec) -> Vec:
    """Delta(u) in H (x) H, one basis vector of u at a time."""
    return linear(H.field, H.comul, u)


def counit_of(H: HopfAlgebra, u: Vec):
    return pairing(H.field, H.counit, u)


def comultiply_iter(H: HopfAlgebra, u: Vec, n: int) -> Vec:
    """The iterated coproduct of u, an element of H^{(x)(n+1)}, by
    expanding the last tensor leg: the bracketing (I (x) Delta) Delta for
    n = 2."""
    out = dict(u)
    for k in range(1, n + 1):
        out = expand_slot(H, out, k, k - 1)
    return out


def is_commutative(H: HopfAlgebra) -> bool:
    mu = H.mul_matrix()
    return mu @ Matrix.flip(H.dim, H.dim, H.field) == mu


def degree_dims(calc: Calculus, n: int):
    """The tensor legs of degree n: C^(x)n (x) B."""
    return [calc.cdim] * n + [calc.B.dim]


def product_apply(calc: Calculus, u: Vec, n: int, v: Vec, m: int) -> Vec:
    """The graded product of u in degree n and v in degree m."""
    return apply(calc.product(n, m), vec_tensor(calc.field, u, v, calc.degree_dim(m)))


def unit_element(calc: Calculus) -> Vec:
    return dict(calc.B.unit)


def reference_basepoint_coadjoint(calc: Calculus):
    """The coaction table of ``homology._basepoint_coadjoint``, one basis
    vector at a time: rho(b) = alpha(b_(1)) I beta(b_(3)) (x) b_(2) for the
    generalized calculus, b_(1) conj(b_(3)) (x) b_(2) for the Hopf calculi,
    from the structure tables and maps directly (conj from B itself,
    ``hopf_conj``)."""
    B = calc.B
    f = B.field
    if calc.kind == "general":
        C = DictCoalgebra.of(calc.C)
        I = C.grouplike

        def wrap(b1: int, b3: int) -> Vec:
            return ract(C, lact(C, apply(calc.alpha.matrix, basis_vec(f, b1)), I),
                        apply(calc.beta.matrix, basis_vec(f, b3)))
    else:
        conj = hopf_conj(calc.kind, B)

        def wrap(b1: int, b3: int) -> Vec:
            return multiply(B, basis_vec(f, b1), apply(conj, basis_vec(f, b3)))
    coaction = []
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
    return coaction


# module checks that only the tests use


def check_comodule_axioms(X: ModComod) -> Report:
    """Coassociativity (witness: the first failing basis vector) and
    counitality of the coaction."""
    f = X.field
    rep = Report()
    defects = coassociativity_defects(X)
    rep.add("coaction_coassociative", not defects,
            None if not defects else {"basis": min(defects), "defect": defects[min(defects)]})
    # (eps (x) id) rho = id, with eps the counit as a 1 x C row
    counit = X.algebra.counit if X.coalgebra is None else DictCoalgebra.of(X.coalgebra).counit
    eps = pairing_matrix(f, counit, X.codim)
    eye = Matrix.identity(X.dim, f)
    rep.add("coaction_counital", eps.kron(eye) @ coaction_matrix(X) == eye)
    return rep


def check_lemma_sandwich_action(X: ModComod) -> Report:
    """The sandwich action h.(g (x) x) = h_(1) g S^-1(h_(3)) (x) h_(2) x on
    H (x) X, M_1 of the S^-1 calculus: (a) it is an associative unital
    action; (b) rho_X is a map of modules for it, which is the S^-1
    compatibility condition ``check_ayd``."""
    rep, calc = Report(), Calculus.k(X.algebra, 1)
    add_action_axioms(rep, "sandwich_action", X.algebra,
                      sandwich_action(calc, action_matrix(X), 1))
    d = check_ayd(X, calc)
    rep.add("coaction_is_module_map", d.passed, d.witness())
    return rep


@functools.lru_cache(maxsize=None)
def named_algebra(name: str) -> HopfAlgebra:
    if name == "kZ2":
        return build_group_algebra(cyclic_table(2))
    if name == "kZ3":
        return build_group_algebra(cyclic_table(3))
    if name == "kZ4":
        return build_group_algebra(cyclic_table(4))
    if name == "kS3":
        table, names = symmetric_table(3)
        return build_group_algebra(table, names=names)
    if name == "dualZ2":
        return build_dual_group_algebra(cyclic_table(2))
    if name == "dualZ2_F2":
        return build_dual_group_algebra(cyclic_table(2), Field(2))
    if name == "sweedler":
        return build_sweedler()
    if name == "taft327":
        return build_taft(3, 2, Field(7))
    if name == "kZ3_scaled":
        return scaled_kZ3()
    raise KeyError(name)


def scaled_kZ3() -> HopfAlgebra:
    """kZ3 in the basis h_i = s_i g^i with s = (1, 2, 3): h_i h_j =
    (s_i s_j / s_(i+j)) h_(i+j), Delta(h_i) = (1/s_i) h_i (x) h_i and
    eps(h_i) = s_i.  Its multiplication is not integral (h_1 h_1 =
    (4/3) h_2), so the products of its calculi take the exact ``Fraction``
    path of ``Matrix.kron`` and ``@``.  (With s = (1, 2, 2) every product
    constant would be an integer, and the sandwich of a group algebra
    cancels any rescaling.)"""
    s = [1, 2, 3]
    mul = {(i, j): {(i + j) % 3: Fraction(s[i] * s[j], s[(i + j) % 3])}
           for i in range(3) for j in range(3)}
    comul = [{4 * i: Fraction(1, s[i])} for i in range(3)]
    counit = {i: Fraction(s[i]) for i in range(3)}
    antipode = Matrix(3, 3, QQ, {(-i % 3, i): Fraction(s[i], s[-i % 3]) for i in range(3)})
    return HopfAlgebra(QQ, 3, ["h0", "h1", "h2"], mul, {0: QQ.one()}, comul, counit,
                       antipode)


ACCEPTANCE_ALGEBRAS = ["kZ2", "kZ3", "kS3", "dualZ2", "sweedler", "taft327"]


def base_corpus(H: HopfAlgebra, with_action_on_coadjoint: bool = True):
    """The unmutated corpus for one algebra."""
    out = [trivial_modcomod(H)]
    for delta in enumerate_characters(H):
        for sigma in enumerate_grouplikes(H):
            out.append(one_dim_modcomod(H, delta, sigma))
    if H.antipode_inverse() is not None:
        X = coadjoint_comodule(H)
        if with_action_on_coadjoint:
            X.action = {k: dict(v) for k, v in H.mul.items()}
        out.append(X)
    out.append(regular_modcomod(H))
    return out


def mutate_coaction(X: ModComod, rng: random.Random) -> ModComod:
    """Flip one entry of the coaction tensor (add 1 at a random slot)."""
    f = X.field
    Y = X.copy_with(label=X.label + "+mut")
    a = rng.randrange(X.dim)
    fl = rng.randrange(X.codim * X.dim)
    val = f.add(Y.coaction[a].get(fl, f.zero()), f.one())
    if f.is_zero(val):
        del Y.coaction[a][fl]
    else:
        Y.coaction[a][fl] = val
    return Y


def mutated_corpus(H: HopfAlgebra, count: int, seed: int = 0):
    rng = random.Random(seed)
    base = [X for X in base_corpus(H) if X.coaction is not None]
    out = []
    for k in range(count):
        out.append(mutate_coaction(base[k % len(base)], rng))
    return out


@pytest.fixture(scope="session")
def sweedler():
    return named_algebra("sweedler")


@pytest.fixture(scope="session")
def kS3():
    return named_algebra("kS3")


@pytest.fixture(scope="session")
def doubled_sweedler() -> BimoduleCoalgebra:
    """C = H (+) H over Sweedler's algebra H, the bimodule coalgebra with
    dim C = 8 != dim B = 4: each copy H_k carries H's own actions, Delta
    and eps, so Delta_C(h_k) = (h_(1))_k (x) (h_(2))_k, and the basepoint
    is (1, 0).  A contraction that mixes up a B leg and a C leg fails on
    it, by a shape error or a wrong matrix, where C = H hides it."""
    H = named_algebra("sweedler")
    d = H.dim

    def moved(v: Vec, k: int) -> Vec:
        return {k * d + i: c for i, c in v.items()}

    comul = [{(k * d + a) * 2 * d + k * d + b: c
              for fl, c in H.comul[h].items() for a, b in [divmod(fl, d)]}
             for k in range(2) for h in range(d)]
    counit = {k * d + h: c for k in range(2) for h, c in H.counit.items()}
    left = {(i, k * d + h): moved(H.mul.get((i, h), {}), k)
            for i in range(d) for k in range(2) for h in range(d)}
    right = {(k * d + h, i): moved(H.mul.get((h, i), {}), k)
             for i in range(d) for k in range(2) for h in range(d)}
    return DictCoalgebra(H, 2 * d, comul, counit, left, right, dict(H.unit)).matrices()
