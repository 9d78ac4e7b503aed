"""Sparse exact linear and multilinear algebra.

Vectors are zero-omitting dicts ``{index: scalar}``; matrices store
``{(row, col): scalar}``.  Rank comes from exact sparse Gaussian
elimination in integers: modular over F_p, fraction free over Q.  Matrix
products and Kronecker products route through scipy.sparse integer
arithmetic when every entry is an integer (always true for
structure-constant tensors of the built-in algebras), falling back to
pure-Python sparse arithmetic otherwise.

Tensor indices over a list of factor dimensions are flattened big-endian
lexicographically: ``flat = sum(idx[i] * prod(dims[i+1:]))``.  The same
convention is used by every module in the package; differentials would
silently disagree otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .fields import Field

Vec = Dict[int, object]

# Threshold above which an int64 scipy product might overflow; beyond it we
# fall back to exact Python arithmetic.
_INT64_SAFE = 2**62


# ---------------------------------------------------------------------------
# tensor index flattening


def tensor_encode(indices: Sequence[int], dims: Sequence[int]) -> int:
    """Flatten a multi-index big-endian lexicographically."""
    if len(indices) != len(dims):
        raise ValueError("index/dimension length mismatch")
    flat = 0
    for idx, d in zip(indices, dims):
        if not 0 <= idx < d:
            raise IndexError(f"index {idx} out of range for dimension {d}")
        flat = flat * d + idx
    return flat


def tensor_decode(flat: int, dims: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of :func:`tensor_encode`."""
    out = []
    for d in reversed(dims):
        out.append(flat % d)
        flat //= d
    if flat:
        raise IndexError("flat index out of range")
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# sparse vectors


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


def vec_sub(field: Field, a: Vec, b: Vec) -> Vec:
    out = dict(a)
    vec_add(field, out, b, field.neg(field.one()))
    return out


def vec_eq(field: Field, a: Vec, b: Vec) -> bool:
    return not vec_sub(field, a, b)


def vec_tensor(field: Field, a: Vec, b: Vec, dim_b: int) -> Vec:
    """Tensor product of sparse vectors, b indexed within a block of dim_b."""
    out: Vec = {}
    for i, ci in a.items():
        for j, cj in b.items():
            out[i * dim_b + j] = field.mul(ci, cj)
    return out


def basis_vec(field: Field, i: int) -> Vec:
    return {i: field.one()}


# ---------------------------------------------------------------------------
# matrices


@dataclass
class Matrix:
    """Zero-omitting sparse matrix over an exact field."""

    rows: int
    cols: int
    field: Field
    data: Dict[Tuple[int, int], object] = dc_field(default_factory=dict)

    def __post_init__(self):
        # prune explicit zeros so equality is structural
        f = self.field
        self.data = {k: v for k, v in self.data.items() if not f.is_zero(v)}

    @classmethod
    def zero(cls, rows: int, cols: int, field: Field) -> "Matrix":
        return cls(rows, cols, field)

    @classmethod
    def identity(cls, n: int, field: Field) -> "Matrix":
        return cls(n, n, field, {(i, i): field.one() for i in range(n)})

    @classmethod
    def from_rows(cls, rows: List[List[object]], field: Field) -> "Matrix":
        data = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                v = field.of(v)
                if not field.is_zero(v):
                    data[(i, j)] = v
        return cls(len(rows), len(rows[0]) if rows else 0, field, data)

    @classmethod
    def from_columns(cls, cols: List[Vec], rows: int, field: Field) -> "Matrix":
        data = {}
        for j, col in enumerate(cols):
            for i, v in col.items():
                if not field.is_zero(v):
                    data[(i, j)] = v
        return cls(rows, len(cols), field, data)

    def set_column(self, j: int, col: Vec) -> None:
        for key in [k for k in self.data if k[1] == j]:
            del self.data[key]
        self._init_column(j, col)

    def _init_column(self, j: int, col: Vec) -> None:
        """Write a column known to be empty, skipping the stale-entry scan.
        Only for freshly built matrices whose columns are set once."""
        for i, v in col.items():
            if not self.field.is_zero(v):
                self.data[(i, j)] = v
        for attr in ("_cols", "_sp", "_maxabs"):
            if hasattr(self, attr):
                object.__delattr__(self, attr)

    def column(self, j: int) -> Vec:
        return {i: v for (i, jj), v in self.data.items() if jj == j}

    def columns(self) -> List[Vec]:
        out: List[Vec] = [dict() for _ in range(self.cols)]
        for (i, j), v in self.data.items():
            out[j][i] = v
        return out

    def get(self, i: int, j: int):
        return self.data.get((i, j), self.field.zero())

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        f = self.field
        data = dict(self.data)
        for k, v in other.data.items():
            acc = f.sub(data.get(k, f.zero()), v)
            if f.is_zero(acc):
                data.pop(k, None)
            else:
                data[k] = acc
        return Matrix(self.rows, self.cols, f, data)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        f = self.field
        data = dict(self.data)
        for k, v in other.data.items():
            acc = f.add(data.get(k, f.zero()), v)
            if f.is_zero(acc):
                data.pop(k, None)
            else:
                data[k] = acc
        return Matrix(self.rows, self.cols, f, data)

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(self.rows, self.cols, f,
                      {k: f.mul(c, v) for k, v in self.data.items()})

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, self.field,
                      {(j, i): v for (i, j), v in self.data.items()})

    # -- products -----------------------------------------------------------

    def _int_values(self):
        """The values of ``data`` as ints, in its order, or None if one is a
        non-integer rational."""
        vals = self.data.values()
        if self.field.char:
            return vals
        if any(v.denominator != 1 for v in vals):
            return None
        return (v.numerator for v in vals)

    def _to_scipy(self):
        """The int64 scipy CSR form, or None when an entry is not an integer
        or its absolute value reaches ``_INT64_SAFE``."""
        cached = getattr(self, "_sp", False)
        if cached is not False:
            return cached
        vals = self._int_values()
        if vals is None or self._max_abs() >= _INT64_SAFE:
            m = None
        else:
            n = len(self.data)
            ij = np.fromiter(chain.from_iterable(self.data), dtype=np.int64,
                             count=2 * n).reshape(n, 2)
            m = sp.coo_matrix((np.fromiter(vals, dtype=np.int64, count=n),
                               (ij[:, 0], ij[:, 1])),
                              shape=(self.rows, self.cols)).tocsr()
        object.__setattr__(self, "_sp", m)
        return m

    @classmethod
    def _from_scipy(cls, m, field: Field) -> "Matrix":
        m = m.tocoo()
        # integer entries interoperate exactly with Fraction over Q and are
        # already reduced over F_p, so no per-entry coercion is needed
        mask = m.data != 0
        data = {(int(i), int(j)): int(v)
                for i, j, v in zip(m.row[mask], m.col[mask], m.data[mask])}
        out = cls(m.shape[0], m.shape[1], field)
        out.data = data
        return out

    def _max_abs(self) -> int:
        cached = getattr(self, "_maxabs", None)
        if cached is not None:
            return cached
        best = 0
        for v in self.data.values():
            a = abs(v.numerator) if isinstance(v, Fraction) else abs(int(v))
            if a > best:
                best = a
        object.__setattr__(self, "_maxabs", best)
        return best

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if self.field != other.field:
            raise ValueError("field mismatch")
        a, b = self._to_scipy(), other._to_scipy()
        if a is not None and b is not None:
            # crude overflow bound: |entry| <= maxA * maxB * inner_dim
            if self._max_abs() * max(other._max_abs(), 1) * max(self.cols, 1) < _INT64_SAFE:
                prod = a @ b
                if self.field.char:
                    prod.data %= self.field.char
                    prod.eliminate_zeros()
                return Matrix._from_scipy(prod, self.field)
        return self._matmul_python(other)

    def _matmul_python(self, other: "Matrix") -> "Matrix":
        f = self.field
        cols_of_self = self.columns()
        out_cols: List[Vec] = []
        for col in other.columns():
            acc: Vec = {}
            for k, c in col.items():
                vec_add(f, acc, cols_of_self[k], c)
            out_cols.append(acc)
        return Matrix.from_columns(out_cols, self.rows, f)

    def apply(self, v: Vec) -> Vec:
        """Matrix-vector product on a sparse vector."""
        f = self.field
        cols = self._column_cache()
        acc: Vec = {}
        for k, c in v.items():
            vec_add(f, acc, cols[k], c)
        return acc

    def _column_cache(self) -> List[Vec]:
        # matrices are immutable once fully built; cache the column view
        cache = getattr(self, "_cols", None)
        if cache is None or len(cache) != self.cols:
            cache = self.columns()
            object.__setattr__(self, "_cols", cache)
        return cache

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, consistent with big-endian index flattening."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        a, b = self._to_scipy(), other._to_scipy()
        if (a is not None and b is not None
                and self._max_abs() * other._max_abs() < _INT64_SAFE):
            prod = sp.kron(a, b, format="coo")
            if self.field.char:
                prod = prod.tocsr()
                prod.data %= self.field.char
                prod.eliminate_zeros()
            return Matrix._from_scipy(prod, self.field)
        f = self.field
        data = {}
        for (i, j), u in self.data.items():
            for (k, l), v in other.data.items():
                data[(i * other.rows + k, j * other.cols + l)] = f.mul(u, v)
        return Matrix(self.rows * other.rows, self.cols * other.cols, f, data)

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        return _sparse_rank(self.field, self.columns())

    def kernel_dim(self) -> int:
        return self.cols - self.rank()

    def inverse(self) -> "Matrix | None":
        """Exact inverse, or None if singular.  Dense elimination; the only
        matrices inverted here are antipodes of dimension <= ~36."""
        if self.rows != self.cols:
            return None
        f = self.field
        n = self.rows
        a = [[self.get(i, j) for j in range(n)] for i in range(n)]
        inv = [[f.one() if i == j else f.zero() for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if not f.is_zero(a[r][col])), None)
            if piv is None:
                return None
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            scale = f.inv(a[col][col])
            a[col] = [f.mul(scale, x) for x in a[col]]
            inv[col] = [f.mul(scale, x) for x in inv[col]]
            for r in range(n):
                if r != col and not f.is_zero(a[r][col]):
                    c = a[r][col]
                    a[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(a[r], a[col])]
                    inv[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(inv[r], inv[col])]
        return Matrix.from_rows(inv, f)

    def nonzero_witness(self) -> Tuple[int, int, object] | None:
        """Some nonzero entry (row, col, value), or None if the matrix is 0."""
        for (i, j), v in sorted(self.data.items()):
            return (i, j, v)
        return None

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field}, nnz={len(self.data)})"


def identity_defect_witness(field: Field, terms) -> "Tuple[int, int, object] | None":
    """First nonzero entry of ``sum(coeff * prod(factors))``, or None.

    ``terms`` is a list of ``(coeff, factors)`` with integer coefficients;
    each factor is a Matrix or a pair ``(A, B)`` standing for their Kronecker
    product.  Used by the DGA verifiers, where the defect matrices are huge
    but (when the identity holds) identically zero; everything stays in
    scipy int64 when the entries are integral, with a pure-python fallback.
    """
    acc = _int64_defect(field, terms)
    if acc is not None:
        if field.char:
            acc = acc.tocsr()
            acc.data %= field.char
        acc = acc.tocoo()
        mask = acc.data != 0
        if not mask.any():
            return None
        k = int(np.flatnonzero(mask)[0])
        return (int(acc.row[k]), int(acc.col[k]), field.of(int(acc.data[k])))
    # exact fallback for non-integral entries or overflow risk
    total = None
    for coeff, factors in terms:
        mats = [f[0].kron(f[1]) if isinstance(f, tuple) else f for f in factors]
        m = mats[0]
        for m2 in mats[1:]:
            m = m._matmul_python(m2)
        m = m.scale(field.of(coeff))
        total = m if total is None else total + m
    return total.nonzero_witness()


def _int64_defect(field: Field, terms):
    """``sum(coeff * prod(factors))`` as an int64 scipy matrix, or None when
    an entry is not an integer or a bound on the entries, of every partial
    product and of the running sum, reaches ``_INT64_SAFE``."""
    total = 0
    acc = None
    for coeff, factors in terms:
        m = bound = None
        for fac in factors:
            pair = fac if isinstance(fac, tuple) else (fac,)
            mats = [x._to_scipy() for x in pair]
            if any(x is None for x in mats):
                return None
            fac_bound = 1
            for x in pair:
                fac_bound *= x._max_abs()
            if fac_bound >= _INT64_SAFE:
                return None
            fac_sp = mats[0] if len(mats) == 1 else sp.kron(mats[0], mats[1], format="csr")
            if m is None:
                m, bound = fac_sp, fac_bound
                continue
            bound = bound * fac_bound * max(m.shape[1], 1)
            if bound >= _INT64_SAFE:
                return None
            m = m @ fac_sp
            if field.char:
                m.data %= field.char
                m.eliminate_zeros()
                bound = field.char - 1
        total += abs(coeff) * bound
        if total >= _INT64_SAFE:
            return None
        acc = m * coeff if acc is None else acc + m * coeff
    return acc


def _sparse_rank(field: Field, rows: Iterable[Vec]) -> int:
    """Rank by sparse Gaussian elimination in integers.

    ``rows`` may equally be the columns of the matrix (rank is transpose
    invariant); callers pass whichever orientation is sparser to reduce.

    Elimination stays in the integers.  A pivot row is kept with its
    leading entry ``a``, and a row whose entry in that column is ``coeff``
    becomes ``(a/g)*r - (coeff/g)*pivot`` with ``g = gcd(a, coeff)``: a
    nonzero multiple of ``r`` plus a multiple of the pivot, so the rank is
    unchanged.  Over F_p a new pivot row is normalized to ``a = 1`` and
    every entry is reduced mod p.  Over Q each incoming row is first scaled
    by the lcm of its denominators, which leaves the rank unchanged too, so
    no ``Fraction`` arithmetic follows (fraction free, in the manner of
    Bareiss); when ``a/g`` is not +-1 the row's content (the gcd of its
    entries) is divided out, which keeps the entries from growing.
    """
    p = field.char
    pivots: Dict[int, Tuple[int, Vec]] = {}
    rank = 0
    for row in rows:
        if p:
            r = dict(row)
        else:
            den = lcm(*(v.denominator for v in row.values()))
            r = {k: v.numerator * (den // v.denominator) for k, v in row.items()}
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
                rank += 1
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
    return rank
