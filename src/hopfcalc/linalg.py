"""Sparse exact linear and multilinear algebra.

Vectors are zero-omitting dicts ``{index: scalar}``.  A ``Matrix`` is
stored in one of two forms.  A kernel result -- a Kronecker product, a
matrix product, an identity, or a matrix built by ``from_columns_csr`` --
stores its canonical int64 CSR: column indices sorted within each row, no
duplicate and no explicit zero, entries reduced to [0, p) over F_p.
A sum, a difference or a multiple of such matrices
stores its CSR too.  Anything else stores a dict ``{(row, col): scalar}``.
Reads (``entries``, ``columns``, ``apply``, ``get``, ``==``, ...) work on
either form and leave it as it is; an entry read from the CSR is a Python
int.  The first access to ``Matrix.data`` turns a matrix into the dict
form for good and drops its CSR and every cache, so a write through
``data`` is always seen; its values are field scalars (``Fraction`` over
Q), as in a matrix that was built as a dict.

The kernels work on int64 CSR arrays when every entry is an integer
(always true for the structure constants of the built-in algebras) and a
bound on the result stays below ``_INT64_SAFE``; a dict operand is
converted once and its CSR cached.  Otherwise they fall back to
pure-Python sparse arithmetic.  The kernels call scipy's compiled
sparsetools routines on the arrays directly: the ``scipy.sparse`` classes
wrap each call in checks and conversions that cost more than the
arithmetic on the small matrices of most verdicts (a 16 x 16 product on a
2-vCPU VM: ~110 us through ``csr_matrix``, ~9 us direct).

On sparse vectors each operation has one kernel: ``bilinear`` applies a
bilinear map given on basis pairs (a multiplication, an action),
``linear`` a linear map given by its basis images (a coproduct, a
coaction), ``pairing`` a covector (a counit, a character), and
``column_echelon`` is the field echelon behind
``Matrix.inverse`` and the coordinates of ``echelon_coords``.  Rank is
the exception, ``_sparse_rank``: exact sparse Gaussian elimination in
integers, modular over F_p and fraction free over Q, kept apart from the
field echelon because it is the hot path of homology and never builds a
``Fraction``.

Tensor indices over a list of factor dimensions are flattened big-endian
lexicographically: ``flat = sum(idx[i] * prod(dims[i+1:]))``.  The same
convention is used by every module in the package; differentials would
silently disagree otherwise.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
from scipy.sparse import _sparsetools

from .fields import Field

Vec = Dict[int, object]

# A CSR triple (indptr, indices, data) of int64 arrays; its Matrix keeps the
# shape.
CSR = Tuple[np.ndarray, np.ndarray, np.ndarray]

# Threshold above which an int64 product might overflow; beyond it we fall
# back to exact Python arithmetic.
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


def bilinear(field: Field, table: Dict[Tuple[int, int], Vec], u: Vec, v: Vec) -> Vec:
    """The bilinear map with ``table[(i, j)]`` the image of the basis pair
    (i, j), applied to ``(u, v)``; a missing pair maps to 0."""
    out: Vec = {}
    for i, ci in u.items():
        for j, cj in v.items():
            img = table.get((i, j))
            if img:
                vec_add(field, out, img, field.mul(ci, cj))
    return out


def linear(field: Field, cols: Sequence[Vec], v: Vec) -> Vec:
    """The linear map with ``cols[i]`` the image of basis vector i, applied
    to ``v``."""
    out: Vec = {}
    for i, c in v.items():
        vec_add(field, out, cols[i], c)
    return out


def pairing(field: Field, w: Dict[int, object], v: Vec):
    """The covector with values ``w`` on the basis, evaluated at ``v``."""
    acc = field.zero()
    for i, c in v.items():
        acc = field.add(acc, field.mul(w.get(i, field.zero()), c))
    return acc


def column_echelon(field: Field, cols: Iterable[Vec]) -> Tuple[List[Vec], List[int]]:
    """Reduced (echelon) basis of the column space, with pivot rows: each
    basis vector is 1 at its pivot, the smallest row it touches, and 0 at
    every other pivot; sorted by pivot."""
    basis: List[Vec] = []
    pivots: List[int] = []
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


def echelon_coords(field: Field, v: Vec, basis: List[Vec],
                   pivots: List[int]) -> Vec | None:
    """The coordinates of ``v`` in a ``column_echelon`` basis, or None
    when ``v`` is not in its span."""
    coords: Vec = {}
    rest = {k: c for k, c in v.items() if not field.is_zero(c)}
    for i, (b, p) in enumerate(zip(basis, pivots)):
        c = rest.get(p)
        if c is not None:
            coords[i] = c
            vec_add(field, rest, b, field.neg(c))
    return None if rest else coords


# ---------------------------------------------------------------------------
# int64 CSR kernels
#
# Each takes and returns CSR triples.  They never write to an operand: a
# Matrix stores its CSR read-only, and an identity's CSR is shared.


@lru_cache(maxsize=64)
def _identity_csr(n: int) -> CSR:
    ptr = np.arange(n + 1, dtype=np.int64)
    return ptr, ptr[:n], np.ones(n, dtype=np.int64)


def _csr_kron(a: CSR, a_shape: Tuple[int, int], b: CSR, b_shape: Tuple[int, int],
              p: int) -> CSR:
    """The Kronecker product of ``a`` and ``b`` in canonical form, entries
    reduced mod ``p`` (0 over Q).  Entry e of ``a`` at (i, j) and entry f of
    ``b`` at (k, l) give the entry at (i * b_rows + k, j * b_cols + l);
    listed with e major, the entries of each row come in column order, so
    the counting pass of ``coo_tocsr`` leaves them canonical."""
    ap, aj, ax = a
    bp, bj, bx = b
    (a_rows, a_cols), (b_rows, b_cols) = a_shape, b_shape
    rows = a_rows * b_rows
    row = ((np.arange(a_rows) * b_rows).repeat(ap[1:] - ap[:-1])[:, None]
           + np.arange(b_rows).repeat(bp[1:] - bp[:-1])).ravel()
    col = (aj[:, None] * b_cols + bj).ravel()
    val = (ax[:, None] * bx).ravel()
    if p:
        val %= p
    n = len(val)
    out = (np.empty(rows + 1, dtype=np.int64), np.empty(n, dtype=np.int64),
           np.empty(n, dtype=np.int64))
    _sparsetools.coo_tocsr(rows, a_cols * b_cols, n, row, col, val, *out)
    return out


def _csr_matmul(a: CSR, b: CSR, rows: int, cols: int, p: int) -> CSR:
    """``a @ b`` with entries reduced mod ``p`` (0 over Q) and no zero kept,
    the column indices of each row in the order scipy's ``csr_matmat``
    leaves them, which is not sorted."""
    nnz = _sparsetools.csr_matmat_maxnnz(rows, cols, a[0], a[1], b[0], b[1])
    ptr = np.empty(rows + 1, dtype=np.int64)
    idx = np.empty(nnz, dtype=np.int64)
    val = np.empty(nnz, dtype=np.int64)
    _sparsetools.csr_matmat(rows, cols, *a, *b, ptr, idx, val)
    return _reduced((ptr, idx, val), rows, cols, p)


def _csr_add(a: CSR, b: CSR, rows: int, cols: int, minus: bool = False) -> CSR:
    """``a + b`` (``a - b`` when ``minus``) with no zero kept; canonical when
    both are.  The routine reads the shapes from its arguments only, so a
    caller checks that both operands have them."""
    nnz = len(a[2]) + len(b[2])
    ptr = np.empty(rows + 1, dtype=np.int64)
    idx = np.empty(nnz, dtype=np.int64)
    val = np.empty(nnz, dtype=np.int64)
    op = _sparsetools.csr_minus_csr if minus else _sparsetools.csr_plus_csr
    op(rows, cols, *a, *b, ptr, idx, val)
    return _trimmed(ptr, idx, val)


def _reduced(csr: CSR, rows: int, cols: int, p: int) -> CSR:
    """``csr``, a kernel's scratch arrays, with its entries reduced mod ``p``
    (0 over Q) and the zeros that leaves dropped, in place; trimmed."""
    ptr, idx, val = csr
    if p:
        val %= p
        _sparsetools.csr_eliminate_zeros(rows, cols, ptr, idx, val)
    return _trimmed(ptr, idx, val)


def _trimmed(ptr, idx, val) -> CSR:
    """The arrays cut to their ``ptr[-1]`` entries, as views."""
    n = int(ptr[-1])
    return ptr, idx[:n], val[:n]


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Zero-omitting sparse matrix over an exact field, stored as a dict or
    as canonical int64 CSR (module docstring)."""

    __slots__ = ("rows", "cols", "field", "_dict", "_csr", "_maxabs", "_csc", "_cols")

    def __init__(self, rows: int, cols: int, field: Field,
                 data: Dict[Tuple[int, int], object] | None = None):
        self.rows, self.cols, self.field = rows, cols, field
        # prune explicit zeros so equality is structural
        self._dict = ({k: v for k, v in data.items() if not field.is_zero(v)}
                      if data else {})
        self._drop_caches()

    def _drop_caches(self) -> None:
        # _csr is the storage when _dict is None; otherwise it caches the
        # dict's int64 form: False until computed, None when there is none
        self._csr = False
        self._maxabs = self._csc = self._cols = None

    @classmethod
    def _of_csr(cls, rows: int, cols: int, field: Field, csr: CSR,
                maxabs: int | None = None) -> "Matrix":
        """A matrix stored as the canonical CSR ``csr``, made read-only;
        ``maxabs`` is its largest absolute entry when already known."""
        for a in csr:
            a.flags.writeable = False
        m = cls.__new__(cls)
        m.rows, m.cols, m.field = rows, cols, field
        m._dict = None
        m._csr = csr
        m._maxabs = maxabs
        m._csc = m._cols = None
        return m

    @property
    def data(self) -> Dict[Tuple[int, int], object]:
        """The entries as a mutable dict ``{(row, col): scalar}``.  Access
        turns the matrix into the dict form for good and drops every cached
        form, so a write through it is seen by every later read."""
        self._dict = self._as_dict()
        self._drop_caches()
        return self._dict

    def entries(self) -> Iterable[Tuple[Tuple[int, int], object]]:
        """The nonzero entries as ``((row, col), scalar)`` pairs, in
        row-major order for the CSR form; reading them changes nothing."""
        if self._dict is not None:
            return self._dict.items()
        ptr, idx, val = self._csr
        rows = np.repeat(np.arange(self.rows), ptr[1:] - ptr[:-1])
        return zip(zip(rows.tolist(), idx.tolist()), val.tolist())

    def _as_dict(self) -> Dict[Tuple[int, int], object]:
        """The entries as a dict of field scalars to read, not to write: the
        stored dict, or one built from the CSR."""
        if self._dict is not None:
            return self._dict
        if self.field.char:
            return dict(self.entries())
        return {k: Fraction(v) for k, v in self.entries()}

    def _nnz(self) -> int:
        return len(self._dict) if self._dict is not None else len(self._csr[2])

    @classmethod
    def zero(cls, rows: int, cols: int, field: Field) -> "Matrix":
        return cls(rows, cols, field)

    @classmethod
    def identity(cls, n: int, field: Field) -> "Matrix":
        return cls._of_csr(n, n, field, _identity_csr(n), min(n, 1))

    @classmethod
    def from_columns_csr(cls, cols: List[Vec], rows: int, field: Field) -> "Matrix":
        """``from_columns``, stored as canonical int64 CSR when every entry
        is an integer below ``_INT64_SAFE`` in absolute value.  Taken column
        by column, the entries of each row arrive in column order, so no
        sort is needed."""
        p = field.char
        by_row: List[List[Tuple[int, int]]] = [[] for _ in range(rows)]
        for j, col in enumerate(cols):
            for i, v in col.items():
                if p:
                    v %= p
                elif v.denominator != 1:
                    return cls.from_columns(cols, rows, field)
                else:
                    v = v.numerator
                if v:
                    by_row[i].append((j, v))
        entries = [e for r in by_row for e in r]
        maxabs = max((abs(v) for _, v in entries), default=0)
        if maxabs >= _INT64_SAFE:
            return cls.from_columns(cols, rows, field)
        ptr = np.array(list(accumulate((len(r) for r in by_row), initial=0)),
                       dtype=np.int64)
        idx = np.array([j for j, _ in entries], dtype=np.int64)
        val = np.array([v for _, v in entries], dtype=np.int64)
        return cls._of_csr(rows, len(cols), field, (ptr, idx, val), maxabs)

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

    def _init_column(self, j: int, col: Vec) -> None:
        """Write a column known to be empty, skipping the stale-entry scan.
        Only for freshly built matrices whose columns are set once."""
        data = self.data
        for i, v in col.items():
            if not self.field.is_zero(v):
                data[(i, j)] = v

    def column(self, j: int) -> Vec:
        return dict(self._column(j))

    def columns(self) -> List[Vec]:
        if self._dict is None:
            ptr, idx, val = (a.tolist() for a in self._csc_arrays())
            return [dict(zip(idx[s:e], val[s:e])) for s, e in zip(ptr, ptr[1:])]
        out: List[Vec] = [dict() for _ in range(self.cols)]
        for (i, j), v in self._dict.items():
            out[j][i] = v
        return out

    def _column(self, j: int) -> Vec:
        """Column j, cached and not to be written; the CSR form converts
        only the columns asked for."""
        cols = self._cols
        if cols is None:
            cols = self._cols = ([None] * self.cols if self._dict is None
                                 else self.columns())
        col = cols[j]
        if col is None:
            ptr, idx, val = self._csc_arrays()
            s, e = ptr[j], ptr[j + 1]
            col = cols[j] = dict(zip(idx[s:e].tolist(), val[s:e].tolist()))
        return col

    def _csc_arrays(self) -> CSR:
        """The CSC form of the stored CSR, rows sorted within each column."""
        if self._csc is None:
            ptr, idx, val = self._csr
            n = len(val)
            csc = (np.empty(self.cols + 1, dtype=np.int64),
                   np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))
            _sparsetools.csr_tocsc(self.rows, self.cols, ptr, idx, val, *csc)
            self._csc = csc
        return self._csc

    def get(self, i: int, j: int):
        if self._dict is not None:
            return self._dict.get((i, j), self.field.zero())
        ptr, idx, val = self._csr
        s, e = ptr[i], ptr[i + 1]
        k = s + int(np.searchsorted(idx[s:e], j))
        return int(val[k]) if k < e and idx[k] == j else self.field.zero()

    def is_zero(self) -> bool:
        return self._nnz() == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self._dict is None and other._dict is None:
            return all(np.array_equal(x, y) for x, y in zip(self._csr, other._csr))
        return self._as_dict() == other._as_dict()

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, True)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, False)

    def _combine(self, other: "Matrix", minus: bool) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        f = self.field
        a, b = self._to_csr(), other._to_csr()
        if (a is not None and b is not None
                and self._max_abs() + other._max_abs() < _INT64_SAFE):
            ptr, idx, val = _reduced(_csr_add(a, b, self.rows, self.cols, minus),
                                     self.rows, self.cols, f.char)
            return Matrix._of_csr(self.rows, self.cols, f, (ptr, idx.copy(), val.copy()))
        op = f.sub if minus else f.add
        data = dict(self._as_dict())
        for k, v in other.entries():
            acc = op(data.get(k, f.zero()), v)
            if f.is_zero(acc):
                data.pop(k, None)
            else:
                data[k] = acc
        return Matrix(self.rows, self.cols, f, data)

    def scale(self, c) -> "Matrix":
        """``c`` times the matrix, for a field scalar ``c``."""
        f = self.field
        a = self._to_csr()
        if (a is not None and Fraction(c).denominator == 1
                and abs(int(c)) * self._max_abs() < _INT64_SAFE):
            c = int(c) % f.char if f.char else int(c)
            if not c:
                a = (np.zeros(self.rows + 1, dtype=np.int64), a[1][:0], a[2][:0])
            # over F_p, c and every entry are units, so no product is 0
            val = a[2] * c % f.char if f.char else a[2] * c
            return Matrix._of_csr(self.rows, self.cols, f, (a[0], a[1], val),
                                  None if f.char else abs(c) * self._max_abs())
        return Matrix(self.rows, self.cols, f,
                      {k: f.mul(c, v) for k, v in self.entries()})

    # -- products -----------------------------------------------------------

    def _to_csr(self) -> "CSR | None":
        """The canonical int64 CSR: the storage of a kernel result, or the
        dict form converted once and cached.  None when an entry is not an
        integer or its absolute value reaches ``_INT64_SAFE``."""
        if self._csr is False:
            self._csr = self._dict_to_csr()
        return self._csr

    def _dict_to_csr(self) -> "CSR | None":
        d = self._dict
        p = self.field.char
        vals = d.values()
        if not p:
            if any(v.denominator != 1 for v in vals):
                return None
            vals = (v.numerator for v in vals)
        n = len(d)
        try:
            val = np.fromiter(vals, dtype=np.int64, count=n)
        except OverflowError:
            return None
        if p:
            val %= p
        elif n and (val.max() >= _INT64_SAFE or val.min() <= -_INT64_SAFE):
            return None
        ij = np.fromiter(chain.from_iterable(d), dtype=np.int64,
                         count=2 * n).reshape(n, 2)
        # the sparsetools routines do not check indices
        if n and (ij.min() < 0 or ij[:, 0].max() >= self.rows
                  or ij[:, 1].max() >= self.cols):
            raise ValueError("matrix entry index out of range")
        order = np.argsort(ij[:, 0] * self.cols + ij[:, 1])
        order = order[val[order] != 0]      # a zero written through .data
        ptr = np.zeros(self.rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(ij[order, 0], minlength=self.rows), out=ptr[1:])
        return ptr, ij[order, 1], val[order]

    def _max_abs(self) -> int:
        """The largest absolute entry of the int64 form, which must exist."""
        if self._maxabs is None:
            val = self._to_csr()[2]
            self._maxabs = int(np.abs(val).max()) if len(val) else 0
        return self._maxabs

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if self.field != other.field:
            raise ValueError("field mismatch")
        a, b = self._to_csr(), other._to_csr()
        # crude overflow bound: |entry| <= maxA * maxB * inner_dim
        if (a is not None and b is not None and self._max_abs()
                * max(other._max_abs(), 1) * max(self.cols, 1) < _INT64_SAFE):
            ptr, idx, val = _csr_matmul(a, b, self.rows, other.cols, self.field.char)
            # copies, so that a stored result keeps no scratch buffer alive
            idx, val = idx.copy(), val.copy()
            _sparsetools.csr_sort_indices(self.rows, ptr, idx, val)
            return Matrix._of_csr(self.rows, other.cols, self.field, (ptr, idx, val))
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
        acc: Vec = {}
        for k, c in v.items():
            vec_add(f, acc, self._column(k), c)
        return acc

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, consistent with big-endian index flattening."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        f = self.field
        rows, cols = self.rows * other.rows, self.cols * other.cols
        a, b = self._to_csr(), other._to_csr()
        bound = self._max_abs() * other._max_abs() if a is not None and b is not None else None
        if bound is not None and bound < _INT64_SAFE:
            # over Q the bound is the largest entry of the product
            return Matrix._of_csr(rows, cols, f, _csr_kron(
                a, (self.rows, self.cols), b, (other.rows, other.cols), f.char),
                None if f.char else bound)
        theirs = list(other.entries())
        data = {}
        for (i, j), u in self.entries():
            for (k, l), v in theirs:
                data[(i * other.rows + k, j * other.cols + l)] = f.mul(u, v)
        return Matrix(rows, cols, f, data)

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        return _sparse_rank(self.field, self.columns())

    def inverse(self) -> "Matrix | None":
        """Exact inverse, or None if singular.  The stacked columns [A; I]
        span the graph {(Ax, x)}; their reduced column echelon has the
        pivots 0..n-1 exactly when A is invertible, and then basis vector k
        is (e_k, A^-1 e_k)."""
        n, f = self.rows, self.field
        if n != self.cols:
            return None
        basis, pivots = column_echelon(
            f, ({**col, n + j: f.one()} for j, col in enumerate(self.columns())))
        if pivots != list(range(n)):
            return None
        return Matrix.from_columns([{i - n: v for i, v in b.items() if i >= n}
                                    for b in basis], n, f)

    def nonzero_witness(self) -> Tuple[int, int, object] | None:
        """The first nonzero entry (row, col, value) in row-major order, or
        None if the matrix is 0."""
        ordered = self.entries() if self._dict is None else sorted(self._dict.items())
        for (i, j), v in ordered:
            return (i, j, v)
        return None

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field}, nnz={self._nnz()})"


def column_witness(lhs: Matrix, rhs: Matrix, dims: Sequence[int]) -> "dict | None":
    """None when ``lhs == rhs``; otherwise the witness ``{"basis",
    "defect"}`` of the first column where they differ: its index decoded
    over ``dims``, and that column of lhs - rhs, the one difference
    computed."""
    if lhs == rhs:
        return None
    d, f = lhs - rhs, lhs.field
    j = min(j for (_, j), _ in d.entries())
    return {"basis": tensor_decode(j, dims),
            "defect": {i: f.of(v) for i, v in d.column(j).items()}}


def identity_defect_witness(field: Field, terms) -> "Tuple[int, int, object] | None":
    """First nonzero entry of ``sum(coeff * prod(factors))``, or None.

    ``terms`` is a list of ``(coeff, factors)`` with integer coefficients;
    each factor is a Matrix or a pair ``(A, B)`` standing for their Kronecker
    product.  Used by the DGA verifiers, where the defect matrices are huge
    but (when the identity holds) identically zero; everything stays in
    int64 CSR when the entries are integral, with a pure-python fallback.
    """
    acc = _int64_defect(field, terms)
    if acc is not None:
        ptr, idx, val = acc
        if field.char:
            val = val % field.char
        nonzero = np.flatnonzero(val)
        if not len(nonzero):
            return None
        k = int(nonzero[0])
        row = int(np.searchsorted(ptr, k, side="right")) - 1
        return (row, int(idx[k]), field.of(int(val[k])))
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


def _int64_defect(field: Field, terms) -> "CSR | None":
    """``sum(coeff * prod(factors))`` as int64 CSR arrays, or None when an
    entry is not an integer or a bound on the entries, of every partial
    product and of the running sum, reaches ``_INT64_SAFE``.  Products and
    sums leave the column indices of a row in scipy's order, so the first
    nonzero entry of the result is the one scipy's own operators give."""
    p = field.char
    total = 0
    acc = shape = None
    for coeff, factors in terms:
        m = bound = None
        for fac in factors:
            pair = fac if isinstance(fac, tuple) else (fac,)
            mats = [x._to_csr() for x in pair]
            if any(x is None for x in mats):
                return None
            fac_bound = 1
            for x in pair:
                fac_bound *= x._max_abs()
            if fac_bound >= _INT64_SAFE:
                return None
            if len(pair) == 1:
                fac_csr, fac_shape = mats[0], (fac.rows, fac.cols)
            else:
                x, y = pair
                fac_csr = _csr_kron(mats[0], (x.rows, x.cols), mats[1], (y.rows, y.cols), p)
                fac_shape = (x.rows * y.rows, x.cols * y.cols)
            if m is None:
                m, bound, m_shape = fac_csr, fac_bound, fac_shape
                continue
            if m_shape[1] != fac_shape[0]:
                raise ValueError("shape mismatch in matrix product")
            bound = bound * fac_bound * max(m_shape[1], 1)
            if bound >= _INT64_SAFE:
                return None
            m_shape = (m_shape[0], fac_shape[1])
            m = _csr_matmul(m, fac_csr, *m_shape, p)
            if p:
                bound = p - 1
        total += abs(coeff) * bound
        if total >= _INT64_SAFE:
            return None
        term = (m[0], m[1], m[2] * coeff)
        if acc is None:
            acc, shape = term, m_shape
        elif shape != m_shape:
            raise ValueError("shape mismatch")
        else:
            acc = _csr_add(acc, term, *shape)
    return acc


def _sparse_rank(field: Field, rows: Iterable[Vec]) -> int:
    """Rank by sparse Gaussian elimination in integers.

    Kept apart from ``column_echelon``: it is most of a homology run
    (~2.2 s of the 2.65 s that the 17 ``cotor_homology`` benchmark lines
    spend in-process on a 2-vCPU VM), and it never builds a ``Fraction``.

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
