"""Sparse exact linear and multilinear algebra.

Vectors are zero-omitting dicts ``{index: scalar}``.  A ``Matrix`` is
stored one way, as canonical CSR: column indices sorted within each row,
no duplicate and no zero.  Its value array has one of two types, which
its entries decide.  It is int64, reduced to [0, p) over F_p, when every
entry is an integer below ``_INT64_SAFE`` in absolute value (always true
for the structure constants of the built-in algebras); otherwise it is an
object array of field scalars, the exact fallback.  Reads (``entries``,
``columns``, ``apply``, ``get``, ``==``, ...) give an int64 entry as a
Python int.  ``Matrix.data`` builds a new dict ``{(row, col): scalar}``
of field scalars (``Fraction`` over Q) on each call, and writing to it
changes nothing.

The kernels work on the int64 arrays when both operands have them and a
bound on the result stays below ``_INT64_SAFE``.  Otherwise they fall
back to pure-Python sparse arithmetic, whose result goes through the
constructor and so takes the value type its entries decide.  The kernels
call scipy's compiled sparsetools routines on the arrays directly: the
``scipy.sparse`` classes wrap each call in checks and conversions that
cost more than the arithmetic on the small matrices of most verdicts (a
16 x 16 product on a 2-vCPU VM: ~110 us through ``csr_matrix``, ~9 us
direct).  That compiled ``_sparsetools`` extension is all scipy supplies.
It is loaded by file path (``_load_sparsetools``), which skips the
``scipy.sparse`` package init, ~300 ms of a command's start-up, and
falls back to the package import when the direct load fails.  What
start-up still costs is numpy (90-130 ms), ``site`` (45-60 ms, the
environment's ``.pth`` files) and, where no valid ``__pycache__``
exists, 50-90 ms compiling hopfcalc's sources, on a 2-vCPU VM.

On sparse vectors each operation has one kernel: ``bilinear`` applies a
bilinear map given on basis pairs (a multiplication, an action) and
``bilinear_matrix`` turns the same table into a matrix,
``Matrix.from_columns`` a linear map given by its basis images (a
coproduct, a coaction), ``pairing`` evaluates a covector (a counit, a
character) and ``pairing_matrix`` turns it into a row.

Elimination has one forward pass, ``_echelon``: exact sparse Gaussian
elimination in integers, modular over F_p and fraction free over Q, run
on a matrix's CSC arrays in rounds.  A column's lead is its first stored
row.  A lead that no pivot has yet takes its lowest-indexed column as its
pivot; then every other column is reduced by the pivot at its lead, all
at once (``_reduce``): gather the pivot entries, scale them, sort by
(column, row), sum each run with ``np.add.reduceat``, reduce mod p and
drop the zeros.  Pivots never change and each reduction raises a
column's lead, so the span is kept and at most ``rows`` rounds run.  Over
Q a round that scales some column divides out the content of every column
(``np.gcd.reduceat``), and once a bound on a round's products reaches
``_INT64_SAFE`` the values move from int64 to object arrays, on which the
same numpy calls run in exact Python integers.  ``Matrix.rank`` counts
the pivots; ``column_echelon`` reduces them, by back substitution in
rounds of the same kernel, to the reduced column echelon basis behind
``Matrix.inverse`` and ``groupoid_decompose``.

``identity_defect_witness``, behind every DGA line, builds the defect of a
matrix identity with the ``Matrix`` operators alone (``kron``, ``@``,
``scale``, ``+``, ``==``, ``-``), so it has no kernel of its own; its
witness is the first nonzero entry of the defect in row-major order,
whichever value type the arithmetic took.

Tensor indices over a list of factor dimensions are flattened big-endian
lexicographically: ``flat = sum(idx[i] * prod(dims[i+1:]))``.  The same
convention is used by every module in the package; differentials would
silently disagree otherwise.
"""
from __future__ import annotations

import importlib.util
import os
import sys
from fractions import Fraction
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from itertools import accumulate, chain
from math import prod
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .fields import Field

Vec = Dict[int, object]

# A CSR triple (indptr, indices, data): int64 index arrays, and values that
# are int64 or, in a Matrix that holds the exact fallback, objects; its
# Matrix keeps the shape.
CSR = Tuple[np.ndarray, np.ndarray, np.ndarray]

# Threshold above which an int64 product might overflow; beyond it we fall
# back to exact Python arithmetic.
_INT64_SAFE = 2**62

# Arrays up to this many entries in all are compared as bytes (``Matrix.__eq__``).
_SMALL = 4096

# The sparsetools routines the kernels call.
_SPARSETOOLS_ROUTINES = ("coo_tocsr", "csr_matmat_maxnnz", "csr_matmat", "csr_plus_csr",
                         "csr_minus_csr", "csr_eliminate_zeros", "csr_sort_indices",
                         "csr_tocsc")


def _load_sparsetools():
    """scipy's compiled ``_sparsetools`` extension, loaded from its file.

    The file is found through scipy's package path, which ``find_spec``
    reads without importing ``scipy``, so the ``scipy.sparse`` package
    init (~300 ms, most of a command's start-up) never runs.  The
    extension registers itself in ``sys.modules`` as it loads; that entry
    is put back as it was, so a later ``import scipy.sparse`` loads the
    module in its usual place.  When the file is missing, fails to load or
    lacks a routine of ``_SPARSETOOLS_ROUTINES``, the package import
    supplies the module: a change of scipy's layout costs start-up time,
    never an answer."""
    name = "scipy.sparse._sparsetools"
    spec = importlib.util.find_spec("scipy")
    folders = (spec.submodule_search_locations or []) if spec is not None else []
    for path in (os.path.join(folder, "sparse", "_sparsetools" + suffix)
                 for folder in folders for suffix in EXTENSION_SUFFIXES):
        if not os.path.isfile(path):
            continue
        prior = sys.modules.get(name)
        loader = ExtensionFileLoader(name, path)
        try:
            module = loader.create_module(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
        except (ImportError, OSError):
            continue
        finally:
            if prior is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = prior
        if all(hasattr(module, routine) for routine in _SPARSETOOLS_ROUTINES):
            return module
    from scipy.sparse import _sparsetools
    return _sparsetools


_sparsetools = _load_sparsetools()


# ---------------------------------------------------------------------------
# tensor index flattening


def tensor_encode(indices: Sequence[int], dims: Sequence[int]) -> int:
    """Flatten a multi-index big-endian lexicographically; an index out of
    range, or a length that differs from ``dims``, is a ``ValueError``."""
    return int(np.ravel_multi_index(tuple(indices), dims))


def tensor_decode(flat: int, dims: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of :func:`tensor_encode`; a flat index out of range is a
    ``ValueError``."""
    return tuple(int(i) for i in np.unravel_index(flat, dims))


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


def pairing(field: Field, w: Dict[int, object], v: Vec):
    """The covector with values ``w`` on the basis, evaluated at ``v``."""
    acc = field.zero()
    for i, c in v.items():
        acc = field.add(acc, field.mul(w.get(i, field.zero()), c))
    return acc


# ---------------------------------------------------------------------------
# int64 CSR kernels
#
# Each takes and returns int64 CSR triples.  They never write to an operand: a
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
    the counting pass of ``coo_tocsr`` leaves them canonical.

    When every row of ``a`` has at most one entry (I (x) A, the largest
    Kronecker products of the coefficient complexes), or ``b`` has one
    row, the e-major list is already in row order: row i of ``a`` then
    gives the rows i * b_rows .. (i + 1) * b_rows - 1 in turn, or the one
    row i.  Then ptr is read off ``ap`` and ``bp`` directly, and the
    counting pass and its scratch arrays are skipped."""
    ap, aj, ax = a
    bp, bj, bx = b
    (a_rows, a_cols), (b_rows, b_cols) = a_shape, b_shape
    rows = a_rows * b_rows
    a_cnt = ap[1:] - ap[:-1]
    col = (aj[:, None] * b_cols + bj).ravel()
    val = (ax[:, None] * bx).ravel()
    if p:
        val %= p
    # more entries than rows put two in some row, with no pass over a_cnt
    if b_rows == 1 or len(ax) <= a_rows and not (a_cnt > 1).any():
        # row (i, k) starts after ap[i] whole copies of b and a_cnt[i] copies
        # of b's rows before k: ptr = ap[i] * nnz(b) + a_cnt[i] * bp[k]
        ptr = np.empty(rows + 1, dtype=np.int64)
        block = ptr[:-1].reshape(a_rows, b_rows)
        np.multiply(a_cnt[:, None], bp[:-1], out=block)
        block += ap[:-1, None] * len(bx)
        ptr[-1] = len(val)
        return ptr, col, val
    row = ((np.arange(a_rows) * b_rows).repeat(a_cnt)[:, None]
           + np.arange(b_rows).repeat(bp[1:] - bp[:-1])).ravel()
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


def _transposed(rows: int, cols: int, ptr: np.ndarray, idx: np.ndarray) -> CSR:
    """The CSR pattern (ptr, idx) of a rows x cols matrix transposed, indices
    sorted, with the number of the entry each comes from in place of its
    value: so it carries values of either type."""
    n = len(idx)
    out = (np.empty(cols + 1, dtype=np.int64), np.empty(n, dtype=np.int64),
           np.empty(n, dtype=np.int64))
    _sparsetools.csr_tocsc(rows, cols, ptr, idx, np.arange(n, dtype=np.int64), *out)
    return out


def _trimmed(ptr, idx, val) -> CSR:
    """The arrays cut to their ``ptr[-1]`` entries in place, so that a
    stored result keeps no scratch space alive.  They are a kernel's own
    scratch arrays: nothing else refers to them, so no view is left
    pointing into a buffer that the resize moves."""
    n = int(ptr[-1])
    idx.resize(n, refcheck=False)
    val.resize(n, refcheck=False)
    return ptr, idx, val


# ---------------------------------------------------------------------------
# matrices


def _value_array(vals: List) -> np.ndarray:
    """Field scalars as an int64 array when each is an integer below
    ``_INT64_SAFE`` in absolute value, otherwise as an object array."""
    nums = [v.numerator for v in vals
            if v.denominator == 1 and -_INT64_SAFE < v.numerator < _INT64_SAFE]
    if len(nums) == len(vals):
        return np.array(nums, dtype=np.int64)
    return np.array(vals, dtype=object)


class Matrix:
    """Zero-omitting sparse matrix over an exact field, stored as canonical
    CSR with int64 or object values (module docstring)."""

    __slots__ = ("rows", "cols", "field", "_csr", "_maxabs", "_csc", "_cols")

    def __init__(self, rows: int, cols: int, field: Field,
                 data: Dict[Tuple[int, int], object] | None = None):
        """The matrix with the entries ``{(row, col): value}`` of ``data``:
        every index is checked (``ValueError``), each value is taken into
        the field and the zeros are dropped."""
        data = data or {}
        n = len(data)
        ij = np.fromiter(chain.from_iterable(data), dtype=np.int64,
                         count=2 * n).reshape(n, 2)
        # the sparsetools routines do not check indices
        if n and (ij.min() < 0 or ij[:, 0].max() >= rows or ij[:, 1].max() >= cols):
            raise ValueError("matrix entry index out of range")
        val = _value_array([field.of(v) for v in data.values()])
        order = np.argsort(ij[:, 0] * cols + ij[:, 1])
        order = order[val[order] != 0]
        ptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(ij[order, 0], minlength=rows), out=ptr[1:])
        self._store(rows, cols, field, (ptr, ij[order, 1], val[order]))

    def _store(self, rows: int, cols: int, field: Field, csr: CSR,
               maxabs: int | None = None) -> None:
        """Store the canonical CSR ``csr``, made read-only; ``maxabs`` is its
        largest absolute entry when already known, read over Q only
        (``_max_abs``)."""
        for a in csr:
            a.setflags(write=False)
        self.rows, self.cols, self.field = rows, cols, field
        self._csr, self._maxabs = csr, maxabs
        self._csc = self._cols = None

    @classmethod
    def _of_csr(cls, rows: int, cols: int, field: Field, csr: CSR,
                maxabs: int | None = None) -> "Matrix":
        """A matrix stored as the canonical CSR ``csr`` (``_store``)."""
        m = cls.__new__(cls)
        m._store(rows, cols, field, csr, maxabs)
        return m

    @property
    def data(self) -> Dict[Tuple[int, int], object]:
        """The entries as a new dict ``{(row, col): scalar}`` of field
        scalars (``Fraction`` over Q) on each call; writing to it changes
        nothing."""
        if self.field.char or self._to_csr() is None:
            return dict(self.entries())
        return {k: Fraction(v) for k, v in self.entries()}

    def entries(self) -> Iterable[Tuple[Tuple[int, int], object]]:
        """The nonzero entries as ``((row, col), scalar)`` pairs in row-major
        order; an int64 entry is read as a Python int."""
        ptr, idx, val = self._csr
        rows = np.repeat(np.arange(self.rows), ptr[1:] - ptr[:-1])
        return zip(zip(rows.tolist(), idx.tolist()), val.tolist())

    def _nnz(self) -> int:
        return len(self._csr[2])

    @classmethod
    def zero(cls, rows: int, cols: int, field: Field) -> "Matrix":
        ptr, empty = np.zeros(rows + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return cls._of_csr(rows, cols, field, (ptr, empty, empty), 0)

    @classmethod
    def identity(cls, n: int, field: Field) -> "Matrix":
        return cls._of_csr(n, n, field, _identity_csr(n), min(n, 1))

    @classmethod
    def flip(cls, m: int, n: int, field: Field) -> "Matrix":
        """The tensor flip N (x) M <- M (x) N, e_i (x) e_j -> e_j (x) e_i."""
        # row j * m + i holds its one entry, at column i * n + j
        idx = (np.arange(m, dtype=np.int64) * n + np.arange(n, dtype=np.int64)[:, None]).ravel()
        return cls._of_csr(m * n, m * n, field, (np.arange(m * n + 1, dtype=np.int64), idx,
                                                 np.ones(m * n, dtype=np.int64)), min(m * n, 1))

    @classmethod
    def from_columns(cls, cols: List[Vec], rows: int, field: Field) -> "Matrix":
        """The matrix with the columns ``cols`` of field scalars; every row
        index is checked (``ValueError``).  Taken column by column, the
        entries of each row arrive in column order, so the int64 form needs
        no sort; a value that is not an integer below ``_INT64_SAFE`` in
        absolute value sends the columns to the constructor instead."""
        p = field.char
        by_row: List[List[Tuple[int, object]]] = [[] for _ in range(rows)]
        for j, col in enumerate(cols):
            for i, v in col.items():
                if not 0 <= i < rows:
                    raise ValueError("matrix entry index out of range")
                if p:
                    v %= p
                if v:
                    by_row[i].append((j, v))
        entries = [e for r in by_row for e in r]
        val = _value_array([v for _, v in entries])
        if val.dtype == object:
            return cls(rows, len(cols), field,
                       {(i, j): v for j, col in enumerate(cols) for i, v in col.items()})
        ptr = np.array(list(accumulate((len(r) for r in by_row), initial=0)),
                       dtype=np.int64)
        idx = np.array([j for j, _ in entries], dtype=np.int64)
        return cls._of_csr(rows, len(cols), field, (ptr, idx, val))

    def column(self, j: int) -> Vec:
        return dict(self._column(j))

    def columns(self) -> List[Vec]:
        """The columns as new dicts."""
        ptr, idx, val = (a.tolist() for a in self._csc_arrays())
        return [dict(zip(idx[s:e], val[s:e])) for s, e in zip(ptr, ptr[1:])]

    def _column(self, j: int) -> Vec:
        """Column j, cached and not to be written; only the columns asked
        for are converted."""
        if self._cols is None:
            self._cols = [None] * self.cols
        col = self._cols[j]
        if col is None:
            ptr, idx, val = self._csc_arrays()
            s, e = ptr[j], ptr[j + 1]
            col = self._cols[j] = dict(zip(idx[s:e].tolist(), val[s:e].tolist()))
        return col

    def _csc_arrays(self) -> CSR:
        """The CSC form of the stored CSR, rows sorted within each column.
        ``csr_tocsc`` moves the entry numbers, which then carry the values
        of either type."""
        if self._csc is None:
            ptr, idx, perm = _transposed(self.rows, self.cols, *self._csr[:2])
            self._csc = (ptr, idx, self._csr[2][perm])
        return self._csc

    def get(self, i: int, j: int):
        ptr, idx, val = self._csr
        s, e = ptr[i], ptr[i + 1]
        k = s + int(np.searchsorted(idx[s:e], j))
        return val.item(k) if k < e and idx[k] == j else self.field.zero()

    def is_zero(self) -> bool:
        return self._nnz() == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        (p, i, v), (q, j, w) = self._csr, other._csr
        # the index arrays are int64 (``CSR``), and so are the values of most
        # matrices: on the small matrices of most verdicts their bytes compare
        # several times faster than np.array_equal; a large one compares in
        # place, as its bytes would be a copy of each array
        if v.dtype == w.dtype == np.int64 and len(p) + len(i) <= _SMALL:
            return p.tobytes() == q.tobytes() and i.tobytes() == j.tobytes() and (
                v.tobytes() == w.tobytes())
        return np.array_equal(p, q) and np.array_equal(i, j) and np.array_equal(v, w)

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
            return Matrix._of_csr(self.rows, self.cols, f, (ptr, idx, val))
        op = f.sub if minus else f.add
        data = self.data
        for k, v in other.entries():
            data[k] = op(data.get(k, f.zero()), v)
        return Matrix(self.rows, self.cols, f, data)

    def scale(self, c) -> "Matrix":
        """``c`` times the matrix, for a field scalar ``c``: its Kronecker
        product with the 1 x 1 matrix (c)."""
        return self.kron(Matrix.from_columns([{0: c}], 1, self.field))

    # -- products -----------------------------------------------------------

    def _to_csr(self) -> "CSR | None":
        """The stored CSR when its values are int64, None when they are
        objects."""
        return self._csr if self._csr[2].dtype == np.int64 else None

    def _max_abs(self) -> int:
        """A bound on the absolute entries of the int64 form, which must
        exist: p - 1 over F_p, where every entry lies in [0, p), so that no
        entry is read; over Q the largest absolute entry."""
        if self.field.char:
            return self.field.char - 1
        if self._maxabs is None:
            val = self._to_csr()[2]
            self._maxabs = int(np.abs(val).max()) if len(val) else 0
        return self._maxabs

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")
        a, b = self._to_csr(), other._to_csr()
        # crude overflow bound: |entry| <= maxA * maxB * inner_dim
        if (a is not None and b is not None and self._max_abs()
                * max(other._max_abs(), 1) * max(self.cols, 1) < _INT64_SAFE):
            ptr, idx, val = _csr_matmul(a, b, self.rows, other.cols, self.field.char)
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
        """Kronecker product, consistent with big-endian index flattening.
        Where the product is known, no kernel runs: X (x) I_1 and I_1 (x) X
        are X, and I_m (x) I_n is I_mn."""
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")
        f = self.field
        m, n = _identity_size(self), _identity_size(other)
        if m == 1 or n == 1:
            return other if m == 1 else self
        if m and n:
            return Matrix.identity(m * n, f)
        rows, cols = self.rows * other.rows, self.cols * other.cols
        a, b = self._to_csr(), other._to_csr()
        bound = self._max_abs() * other._max_abs() if a is not None and b is not None else None
        if bound is not None and bound < _INT64_SAFE:
            # over Q the bound is the largest entry of the product
            return Matrix._of_csr(rows, cols, f, _csr_kron(
                a, (self.rows, self.cols), b, (other.rows, other.cols), f.char), bound)
        theirs = list(other.entries())
        data = {}
        for (i, j), u in self.entries():
            for (k, l), v in theirs:
                data[(i * other.rows + k, j * other.cols + l)] = f.mul(u, v)
        return Matrix(rows, cols, f, data)

    def regroup(self, dims: Sequence[int], order: Sequence[int], nrows: int) -> "Matrix":
        """The same entries with the tensor axes permuted.  Read as a tensor
        whose axes have the sizes ``dims``, those of the row index first,
        each index big-endian (``tensor_encode``), the result has the axes
        ``order``: the first ``nrows`` of them index its rows and the rest
        its columns.  No value changes, so one path serves both value types."""
        if prod(dims) != self.rows * self.cols:
            raise ValueError("axis sizes do not match the shape")
        ptr, idx, val = self._csr
        axes = np.unravel_index(np.repeat(np.arange(self.rows), ptr[1:] - ptr[:-1]) * self.cols
                                + idx, dims)
        new = [dims[k] for k in order]
        flat = np.ravel_multi_index([axes[k] for k in order], new)
        perm = np.argsort(flat)
        flat, rows, cols = flat[perm], prod(new[:nrows]), prod(new[nrows:])
        ptr = np.searchsorted(flat, np.arange(0, (rows + 1) * cols, cols))
        return Matrix._of_csr(rows, cols, self.field, (ptr, flat % cols, val[perm]), self._maxabs)

    def submatrix(self, rows: np.ndarray, cols: np.ndarray, closed: bool = False) -> "Matrix":
        """The entries in the rows and the columns where the boolean masks
        ``rows`` and ``cols`` hold, renumbered in order.  With ``closed``, an
        entry in a kept row and a dropped column is a ``ValueError``: the
        quotient map of a complex by a subcomplex spanned by the dropped
        coordinates is such a submatrix.  One mask pass serves both."""
        ptr, idx, val = self._csr
        keep = np.repeat(rows, np.diff(ptr))
        in_rows = np.count_nonzero(keep) if closed else 0
        keep &= cols[idx]
        if closed and np.count_nonzero(keep) != in_rows:
            raise ValueError("a kept row has an entry in a dropped column")
        # the kept entries before each row, read at the rows kept and the end
        ptr = np.concatenate(([0], np.cumsum(keep)))[ptr][np.append(rows, True)]
        return Matrix._of_csr(int(rows.sum()), int(cols.sum()), self.field,
                              (ptr, (np.cumsum(cols) - 1)[idx[keep]], val[keep]))

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        return int(np.count_nonzero(_echelon(self)[1]))

    def inverse(self) -> "Matrix | None":
        """Exact inverse, or None if singular.  The stacked columns [A; I]
        span the graph {(Ax, x)}; their reduced column echelon has the
        pivots 0..n-1 exactly when A is invertible, and then basis vector k
        is (e_k, A^-1 e_k).

        A monomial A, one entry in each row and each column (the antipode
        of every built-in), needs no elimination when its int64 entries have
        int64 inverses (any entry over F_p with p^2 below ``_INT64_SAFE``,
        +-1 over Q): A^-1 is its transpose with each entry inverted, since
        A[i, j] = a puts 1/a at (j, i) and nothing else in row j or column
        i, so A A^-1 = I exactly."""
        n = self.rows
        if n != self.cols:
            return None
        (ptr, idx, val), (eptr, eidx, ones) = self._csr, _identity_csr(n)
        p = self.field.char
        if (len(val) == n and val.dtype == np.int64 and np.array_equal(ptr, eptr)
                and (p * p < _INT64_SAFE if p else (abs(val) == 1).all())):
            perm = idx.argsort()
            if np.array_equal(idx[perm], eidx):
                return Matrix._of_csr(n, n, self.field, (
                    eptr, perm, _inverse_mod(val[perm], p) if p else val[perm]))
        basis, pivots = column_echelon(Matrix._of_csr(2 * n, n, self.field, (
            np.concatenate((ptr, ptr[-1] + eptr[1:])), np.concatenate((idx, eidx)),
            np.concatenate((val, ones)))))
        if pivots != list(range(n)):
            return None
        # the rows n..2n-1 of the basis
        ptr, idx, val = basis._csr
        return Matrix._of_csr(n, n, self.field, (ptr[n:] - ptr[n], idx[ptr[n]:], val[ptr[n]:]))

    def nonzero_witness(self) -> Tuple[int, int, object] | None:
        """The first nonzero entry (row, col, value) in row-major order, or
        None if the matrix is 0."""
        for (i, j), v in self.entries():
            return (i, j, v)
        return None

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field}, nnz={self._nnz()})"


def _identity_size(m: Matrix) -> int:
    """n when ``m`` is ``Matrix.identity(n)``, whose CSR is the shared
    ``_identity_csr(n)``; else 0.  That tuple's indices are a view of its
    ptr, which is tested first, so that no identity is built for a matrix
    that is not one."""
    csr, n = m._csr, m.rows
    return n if n == m.cols and csr[1].base is csr[0] and csr is _identity_csr(n) else 0


def bilinear_matrix(field: Field, table: Dict[Tuple[int, int], Vec], left: int,
                    right: int, rows: int) -> Matrix:
    """The bilinear map of ``table`` (``bilinear``) as the matrix
    rows <- left (x) right."""
    return Matrix.from_columns([table.get((i, j), {}) for i in range(left)
                                    for j in range(right)], rows, field)


def pairing_matrix(field: Field, w: Dict[int, object], dim: int) -> Matrix:
    """The covector ``w`` of ``pairing`` as a 1 x dim row."""
    return Matrix.from_columns([{0: w.get(i, field.zero())} for i in range(dim)], 1, field)


def column_defects(lhs: Matrix, rhs: Matrix, dims: Sequence[int],
                   first: bool = False) -> Dict[tuple, Vec]:
    """The nonzero columns of lhs - rhs, only the first when ``first``,
    each keyed by its index decoded over ``dims``, values through
    ``field.of``; lhs - rhs is computed only when the sides differ."""
    if lhs == rhs:
        return {}
    d, f = lhs - rhs, lhs.field
    idx = d._csr[1]         # the column of each entry; not empty, as lhs != rhs
    js = [int(idx.min())] if first else sorted(set(idx.tolist()))
    return {tensor_decode(j, dims): {i: f.of(v) for i, v in d.column(j).items()}
            for j in js}


def column_witness(lhs: Matrix, rhs: Matrix, dims: Sequence[int]) -> "dict | None":
    """None when ``lhs == rhs``; otherwise the witness ``{"basis",
    "defect"}`` of the first column where they differ (``column_defects``)."""
    for basis, defect in column_defects(lhs, rhs, dims, first=True).items():
        return {"basis": basis, "defect": defect}
    return None


def identity_defect_witness(field: Field, terms) -> "Tuple[int, int, object] | None":
    """The first nonzero entry (row, col, value) in row-major order of
    ``sum(coeff * prod(factors))``, or None when the sum is 0.

    ``terms`` is a list of ``(coeff, factors)`` with integer coefficients;
    each factor is a Matrix or a pair ``(A, B)`` standing for ``A.kron(B)``,
    and a term is the product of its factors through ``@``.  The terms with
    a positive coefficient are summed into one side and the others into the
    other, a side with no term being 0; the sides are compared with ``==``,
    and only when they differ is their difference built.  Every step is a
    ``Matrix`` operator, which picks int64 or exact arithmetic and checks
    the int64 bounds, so the DGA verifiers' defects, huge but 0 when the
    identity holds, stay in int64 CSR whenever their entries allow."""
    sides = [None, None]
    for coeff, factors in terms:
        m = None
        for fac in factors:
            fac = fac[0].kron(fac[1]) if isinstance(fac, tuple) else fac
            m = fac if m is None else m @ fac
        if abs(coeff) != 1:
            m = m.scale(field.of(abs(coeff)))
        k = coeff < 0
        sides[k] = m if sides[k] is None else sides[k] + m
    some = sides[0] if sides[0] is not None else sides[1]
    lhs, rhs = (Matrix.zero(some.rows, some.cols, field) if s is None else s for s in sides)
    if lhs == rhs:
        return None
    i, j, v = (lhs - rhs).nonzero_witness()
    return i, j, field.of(v)


def _runs(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The start and the length of each run of equal values in ``x``."""
    edge = np.empty(len(x) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(x[1:], x[:-1], out=edge[1:-1])
    edge = edge.nonzero()[0]
    return edge[:-1], edge[1:] - edge[:-1]


def _spans(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The positions start[k] .. start[k] + length[k] - 1, for each k in turn."""
    end = length.cumsum()
    return np.arange(end[-1] if len(end) else 0) + (start - end + length).repeat(length)


def _inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """The inverses a^(p-2) mod p of the units ``a`` of F_p (Fermat)."""
    out, e = np.ones_like(a), p - 2
    while e:
        if e & 1:
            out = out * a % p
        a, e = a * a % p, e >> 1
    return out


def _reduce(rows: int, p: int, col, row, val, first, cnt, coeff, lead, start, length,
            src_row, src_val):
    """One elimination round on the columns of (col, row, val), sorted by
    (col, row).  Column k, its ``cnt[k]`` entries from ``first[k]`` on,
    becomes (a/g) * itself - (c/g) * its source, with c = ``coeff[k]``,
    a = ``lead[k]`` and g = gcd(a, c) of the sign of a; its source is the
    entries start[k] .. start[k] + length[k] - 1 of (src_row, src_val).
    ``lead`` is None when every source is 1 at its lead, and then a = g = 1.
    Both parts are sorted by (col, row) together and each run is summed
    (``np.add.reduceat``); the sums are reduced mod p and the zeros
    dropped.  Over Q, when some a/g is not 1, every column's content (the
    gcd of its entries) is divided out, which keeps the entries from
    growing.

    Int64 values stay int64 while 2 * (largest source entry) * (largest
    entry of the columns), which bounds every product and sum of the
    round, is below ``_INT64_SAFE``; otherwise they become objects first,
    on which the same numpy calls run in exact Python integers."""
    at = _spans(start, length)
    add = src_val[at]
    if lead is None:
        add = -coeff.repeat(length) * add
    else:
        if val.dtype == np.int64 and 2 * int(abs(add).max()) * int(abs(val).max()) >= _INT64_SAFE:
            val, add = val.astype(object), add.astype(object)
        g = np.gcd(lead, coeff) * np.sign(lead)
        lead, coeff = lead // g, coeff // g
        val, add = val * lead.repeat(cnt), -coeff.repeat(length) * add
    key = np.concatenate((col * rows + row, col[first].repeat(length) * rows + src_row[at]))
    order = key.argsort(kind="stable")
    key = key[order]
    run = _runs(key)[0]
    val = np.add.reduceat(np.concatenate((val, add))[order], run)
    if p:
        val %= p
    nonzero = val != 0
    col, row = np.divmod(key[run[nonzero]], rows)
    val = val[nonzero]
    if lead is not None and (lead != 1).any():
        first, cnt = _runs(col)
        val = val // np.gcd.reduceat(abs(val), first).repeat(cnt)
    return col, row, val


def _echelon(m: Matrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pivot columns of a forward Gaussian elimination of the columns of
    ``m`` in integers, one per dimension of their span, as (start, length,
    row, val): the pivot with lead i, if there is one, is entries start[i] ..
    start[i] + length[i] - 1 of (row, val), rows ascending, so its lead, the
    smallest row it touches, first.  Over F_p every pivot is 1 at its lead,
    and the values are objects when p^2 reaches ``_INT64_SAFE``.  Over Q a
    pivot is an integer vector in the span and no ``Fraction`` is built
    (fraction free, in the manner of Bareiss): a column given in fractions is
    first scaled by the lcm of its denominators.

    The elimination runs on the CSC arrays in rounds.  Each active column's
    lead is its first stored row.  Where no pivot has that lead yet, the
    lowest-indexed column with it becomes the pivot, over F_p divided by its
    leading entry, and leaves the active columns.  Every other active column
    is then reduced by the pivot at its lead, all at once (``_reduce``):
    r <- (a/g) r - (c/g) pivot, with a the pivot's leading entry, c the
    column's and g = gcd(a, c).  That is a nonzero multiple of r plus a
    multiple of a pivot, so the span is preserved; the entry at the lead
    cancels and no smaller row appears, so the lead rises, and a column that
    reaches 0 leaves.  Pivots never change, so at most ``m.rows`` rounds
    reduce, and at most as many make pivots, one or more each.  Over Q a
    round that scales some column (a/g not 1) divides the content of every
    column out, and a round whose products a bound cannot keep below
    ``_INT64_SAFE`` moves the values to objects first (``_reduce``).  Only
    an arithmetic fault leaves every lead where it was, and then the loop
    would never end: a round that raised no lead is a ``RuntimeError``."""
    p, rows = m.field.char, m.rows
    ptr, row, val = m._csc_arrays()
    col = np.arange(m.cols).repeat(ptr[1:] - ptr[:-1])
    if not p and val.dtype == object:
        first, cnt = _runs(col)
        den = np.array([v.denominator for v in val], dtype=object)
        val = _value_array([v.numerator for v in val * np.lcm.reduceat(den, first).repeat(cnt)])
    elif p * p >= _INT64_SAFE:
        val = val.astype(object)
    start, length = np.zeros(rows, dtype=np.int64), np.zeros(rows, dtype=np.int64)
    prow, pval = row[:0], val[:0]
    prev = None
    while len(col):
        first, cnt = _runs(col)
        lead = row[first]
        # no lead falls, whatever the values; and a pivot round removes a
        # column, so the same leads again mean a round that cancelled none
        if prev is not None and np.array_equal(lead, prev):
            raise RuntimeError("an elimination round raised no column's lead")
        prev = lead
        new = (length[lead] == 0).nonzero()[0]
        if not len(new):
            at = start[lead]
            col, row, val = _reduce(rows, p, col, row, val, first, cnt, val[first],
                                    None if p else pval[at], at, length[lead], prow, pval)
            continue
        # the lowest-indexed column at each lead without a pivot
        new = new[lead[new].argsort(kind="stable")]
        new = new[_runs(lead[new])[0]]
        new_lead, new_cnt = lead[new], cnt[new]
        at = _spans(first[new], new_cnt)
        piv = val[at] * _inverse_mod(val[first[new]], p).repeat(new_cnt) % p if p else val[at]
        start[new_lead], length[new_lead] = len(prow) + new_cnt.cumsum() - new_cnt, new_cnt
        prow, pval = np.concatenate((prow, row[at])), np.concatenate((pval, piv))
        keep = np.ones(len(col), dtype=bool)
        keep[at] = False
        col, row, val = col[keep], row[keep], val[keep]
    return start, length, prow, pval


def column_echelon(m: Matrix) -> Tuple[Matrix, List[int]]:
    """The reduced (echelon) basis of the column space of ``m``, as the
    columns of a matrix, with its pivot rows: basis vector k is 1 at pivot
    k, the smallest row it touches, and 0 at every other pivot; sorted by
    pivot.  A subspace has exactly one such basis.

    Back substitution runs on the pivot columns of ``_echelon`` in rounds
    of ``_reduce`` as well: each pivot column that has an entry at another
    pivot's lead is reduced, at the first such entry, by that pivot as the
    round found it.  No lead changes, and an entry is cleared without
    changing any above it, so the first such row rises and at most
    ``m.rows`` rounds run; a round after which none rose is a
    ``RuntimeError``, as in ``_echelon``.  Each column is then divided by
    its leading entry, over Q into ``Fraction``s only where a division is
    not exact."""
    p, rows = m.field.char, m.rows
    start, length, prow, pval = _echelon(m)
    leads = length.nonzero()[0]
    k, cnt = len(leads), length[leads]
    at = _spans(start[leads], cnt)
    col, row, val = np.arange(k).repeat(cnt), prow[at], pval[at]
    pivot = (length > 0).cumsum() - 1     # at a lead row: the number of its pivot
    prev = None
    while True:
        first, cnt = _runs(col)
        hit = length[row] > 0
        hit[first] = False
        hit = hit.nonzero()[0]
        if not len(hit):
            break
        hit = hit[_runs(col[hit])[0]]       # the first per column
        if prev is not None and np.array_equal(row[hit], prev):
            raise RuntimeError("a back substitution round cleared no entry")
        src, tgt, prev = pivot[row[hit]], col[hit], row[hit]
        coeff, lead = np.zeros(k, dtype=val.dtype), np.ones(k, dtype=val.dtype)
        src_start, src_len = np.zeros_like(cnt), np.zeros_like(cnt)
        coeff[tgt], lead[tgt], src_start[tgt], src_len[tgt] = (val[hit], val[first[src]],
                                                                first[src], cnt[src])
        col, row, val = _reduce(rows, p, col, row, val, first, cnt, coeff, None if p else lead,
                                src_start, src_len, row, val)
    if not p:
        lead = val[first].repeat(cnt)
        val = val // lead if not (val % lead).any() else np.frompyfunc(Fraction, 2, 1)(val, lead)
    ptr, idx, perm = _transposed(k, rows, np.append(first, len(col)), row)
    val = val[perm] if val.dtype == np.int64 else _value_array(val[perm].tolist())
    return Matrix._of_csr(rows, k, m.field, (ptr, idx, val)), leads.tolist()
