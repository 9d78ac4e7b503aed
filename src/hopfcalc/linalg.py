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
character) and ``pairing_matrix`` turns it into a row.  Elimination has
one forward pass, ``_echelon``: exact sparse Gaussian elimination in
integers, modular over F_p and fraction free over Q, which never builds
a ``Fraction``.  ``Matrix.rank`` counts its pivot rows; ``column_echelon``
reduces them, by back substitution in the field, to the reduced column
echelon basis behind ``Matrix.inverse`` and ``groupoid_decompose``.
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
from math import gcd, lcm, prod
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

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


def column_echelon(field: Field, cols: Iterable[Vec]) -> Tuple[List[Vec], List[int]]:
    """Reduced (echelon) basis of the column space, with pivot rows: each
    basis vector is 1 at its pivot, the smallest row it touches, and 0 at
    every other pivot; sorted by pivot.  A subspace has exactly one such
    basis.  The columns hold nonzero field scalars, as a ``Matrix``'s do.

    The pivot rows of ``_echelon`` are reduced from the last pivot up: each
    is divided by its leading entry and loses the reduced vectors of the
    later pivots it touches, which are 0 at every other pivot."""
    f = field
    pivots = _echelon(f, cols)
    basis: Dict[int, Vec] = {}
    for lead in sorted(pivots, reverse=True):
        a, rest = pivots[lead]
        inv = f.inv(f.of(a))
        r = {k: f.mul(inv, f.of(v)) for k, v in rest.items()}
        for q in [k for k in r if k in basis]:
            vec_add(f, r, basis[q], f.neg(r[q]))
        r[lead] = f.one()
        basis[lead] = r
    leads = sorted(basis)
    return [basis[q] for q in leads], leads


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
        return list(self._iter_columns())

    def _iter_columns(self) -> Iterator[Vec]:
        """The columns as new dicts, built one at a time."""
        ptr, idx, val = (a.tolist() for a in self._csc_arrays())
        return (dict(zip(idx[s:e], val[s:e])) for s, e in zip(ptr, ptr[1:]))

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
            ptr, idx, val = self._csr
            n = len(val)
            cptr, crow, perm = (np.empty(self.cols + 1, dtype=np.int64),
                                np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))
            _sparsetools.csr_tocsc(self.rows, self.cols, ptr, idx,
                                   np.arange(n, dtype=np.int64), cptr, crow, perm)
            self._csc = (cptr, crow, val[perm])
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
                                  abs(c) * self._max_abs())
        return Matrix(self.rows, self.cols, f,
                      {k: f.mul(c, v) for k, v in self.entries()})

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
        if self.field != other.field:
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
        axes = np.unravel_index(np.repeat(np.arange(self.rows), np.diff(ptr)) * self.cols + idx,
                                dims)
        new = [dims[k] for k in order]
        flat = np.ravel_multi_index([axes[k] for k in order], new)
        perm = np.argsort(flat)
        flat, rows, cols = flat[perm], prod(new[:nrows]), prod(new[nrows:])
        ptr = np.searchsorted(flat, np.arange(0, (rows + 1) * cols, cols))
        return Matrix._of_csr(rows, cols, self.field, (ptr, flat % cols, val[perm]), self._maxabs)

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> "Matrix":
        """The entries in the rows and the columns where the boolean masks
        ``rows`` and ``cols`` hold, renumbered in order."""
        ptr, idx, val = self._csr
        keep = np.repeat(rows, np.diff(ptr)) & cols[idx]
        # the kept entries before each row, read at the rows kept and the end
        ptr = np.concatenate(([0], np.cumsum(keep)))[ptr][np.append(rows, True)]
        return Matrix._of_csr(int(rows.sum()), int(cols.sum()), self.field,
                              (ptr, (np.cumsum(cols) - 1)[idx[keep]], val[keep]))

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        return len(_echelon(self.field, self._iter_columns()))

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
        for (i, j), v in self.entries():
            return (i, j, v)
        return None

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field}, nnz={self._nnz()})"


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
    js = sorted({j for (_, j), _ in d.entries()})
    return {tensor_decode(j, dims): {i: f.of(v) for i, v in d.column(j).items()}
            for j in (js[:1] if first else js)}


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


def _echelon(field: Field, cols: Iterable[Vec]) -> Dict[int, Tuple[int, Vec]]:
    """The pivot rows ``{lead: (a, rest)}`` of a forward Gaussian
    elimination of ``cols`` in integers: one per dimension of their span.

    ``cols`` hold nonzero field scalars, over F_p ints in [0, p), as a
    ``Matrix``'s columns do; rows or columns alike, since only their span
    matters.  Pivot row ``(a, rest)`` stands for the vector
    ``a * e_lead + rest``.  Its invariants:

    - ``a`` and every value of ``rest`` are nonzero ints, and every index
      of ``rest`` is above ``lead``; so the leads differ and the pivot rows
      are a basis of the span of ``cols``.
    - Over F_p, ``a`` is 1 and the values of ``rest`` lie in [1, p).
    - Over Q, a pivot row is an integer vector in the span: no
      ``Fraction`` is built.

    A vector whose entry at a pivot's lead is ``coeff`` becomes
    ``(a/g)*r - (coeff/g)*pivot`` with ``g = gcd(a, coeff)``: a nonzero
    multiple of ``r`` plus a multiple of the pivot, so the span is
    unchanged.  Over F_p a new pivot row is normalized to ``a = 1`` and
    every entry is reduced mod p.  Over Q each incoming vector is first
    scaled by the lcm of its denominators, which leaves the span unchanged
    too, so no ``Fraction`` arithmetic follows (fraction free, in the
    manner of Bareiss); when ``a/g`` is not +-1 the row's content (the gcd
    of its entries) is divided out, which keeps the entries from growing.
    """
    p = field.char
    pivots: Dict[int, Tuple[int, Vec]] = {}
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
