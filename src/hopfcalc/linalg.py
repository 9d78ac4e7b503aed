"""Sparse exact linear and multilinear algebra.

Vectors are zero-omitting dicts ``{index: scalar}``.  A ``Matrix`` is
stored as canonical CSR: column indices sorted within each row, no
duplicate and no zero.  The one exception is a matrix born column-major
(``Matrix._of_csc``), which the quotient complex of ``homology`` ranks: it
stores its canonical CSC, rows sorted within each column, and builds its
canonical CSR from it only when something first reads it
(``_ColumnMajor``), so that its rank, which reads only the CSC,
never holds it twice.  Either way every read sees the same matrix, and
the CSC of a CSR-born matrix is built when first read and cached
(``_csc_arrays``).  A matrix's value array has one of two types, which
its entries decide.  It is int64, reduced to [0, p) over F_p, when every
entry is an integer below ``_INT64_SAFE`` in absolute value (always true
for the structure constants of the built-in algebras); otherwise it is an
object array of field scalars, the exact fallback.  Reads (``entries``,
``get``, ``==``, ...) give an int64 entry as a Python int.  ``columns``
and ``Matrix.data`` give field scalars (``Fraction`` over Q) in new dicts
on each call, and writing to those changes nothing.

The kernels work on the int64 arrays when both operands have them and a
bound on the result stays below ``_INT64_SAFE``.  Otherwise ``@``,
``kron``, ``+`` and ``-`` run the same index arithmetic on the same CSR
arrays with the values as objects, cast before any multiply, so that no
int64 product or sum can wrap: ``kron`` through ``_csr_kron`` itself, the
others by listing their terms with their flat indices for
``Matrix._of_entries``, which sums each index's terms by the sort and
``np.add.reduceat`` that the elimination uses (``_summed``) and drops the
zeros.  Exact values enter a value array one way, ``_field_values``, which
takes them into the field and lets them decide the value type by whole
array operations: ``% p`` over F_p, an int64 cast and its check over Q, and
a ``Fraction`` only for a value that stays an object.  ``_of_entries``,
``kron``, ``from_columns`` and ``column_echelon`` all use it; only
``Matrix.__init__``, which takes outside input, maps ``Field.of`` over its
entries first.  No kernel runs a field operation entry by entry.

The kernels call scipy's compiled sparsetools routines on the arrays
directly: the ``scipy.sparse`` classes wrap each call in checks and
conversions that cost more than the arithmetic on the small matrices of
most verdicts (a 16 x 16 product on a 2-vCPU VM: ~110 us through
``csr_matrix``, ~9 us direct).  That compiled ``_sparsetools`` extension
is all scipy supplies.  It is loaded by file path (``_load_sparsetools``),
which skips the ``scipy.sparse`` package init, ~300 ms of a command's
start-up, and falls back to the package import when the direct load
fails.  What start-up still costs is numpy (90-130 ms), ``site`` (45-60
ms, the environment's ``.pth`` files) and, where no valid ``__pycache__``
exists, 50-90 ms compiling hopfcalc's sources, on a 2-vCPU VM.

Structure tensors are applied only as matrices.  A table enters once,
as a ``Matrix``: ``bilinear_matrix`` turns a bilinear map given on basis
pairs (a multiplication, an action) into one, ``Matrix.from_columns`` a
linear map given by its basis images (a coproduct, a coaction) and
``pairing_matrix`` a covector (a counit, a character).  Every element is
then a column and every map a product of these matrices, so there is no
vector arithmetic beside ``Matrix``; a result that a table must hold is
read back with ``columns``.  The per-entry dict arithmetic that the tests'
oracles run lives in the tests, so that no oracle shares a kernel with
the code it checks.

Elimination has one forward pass, ``_echelon``: exact sparse Gaussian
elimination in integers, modular over F_p and fraction free over Q, run
on a matrix's CSC arrays in rounds, on the columns a boolean mask keeps
when one is given.  A column's lead is its first stored row.  A lead that
no pivot has yet takes its lowest-indexed column as its pivot; then every
other column is reduced by the pivot at its lead, all at once
(``_reduce``): gather the pivot entries, scale them, sort by (column,
row), sum each run with ``np.add.reduceat``, reduce mod p and drop the
zeros.  Pivots never change and each reduction raises a column's lead, so
the span is kept and at most ``rows`` rounds run.  The elimination works
in the storage it is given: it starts from the matrix's full CSC arrays,
reads the mask as the set of live columns and takes the first round's
pivots straight off the CSC pointers, where they stay, so only the
columns still active after that round are gathered.  Later pivots go to
a tail buffer that grows by doubling, and the bookkeeping (lead, start,
length) is kept per pivot, never per row.  Over F_p a pivot is kept as
found, each reduced column taking c a^-1 of it.  Over Q a round that
scales some column divides out the content of every column
(``np.gcd.reduceat``), and once a bound on a round's products reaches
``_INT64_SAFE`` the values move from int64 to object arrays, on which the
same numpy calls run in exact Python integers.  ``Matrix.rank`` counts
the pivots, and hands back a mask of their leads when asked;
``column_echelon`` normalizes them and reduces them, by back substitution
in rounds of the same kernel, to the reduced column echelon basis behind
``Matrix.inverse`` and ``groupoid_decompose``.

``identity_defect_witness``, behind every DGA line, builds the defect of a
matrix identity with the ``Matrix`` operators alone (``kron``, ``@``,
``scale``, ``+``, ``==``, ``-``), so it has no kernel of its own; its
witness is the first nonzero entry of the defect in row-major order,
whichever value type the arithmetic took.

``kron_minus_blocks`` builds A (x) B - I_c (x) P, the shape of the
calculus's recursions, one run of I_c's row blocks at a time, so that
neither Kronecker product exists at full size.  ``kron_sum`` sums any
number of terms I_a (x) A (x) I_b in one pass: their entries are listed
once and compressed once, with no partial sum.

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
from itertools import accumulate
from math import prod
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

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

# ``kron_minus_blocks`` builds its result in runs of row blocks of about this
# many entries each, so that a result no larger is one kernel call.
_BLOCK = 1 << 17

# The sparsetools routines the kernels call.
_SPARSETOOLS_ROUTINES = ("coo_tocsr", "csr_matmat_maxnnz", "csr_matmat", "csr_plus_csr",
                         "csr_minus_csr", "csr_eliminate_zeros", "csr_sort_indices",
                         "csr_sum_duplicates", "csr_tocsc")


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
    reduced mod ``p`` (0 over Q); the operands' values are both int64 or
    both objects, and the product's are the same.  Entry e of ``a`` at (i,
    j) and entry f of ``b`` at (k, l) give the entry at (i * b_rows + k, j *
    b_cols + l); listed with e major, the entries of each row come in
    column order, so the counting pass of ``coo_tocsr`` leaves them
    canonical (``_moved``).

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
    return _moved(_sparsetools.coo_tocsr, rows + 1, (rows, a_cols * b_cols, len(val), row, col),
                  val)


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


def _transposed(rows: int, cols: int, ptr: np.ndarray, idx: np.ndarray,
                val: np.ndarray) -> CSR:
    """The CSR (ptr, idx, val) of a rows x cols matrix transposed, indices
    sorted."""
    return _moved(_sparsetools.csr_tocsc, cols + 1, (rows, cols, ptr, idx), val)


def _moved(routine: Callable, size: int, args: tuple, val: np.ndarray) -> CSR:
    """The new CSR arrays, a ptr of ``size`` entries, that the sparsetools
    ``routine`` writes from ``args`` and the values ``val``.  It moves int64
    values itself, in one call; object values are gathered by the numbers
    of their entries, which it moves in their place."""
    n, obj = len(val), val.dtype != np.int64
    out = tuple(np.empty(k, dtype=np.int64) for k in (size, n, n))
    routine(*args, np.arange(n, dtype=np.int64) if obj else val, *out)
    return (out[0], out[1], val[out[2]]) if obj else out


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


def _field_values(field: Field, val: np.ndarray) -> np.ndarray:
    """The value array of a Matrix whose entries are the exact values
    ``val`` (ints, and ``Fraction``s over Q) taken into the field, by whole
    array operations.  Over F_p: one ``val % p``, cast to int64 when p is at
    most ``_INT64_SAFE`` or every value lies below it.  Over Q: int64 when
    every value is an integer below ``_INT64_SAFE`` in absolute value, else
    ``Fraction``s, made only then.  The cast truncates a ``Fraction``,
    which its comparison with ``val`` finds, and fails past 2^63.  A value
    the map sends to 0 stays, as 0; the caller drops it."""
    p = field.char
    if p:
        val = val % p
        return val.astype(np.int64) if p <= _INT64_SAFE or val.max(initial=0) < _INT64_SAFE else val
    try:
        ints = val.astype(np.int64)
    except OverflowError:       # a value past 2^63
        return np.frompyfunc(Fraction, 1, 1)(val)
    fits = (ints == val).all() and ((ints > -_INT64_SAFE) & (ints < _INT64_SAFE)).all()
    return ints if fits else np.frompyfunc(Fraction, 1, 1)(val)


class Matrix:
    """Zero-omitting sparse matrix over an exact field, stored as canonical
    CSR, or born column-major as canonical CSC, with int64 or object values
    (module docstring)."""

    __slots__ = ("rows", "cols", "field", "_csr", "_maxabs", "_csc")

    def __init__(self, rows: int, cols: int, field: Field,
                 data: Dict[Tuple[int, int], object] | None = None):
        """The matrix with the entries ``{(row, col): value}`` of ``data``:
        every index is checked (``ValueError``), and each value, an int, a
        ``Fraction`` or a "p/q" string, is taken into the field by
        ``Field.of``, the one per-entry field map of this module's write
        side, before ``_of_entries`` drops the zeros."""
        data = data or {}
        ij = np.array(list(data), dtype=np.int64).reshape(len(data), 2)
        # the sparsetools routines do not check indices
        if len(ij) and (ij.min() < 0 or ij[:, 0].max() >= rows or ij[:, 1].max() >= cols):
            raise ValueError("matrix entry index out of range")
        val = np.array([field.of(v) for v in data.values()], dtype=object)
        self._store(rows, cols, field,
                    Matrix._of_entries(rows, cols, field, ij[:, 0] * cols + ij[:, 1], val)._csr)

    def _store(self, rows: int, cols: int, field: Field, csr: CSR,
               maxabs: int | None = None, csc: "CSR | None" = None) -> None:
        """Store the canonical CSR ``csr``, made read-only, and its CSC
        ``csc`` when already built; ``maxabs`` is its largest absolute entry
        when already known, read over Q only (``_max_abs``)."""
        for a in csr:
            a.setflags(write=False)
        self.rows, self.cols, self.field = rows, cols, field
        self._csr, self._maxabs, self._csc = csr, maxabs, csc

    @classmethod
    def _of_csr(cls, rows: int, cols: int, field: Field, csr: CSR,
                maxabs: int | None = None) -> "Matrix":
        """A matrix stored as the canonical CSR ``csr`` (``_store``)."""
        m = cls.__new__(cls)
        m._store(rows, cols, field, csr, maxabs)
        return m

    @staticmethod
    def _of_csc(rows: int, cols: int, field: Field, csc: CSR) -> "Matrix":
        """A matrix born column-major: it stores the canonical CSC ``csc``,
        made read-only, and leaves its ``_csr`` slot empty until something
        first reads it (``_ColumnMajor``).  ``csc`` is the CSR of the cols x
        rows transpose."""
        m = _ColumnMajor._of_csr(cols, rows, field, csc)
        m.rows, m.cols, m._csc = rows, cols, m._csr
        del m._csr
        return m

    @classmethod
    def _of_entries(cls, rows: int, cols: int, field: Field, key: np.ndarray,
                    val: np.ndarray) -> "Matrix":
        """The matrix whose entry at the flat index ``row * cols + col`` is
        the sum of the values ``val`` listed at that index in ``key``, in
        any order: the one builder of the exact path, whose callers pass
        object values wherever an int64 sum could wrap.  The values of each
        index are summed (``_summed``), the sums are taken into the field
        and given their value type by ``_field_values``, and the zeros are
        dropped."""
        key, val = _summed(key, val)
        val = _field_values(field, val)
        key, val = key[val != 0], val[val != 0]
        return cls._of_csr(rows, cols, field, (np.searchsorted(key, np.arange(rows + 1) * cols),
                                               key % cols, val))

    @property
    def data(self) -> Dict[Tuple[int, int], object]:
        """The entries as a new dict ``{(row, col): scalar}`` of field
        scalars (``Fraction`` over Q) on each call; writing to it changes
        nothing."""
        return {k: self.field.of(v) for k, v in self.entries()}

    def entries(self) -> Iterable[Tuple[Tuple[int, int], object]]:
        """The nonzero entries as ``((row, col), scalar)`` pairs in row-major
        order; an int64 entry is read as a Python int."""
        return zip(zip(self._entry_rows().tolist(), self._csr[1].tolist()), self._csr[2].tolist())

    def _entry_rows(self) -> np.ndarray:
        """The row of each stored entry, in row-major order."""
        ptr = self._csr[0]
        return np.repeat(np.arange(self.rows), ptr[1:] - ptr[:-1])

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
        """The matrix with the columns ``cols`` of field scalars (ints over
        F_p, which may be unreduced); every row index is checked
        (``ValueError``).  Taken column by column, the entries of each row
        arrive in column order, so bucketing them by row needs no sort;
        ``_field_values`` then types all the values at once, and the zeros
        it makes are dropped: a row's pointer counts the nonzero entries
        before it."""
        by_row: List[List[Tuple[int, object]]] = [[] for _ in range(rows)]
        for j, col in enumerate(cols):
            for i, v in col.items():
                if not 0 <= i < rows:
                    raise ValueError("matrix entry index out of range")
                by_row[i].append((j, v))
        val = _field_values(field, np.array([v for r in by_row for _, v in r], dtype=object))
        ptr = np.array(list(accumulate(map(len, by_row), initial=0)), dtype=np.int64)
        idx = np.array([j for r in by_row for j, _ in r], dtype=np.int64)
        if not val.all():
            ptr, idx, val = np.append(0, (val != 0).cumsum())[ptr], idx[val != 0], val[val != 0]
        return cls._of_csr(rows, len(cols), field, (ptr, idx, val))

    def columns(self) -> List[Vec]:
        """The columns as new dicts of field scalars (``Fraction`` over Q)."""
        of = self.field.of
        ptr, idx, val = (a.tolist() for a in self._csc_arrays())
        return [{i: of(v) for i, v in zip(idx[s:e], val[s:e])} for s, e in zip(ptr, ptr[1:])]

    def _csc_arrays(self) -> CSR:
        """The CSC arrays, rows sorted within each column: those a matrix
        born column-major stores, else built from the CSR when first read
        and cached."""
        if self._csc is None:
            self._csc = _transposed(self.rows, self.cols, *self._csr)
        return self._csc

    def get(self, i: int, j: int):
        """The entry at (i, j); an index outside the shape is a
        ``ValueError``, as in ``__init__``."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ValueError("matrix entry index out of range")
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
        """``self + other``, or ``self - other`` when ``minus``: on the int64
        arrays when a bound on the sums stays below ``_INT64_SAFE``, else
        both operands' entries, the second's negated for ``minus``, summed
        as objects (``_of_entries``)."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")
        f = self.field
        a, b = self._to_csr(), other._to_csr()
        if a is not None and b is not None and self._max_abs() + other._max_abs() < _INT64_SAFE:
            return Matrix._of_csr(self.rows, self.cols, f, _reduced(
                _csr_add(a, b, self.rows, self.cols, minus), self.rows, self.cols, f.char))
        return Matrix._of_entries(self.rows, self.cols, f, np.concatenate(
            [m._entry_rows() * m.cols + m._csr[1] for m in (self, other)]), np.concatenate(
            (self._csr[2], -other._csr[2] if minus else other._csr[2])).astype(object))

    def scale(self, c) -> "Matrix":
        """``c`` times the matrix, for a field scalar or an int ``c``: its
        Kronecker product with the 1 x 1 matrix (c)."""
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
        """The product: on the int64 arrays when a bound on its sums stays
        below ``_INT64_SAFE``, else by expand-sort-compress (Dalton, Olson &
        Bell, "Optimizing sparse matrix-matrix multiplication for the GPU",
        ACM TOMS 41(4), 2015): each entry a_ik meets the entries of row k of
        ``other``, gathered by ``_spans``; their products are taken on
        object values (numpy casts the int64 side to Python ints), and
        ``_of_entries`` sums them by their place in the result.  Where an
        operand is ``Matrix.identity`` (``_identity_size``), the product is
        the other operand and no kernel runs."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")
        if _identity_size(self) or _identity_size(other):
            return other if _identity_size(self) else self
        a, b = self._to_csr(), other._to_csr()
        # crude overflow bound: |entry| <= maxA * maxB * inner_dim
        if (a is not None and b is not None and self._max_abs()
                * max(other._max_abs(), 1) * max(self.cols, 1) < _INT64_SAFE):
            ptr, idx, val = _csr_matmul(a, b, self.rows, other.cols, self.field.char)
            _sparsetools.csr_sort_indices(self.rows, ptr, idx, val)
            return Matrix._of_csr(self.rows, other.cols, self.field, (ptr, idx, val))
        (ap, aj, ax), (bp, bj, bx) = self._csr, other._csr
        n = (bp[1:] - bp[:-1])[aj]
        at = _spans(bp[aj], n)
        return Matrix._of_entries(self.rows, other.cols, self.field, self._entry_rows().repeat(n)
                                  * other.cols + bj[at], ax.astype(object).repeat(n) * bx[at])

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, consistent with big-endian index flattening.
        Where the product is known, no kernel runs: X (x) I_1 and I_1 (x) X
        are X, and I_m (x) I_n is I_mn.  ``_csr_kron`` serves both value
        types: on the int64 arrays when a bound on the products stays below
        ``_INT64_SAFE``, else on both operands' values as objects, the
        products then taken into the field and typed by ``_field_values``.
        A product of nonzero scalars is not zero, so no entry is dropped
        and none is summed."""
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
        (ap, aj, ax), (bp, bj, bx) = self._csr, other._csr
        ptr, idx, val = _csr_kron((ap, aj, ax.astype(object)), (self.rows, self.cols),
                                  (bp, bj, bx.astype(object)), (other.rows, other.cols), 0)
        return Matrix._of_csr(rows, cols, f, (ptr, idx, _field_values(f, val)))

    def regroup(self, dims: Sequence[int], order: Sequence[int], nrows: int) -> "Matrix":
        """The same entries with the tensor axes permuted.  Read as a tensor
        whose axes have the sizes ``dims``, those of the row index first,
        each index big-endian (``tensor_encode``), the result has the axes
        ``order``: the first ``nrows`` of them index its rows and the rest
        its columns.  No value changes, so one path serves both value types.
        An identity ``order`` is a reshape: every entry keeps its flat index,
        and the CSR already lists them in that order, so nothing is sorted."""
        if prod(dims) != self.rows * self.cols:
            raise ValueError("axis sizes do not match the shape")
        flat, val, new = self._entry_rows() * self.cols + self._csr[1], self._csr[2], dims
        if list(order) != list(range(len(dims))):
            axes, new = np.unravel_index(flat, dims), [dims[k] for k in order]
            flat = np.ravel_multi_index([axes[k] for k in order], new)
            perm = np.argsort(flat)
            flat, val = flat[perm], val[perm]
        rows, cols = prod(new[:nrows]), prod(new[nrows:])
        ptr = np.searchsorted(flat, np.arange(rows + 1) * cols)
        return Matrix._of_csr(rows, cols, self.field, (ptr, flat % cols, val), self._maxabs)

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

    def rank(self, leads: bool = False, cols: "np.ndarray | None" = None):
        """The rank, of the columns where the boolean mask ``cols`` holds
        when it is given; with ``leads``, (rank, mask) with the mask true at
        the rows that are the leads of the pivots of ``_echelon``.  The
        mask is built from the pivots' own leads, and is the only array of
        the size of the rows that the rank makes."""
        lead = _echelon(self, cols)[0]
        if not leads:
            return len(lead)
        mask = np.zeros(self.rows, dtype=bool)
        mask[lead] = True
        return len(lead), mask

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
        None if the matrix is 0: entry 0 of the CSR, in the last row whose
        pointer is 0; an int64 value is read as a Python int."""
        ptr, idx, val = self._csr
        if not len(idx):
            return None
        return int(np.searchsorted(ptr, 0, "right")) - 1, int(idx[0]), val.item(0)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field}, nnz={self._nnz()})"


class _ColumnMajor(Matrix):
    """A matrix born column-major (``Matrix._of_csc``).  Its own class holds
    the ``__getattr__`` that builds the CSR, so that an attribute read of a
    matrix born row-major takes no detour through it."""
    __slots__ = ()

    def __getattr__(self, name: str):
        """Called only for a missing attribute.  For the empty ``_csr`` slot,
        the CSR is built from the CSC, canonical and read-only, and kept;
        any other name is an ``AttributeError``."""
        if name != "_csr":
            raise AttributeError(name)
        self._store(self.rows, self.cols, self.field,
                    _transposed(self.cols, self.rows, *self._csc), self._maxabs, self._csc)
        return self._csr


def _identity_size(m: Matrix) -> int:
    """n when ``m`` is ``Matrix.identity(n)``, whose CSR is the shared
    ``_identity_csr(n)``; else 0.  That tuple's indices are a view of its
    ptr, which is tested first, so that no identity is built for a matrix
    that is not one."""
    csr, n = m._csr, m.rows
    return n if n == m.cols and csr[1].base is csr[0] and csr is _identity_csr(n) else 0


def kron_minus_blocks(a: Matrix, b: Matrix, c: int, p: Matrix) -> Matrix:
    """A (x) B - I_c (x) P, the shape of the recursion of D_n and of the
    coefficient differentials d_X^n, without either Kronecker product at
    full size.
    A's rows come in c blocks of r = A.rows / c, and P is A.rows * B.rows / c
    by A.cols * B.cols / c (else ``ValueError``).

    I_c (x) P is block diagonal (Van Loan, "The ubiquitous Kronecker
    product", J. Comput. Appl. Math. 123, 2000): its row block k, rows
    k P.rows .. (k + 1) P.rows - 1, is P at the columns k P.cols ..
    (k + 1) P.cols - 1 and 0 elsewhere.  The same rows of A (x) B are
    A_k (x) B, with A_k the rows k r .. (k + 1) r - 1 of A.  So

        (A (x) B - I_c (x) P)[row block k] = A_k (x) B - e_k^T (x) P,

    e_k^T the k-th unit row of length c.  Consecutive blocks k .. k + h - 1
    are built together, as A_(k..k+h-1) (x) B minus I_h (x) P moved right
    by k P.cols, with h chosen so that each run holds about ``_BLOCK``
    entries; a result of at most ``_BLOCK`` entries is one run.  Each run's
    ``csr_minus_csr`` writes straight into one set of output arrays, sized
    for every operand entry and trimmed once at the end, so only one run's
    operands exist beside them.

    Over F_p the entries of both sides lie in [0, p), so ``csr_minus_csr``
    leaves values in (-p, p) and drops the exact zeros.  a - b = 0 mod p
    only when a = b, so the reduction mod p afterwards adds no zero.  It is
    ``v += (v >> 63) & p``: the shift is -1, all bits set, for a negative v
    and 0 otherwise, so p is added exactly to the values in (-p, 0), which
    land in (0, p), and the others, in [0, p), stay; a division would cost
    several times more.  When
    an operand holds objects, or the int64 bounds of ``kron`` and
    ``_combine`` (max|A| max|B| + max|P|) reach ``_INT64_SAFE``, the result
    is ``A.kron(B) - I_c.kron(P)`` on the exact path."""
    rows, cols, f = a.rows * b.rows, a.cols * b.cols, a.field
    if c < 1 or a.rows % c or (rows, cols) != (c * p.rows, c * p.cols):
        raise ValueError("shape mismatch")
    if not f == b.field == p.field:
        raise ValueError("field mismatch")
    csr_a, csr_b, csr_p = a._to_csr(), b._to_csr(), p._to_csr()
    if (csr_a is None or csr_b is None or csr_p is None
            or a._max_abs() * b._max_abs() + p._max_abs() >= _INT64_SAFE):
        return a.kron(b) - Matrix.identity(c, f).kron(p)
    (ap, aj, ax), r = csr_a, a.rows // c
    size = len(ax) * len(csr_b[2]) + c * len(csr_p[2])
    per_run = min(c, max(1, _BLOCK * c // max(size, 1)))
    ptr = np.zeros(rows + 1, dtype=np.int64)
    idx, val = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    for k in range(0, c, per_run):
        h = min(per_run, c - k)
        s, e = ap[k * r], ap[(k + h) * r]
        left = _csr_kron((ap[k * r:(k + h) * r + 1] - s, aj[s:e], ax[s:e]), (h * r, a.cols),
                         csr_b, (b.rows, b.cols), f.char)
        pp, pj, px = (csr_p if h == 1 else
                      _csr_kron(_identity_csr(h), (h, h), csr_p, (p.rows, p.cols), 0))
        # the routine writes 0 at the block's first ptr, which the last block ended on
        at, block = int(ptr[k * p.rows]), ptr[k * p.rows:(k + h) * p.rows + 1]
        _sparsetools.csr_minus_csr(h * p.rows, cols, *left, pp, pj + k * p.cols if k else pj,
                                   px, block, idx[at:], val[at:])
        block += at
    ptr, idx, val = _trimmed(ptr, idx, val)
    if f.char:
        val += (val >> 63) & f.char
    return Matrix._of_csr(rows, cols, f, (ptr, idx, val))


def kron_sum(terms: Sequence[Tuple[int, int, Matrix, int]], rows: int, cols: int,
             field: Field) -> Matrix:
    """The rows x cols matrix sum_t s_t I_(a_t) (x) A_t (x) I_(b_t) of the
    ``terms`` (s_t, a_t, A_t, b_t), s_t = +-1, each A_t a matrix over
    ``field`` of a_t A_t.rows b_t rows and a_t A_t.cols b_t columns (else
    ``ValueError``, as the routines do not check indices), in one pass over
    their entries.

    Entry e of A_t at (r, c), with i < a_t and k < b_t, lies at the row
    (i A_t.rows + r) b_t + k and the column (i A_t.cols + c) b_t + k.  All
    the terms' entries are listed in one set of index arrays, and only
    then compressed: the counting pass of ``coo_tocsr``, a sort of each
    row, a sum of each run of equal columns, and the removal of the zeros,
    after the reduction mod p over F_p (``_reduced``), so no partial sum is
    built or reread.

    A term has at most one entry at any place, so every sum is at most
    sum_t max|A_t| in absolute value (p - 1 per term over F_p, where every
    entry lies in [0, p), ``_max_abs``).  When every term is int64 and that
    bound stays below ``_INT64_SAFE`` the sums are int64; otherwise the
    listed entries, as objects, are summed by ``_of_entries``."""
    if any(m.field != field or (a * m.rows * b, a * m.cols * b) != (rows, cols)
           for _, a, m, b in terms):
        raise ValueError("shape or field mismatch")
    fast = all(m._to_csr() is not None for _, _, m, _ in terms) and sum(
        m._max_abs() for _, _, m, _ in terms) < _INT64_SAFE
    terms = [t for t in terms if t[1] * t[2]._nnz() * t[3]]     # those with entries
    sizes = [a * m._nnz() * b for _, a, m, b in terms]
    row, col, val = (np.empty(sum(sizes), dtype=t)
                     for t in (np.int64, np.int64, np.int64 if fast else object))
    for (s, a, m, b), at, size in zip(terms, accumulate(sizes, initial=0), sizes):
        for out, first, n in ((row, m._entry_rows(), m.rows), (col, m._csr[1], m.cols)):
            np.add(np.add.outer(np.arange(0, a * n * b, n * b), first * b)[:, :, None],
                   np.arange(b), out=out[at:at + size].reshape(a, m._nnz(), b))
        val[at:at + size].reshape(a, m._nnz(), b)[:] = s * m._csr[2][:, None]
    if not fast:
        return Matrix._of_entries(rows, cols, field, row * cols + col, val)
    ptr, idx, val = _moved(_sparsetools.coo_tocsr, rows + 1, (rows, cols, len(val), row, col), val)
    del row, col
    _sparsetools.csr_sort_indices(rows, ptr, idx, val)
    _sparsetools.csr_sum_duplicates(rows, cols, ptr, idx, val)
    if not field.char:
        _sparsetools.csr_eliminate_zeros(rows, cols, ptr, idx, val)
    return Matrix._of_csr(rows, cols, field, _reduced((ptr, idx, val), rows, cols, field.char))


def bilinear_matrix(field: Field, table: Dict[Tuple[int, int], Vec], left: int,
                    right: int, rows: int) -> Matrix:
    """The bilinear map with ``table[(i, j)]`` the image of the basis pair
    (i, j), a missing pair mapping to 0, as the matrix rows <- left (x)
    right."""
    return Matrix.from_columns([table.get((i, j), {}) for i in range(left)
                                    for j in range(right)], rows, field)


def pairing_matrix(field: Field, w: Dict[int, object], dim: int) -> Matrix:
    """The covector with the values ``w`` on the basis as a 1 x dim row."""
    return Matrix.from_columns([{0: w.get(i, field.zero())} for i in range(dim)], 1, field)


def column_defects(lhs: Matrix, rhs: Matrix, dims: Sequence[int],
                   first: bool = False) -> Dict[tuple, Vec]:
    """The nonzero columns of lhs - rhs, only the first when ``first``,
    each keyed by its index decoded over ``dims``, values through
    ``field.of``; lhs - rhs is computed only when the sides differ, and its
    columns are read off its CSC arrays."""
    if lhs == rhs:
        return {}
    d, of = lhs - rhs, lhs.field.of
    ptr, idx, val = d._csc_arrays()
    js = np.flatnonzero(ptr[1:] != ptr[:-1])    # not empty, as lhs != rhs
    return {tensor_decode(j, dims): {i: of(v) for i, v in zip(idx[ptr[j]:ptr[j + 1]].tolist(),
                                                              val[ptr[j]:ptr[j + 1]].tolist())}
            for j in (js[:1] if first else js).tolist()}


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
            m = m.scale(abs(coeff))
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


def _summed(key: np.ndarray, val: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``key``, sorted, and the sum of the values
    ``val`` at each: one stable sort, then ``np.add.reduceat`` over each
    run.  A key array that the caller holds no reference to is freed once
    sorted, and so is the value array once gathered."""
    order = key.argsort(kind="stable")
    key = key[order]
    val = val[order]
    del order
    run = _runs(key)[0]
    return key[run], np.add.reduceat(val, run)


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


def _grown(a: np.ndarray, used: int, size: int, dtype) -> np.ndarray:
    """A buffer of ``size`` entries of ``dtype`` that starts with the first
    ``used`` entries of ``a``."""
    return np.concatenate((a[:used], np.empty(size - used, dtype=dtype)))


def _reduce(rows: int, p: int, col, row, val, first, cnt, coeff, lead, length, add_row, add):
    """One elimination round on the columns of (col, row, val), sorted by
    (col, row).  Column k, its ``cnt[k]`` entries from ``first[k]`` on,
    becomes (a/g) * itself - (c/g) * its source, with c = ``coeff[k]``,
    a = ``lead[k]`` and g = gcd(a, c) of the sign of a; its source is the
    next ``length[k]`` entries of (add_row, add), which hold the sources of
    the columns in turn.  ``lead`` is None when c is already the multiple
    of the source to take away (over F_p), and then a = g = 1.  Both parts
    are sorted by (col, row) together and each run is summed (``_summed``);
    the sums are reduced mod p and the zeros dropped.
    Over Q, when some a/g is not 1, every column's content (the gcd of its
    entries) is divided out, which keeps the entries from growing.

    Int64 values stay int64 while 2 * (largest source entry) * (largest
    entry of the columns), which bounds every product and sum of the
    round, is below ``_INT64_SAFE``; otherwise they become objects first,
    on which the same numpy calls run in exact Python integers."""
    if lead is None:
        add = -coeff.repeat(length) * add
    else:
        if val.dtype == np.int64 and 2 * int(abs(add).max()) * int(abs(val).max()) >= _INT64_SAFE:
            val, add = val.astype(object), add.astype(object)
        g = np.gcd(lead, coeff) * np.sign(lead)
        lead, coeff = lead // g, coeff // g
        val, add = val * lead.repeat(cnt), -coeff.repeat(length) * add
    key, val = _summed(np.concatenate((col * rows + row, col[first].repeat(length) * rows
                                       + add_row)), np.concatenate((val, add)))
    if p:
        val %= p
    nonzero = val != 0
    col, row = np.divmod(key[nonzero], rows)
    val = val[nonzero]
    if lead is not None and (lead != 1).any():
        first, cnt = _runs(col)
        val = val // np.gcd.reduceat(abs(val), first).repeat(cnt)
    return col, row, val


def _echelon(m: Matrix, cols: "np.ndarray | None" = None) -> Tuple[np.ndarray, np.ndarray,
                                                                    np.ndarray, Callable]:
    """The pivot columns of a forward Gaussian elimination of the columns of
    ``m`` in integers, those where the boolean mask ``cols`` holds when it
    is given, one per dimension of their span, as (lead, start, length,
    take), one entry per pivot, sorted by lead: the pivot with lead
    lead[k], the smallest row it touches, is the entries start[k] ..
    start[k] + length[k] - 1 of the pivot store, rows ascending; ``take(at)``
    reads the rows and the values of the store at the positions ``at``.
    Over F_p a pivot is kept as it was found, its leading entry a whatever
    it is, and the values are objects when p^2 reaches ``_INT64_SAFE``.
    Over Q a pivot is an integer vector in the span and no ``Fraction`` is
    built (fraction free, in the manner of Bareiss): a column given in
    fractions is first scaled by the lcm of its denominators, into integer
    objects for ``np.gcd``, int64 where they fit.

    The elimination runs on the CSC arrays in rounds.  Each active column's
    lead is its first stored row.  Where no pivot has that lead yet, the
    lowest-indexed column with it becomes the pivot and leaves the active
    columns.  Every other active column is then reduced by the pivot at its
    lead, all at once (``_reduce``): r <- (a/g) r - (c/g) pivot over Q,
    with c the column's leading entry and g = gcd(a, c), and
    r <- r - (c a^-1 mod p) pivot over F_p.  That is a nonzero multiple of
    r plus a multiple of a pivot, so the span is preserved; the entry at the
    lead cancels and no smaller row appears, so the lead rises, and a column
    that reaches 0 leaves.  Pivots never change, so at most ``m.rows``
    rounds reduce, and at most as many make pivots, one or more each.  Over
    Q a round that scales some column (a/g not 1) divides the content of
    every column out, and a round whose products a bound cannot keep below
    ``_INT64_SAFE`` moves the values to objects first (``_reduce``).  Only
    an arithmetic fault leaves every lead where it was, and then the loop
    would never end: a round that raised no lead is a ``RuntimeError``.

    The elimination works in the storage it is given (Dumas & Villard,
    "Computing the rank of large sparse matrices over finite fields", CASC
    2002; Davis, *Direct Methods for Sparse Linear Systems*, SIAM 2006).
    Its store starts as the full CSC arrays of ``m``, and ``cols`` is read
    as the set of live columns.  The first round makes pivots only, as no
    lead has one yet, and it reads them off the CSC pointers: the
    lowest-indexed live column at each lead, which stays where it lies, at
    the store's positions 0 .. n0 - 1, n0 the number of entries.  Only the
    other live columns are gathered, as the active columns of the second
    round.  The pivots of later rounds go to a tail buffer, positions n0
    on, which grows by doubling.  The bookkeeping is per pivot, at most
    ``m.cols`` entries of each array, and a column's pivot is found by a
    search of the sorted leads.  Over F_p no pivot is scaled: c a^-1 is
    taken per reduced column, on the few entries of its leading values
    alone."""
    p, rows = m.field.char, m.rows
    ptr, row, val = m._csc_arrays()
    height = ptr[1:] - ptr[:-1]
    if not p and val.dtype == object:
        filled = height.nonzero()[0]
        den = np.array([v.denominator for v in val], dtype=object)
        val = val * np.lcm.reduceat(den, ptr[filled]).repeat(height[filled]) // 1
        val = val.astype(np.int64) if abs(val).max(initial=0) < _INT64_SAFE else val
    elif p * p >= _INT64_SAFE:
        val = val.astype(object)
    # the first round: the lowest-indexed live column at each lead
    live = (height > 0 if cols is None else (height > 0) & cols).nonzero()[0]
    live = live[row[ptr[live]].argsort(kind="stable")]
    first = _runs(row[ptr[live]])[0]
    pivot = live[first]
    lead, start, length = row[ptr[pivot]], ptr[pivot], height[pivot]
    live = np.sort(np.delete(live, first))
    at = _spans(ptr[live], height[live])
    col, base, row, val = live.repeat(height[live]), (row, val), row[at], val[at]
    # the store: base, the CSC arrays, and the first ``used`` entries of the
    # tail buffer
    tail_row, tail_val, used = row[:0], val[:0], 0

    def take(at):
        """The rows and the values of the store at the positions ``at``.
        The values only ever move from int64 to objects, so the tail's
        type covers the base's."""
        n0 = len(base[0])
        in_tail = at >= n0
        if not in_tail.any():
            return base[0][at], base[1][at]
        got_row = np.empty(len(at), dtype=np.int64)
        got_val = np.empty(len(at), dtype=tail_val.dtype)
        got_row[~in_tail], got_val[~in_tail] = base[0][at[~in_tail]], base[1][at[~in_tail]]
        at = at[in_tail] - n0
        got_row[in_tail], got_val[in_tail] = tail_row[at], tail_val[at]
        return got_row, got_val

    prev = None
    while len(col):
        first, cnt = _runs(col)
        at_lead = row[first]
        # no lead falls, whatever the values; and a pivot round removes a
        # column, so the same leads again mean a round that cancelled none
        if prev is not None and np.array_equal(at_lead, prev):
            raise RuntimeError("an elimination round raised no column's lead")
        prev = at_lead
        # the pivot at each column's lead, where there is one
        k = np.minimum(np.searchsorted(lead, at_lead), len(lead) - 1)
        new = (lead[k] != at_lead).nonzero()[0]
        if not len(new):
            src_len = length[k]
            add_row, add = take(_spans(start[k], src_len))
            a, c = add[src_len.cumsum() - src_len], val[first]
            col, row, val = _reduce(rows, p, col, row, val, first, cnt,
                                    c * _inverse_mod(a, p) % p if p else c, None if p else a,
                                    src_len, add_row, add)
            continue
        # the lowest-indexed column at each lead without a pivot
        new = new[at_lead[new].argsort(kind="stable")]
        new = new[_runs(at_lead[new])[0]]
        new_lead, new_cnt = at_lead[new], cnt[new]
        at = _spans(first[new], new_cnt)
        size = used + len(at)
        if size > len(tail_row) or val.dtype != tail_val.dtype:
            # grow by doubling; over Q the values may have become objects
            grow = max(size, 2 * len(tail_row))
            tail_row, tail_val = (_grown(tail_row, used, grow, np.int64),
                                  _grown(tail_val, used, grow, val.dtype))
        tail_row[used:size], tail_val[used:size] = row[at], val[at]
        new_start = len(base[0]) + used + new_cnt.cumsum() - new_cnt
        used = size
        k = np.searchsorted(lead, new_lead)
        lead, start, length = (np.insert(lead, k, new_lead), np.insert(start, k, new_start),
                               np.insert(length, k, new_cnt))
        keep = np.ones(len(col), dtype=bool)
        keep[at] = False
        col, row, val = col[keep], row[keep], val[keep]
    return lead, start, length, take


def column_echelon(m: Matrix) -> Tuple[Matrix, List[int]]:
    """The reduced (echelon) basis of the column space of ``m``, as the
    columns of a matrix, with its pivot rows: basis vector k is 1 at pivot
    k, the smallest row it touches, and 0 at every other pivot; sorted by
    pivot.  A subspace has exactly one such basis.

    The pivot columns of ``_echelon`` are read out of its store in lead
    order, and over F_p each is divided by its leading entry, which
    ``_echelon`` leaves as it found it.  Back substitution then runs on them
    in rounds of ``_reduce`` as well: each pivot column that has an entry at
    another pivot's lead is reduced, at the first such entry, by that pivot
    as the round found it.  No lead changes, and an entry is cleared
    without changing any above it, so the first such row rises and at most
    ``m.rows`` rounds run; a round after which none rose is a
    ``RuntimeError``, as in ``_echelon``.  Over Q each column is then
    divided by its leading entry, into ``Fraction``s only where a division
    is not exact.  An entry's pivot, where its row is a lead, is found by a
    search of the sorted leads, so that nothing of the size of the rows is
    made but the basis's row pointer."""
    p, rows = m.field.char, m.rows
    leads, start, cnt, take = _echelon(m)
    k = len(leads)
    row, val = take(_spans(start, cnt))
    col = np.arange(k).repeat(cnt)
    if p:
        val = val * _inverse_mod(val[cnt.cumsum() - cnt], p).repeat(cnt) % p
    prev = None
    while True:
        first, cnt = _runs(col)
        pivot = np.searchsorted(leads, row)     # at a lead row: the number of its pivot
        hit = leads[np.minimum(pivot, k - 1)] == row
        hit[first] = False
        hit = hit.nonzero()[0]
        if not len(hit):
            break
        hit = hit[_runs(col[hit])[0]]       # the first per column
        if prev is not None and np.array_equal(row[hit], prev):
            raise RuntimeError("a back substitution round cleared no entry")
        src, tgt, prev = pivot[hit], col[hit], row[hit]
        coeff, lead = np.zeros(k, dtype=val.dtype), np.ones(k, dtype=val.dtype)
        src_start, src_len = np.zeros_like(cnt), np.zeros_like(cnt)
        coeff[tgt], lead[tgt], src_start[tgt], src_len[tgt] = (val[hit], val[first[src]],
                                                                first[src], cnt[src])
        at = _spans(src_start, src_len)
        col, row, val = _reduce(rows, p, col, row, val, first, cnt, coeff, None if p else lead,
                                src_len, row[at], val[at])
    if not p:
        lead = val[first].repeat(cnt)
        val = val // lead if not (val % lead).any() else np.frompyfunc(Fraction, 2, 1)(val, lead)
    csr = _transposed(k, rows, np.append(first, len(col)), row, _field_values(m.field, val))
    return Matrix._of_csr(rows, k, m.field, csr), leads.tolist()
