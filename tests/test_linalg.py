import itertools
import random
import signal
import tracemalloc
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, note, settings, strategies as st

from conftest import (Ref, from_rows, holds_csr, kernel_dim, named_algebra,
                      reference_column_echelon, reference_echelon, transpose, vec_tensor)

from hopfcalc import linalg
from hopfcalc.fields import Field, QQ, _PRIME_LIMIT, is_prime
from hopfcalc.linalg import (Matrix, column_echelon, identity_defect_witness,
                             tensor_decode, tensor_encode)

F7 = Field(7)

dims_strategy = st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6)


@given(dims_strategy, st.data())
def test_tensor_encode_decode_round_trip(dims, data):
    total = 1
    for d in dims:
        total *= d
    flat = data.draw(st.integers(min_value=0, max_value=total - 1))
    idx = tensor_decode(flat, dims)
    assert all(0 <= i < d for i, d in zip(idx, dims))
    assert tensor_encode(idx, dims) == flat
    # the big-endian loop numpy's ravel/unravel replaced, as the reference
    ref, rest = [], flat
    for d in reversed(dims):
        rest, i = divmod(rest, d)
        ref.append(i)
    assert idx == tuple(reversed(ref)) and all(type(i) is int for i in idx)


def test_a_tensor_index_out_of_range_is_a_value_error():
    for call in (lambda: tensor_encode([2], [2]), lambda: tensor_encode([0], [2, 2]),
                 lambda: tensor_decode(4, [2, 2]), lambda: tensor_decode(-1, [2])):
        with pytest.raises(ValueError):
            call()
    assert tensor_decode(0, []) == () and tensor_encode([], []) == 0


def _random_entries(rng, rows, cols, field, density=0.4):
    data = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                data[(i, j)] = field.of(rng.randint(-4, 4))
    return data


def _random_matrix(rng, rows, cols, field, density=0.4):
    return Matrix(rows, cols, field, _random_entries(rng, rows, cols, field, density))


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
def test_rank_plus_nullity(seed, rows, cols):
    rng = random.Random(seed)
    for field in (QQ, F7):
        m = _random_matrix(rng, rows, cols, field)
        assert m.rank() + kernel_dim(m) == cols
        assert m.rank() == transpose(m).rank()


def fraction_rank(field, rows):
    """Rank by sparse Gaussian elimination with eagerly normalized pivots in
    the field's own arithmetic (``Fraction`` over Q): the oracle for
    ``Matrix.rank``."""
    f = field
    pivots = {}
    rank = 0
    for row in rows:
        r = dict(row)
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                c = f.inv(r.pop(lead))
                pivots[lead] = {k: f.mul(c, v) for k, v in r.items()}
                rank += 1
                break
            coeff = r.pop(lead)
            for k, pv in piv.items():
                acc = f.sub(r.get(k, f.zero()), f.mul(coeff, pv))
                if f.is_zero(acc):
                    r.pop(k, None)
                else:
                    r[k] = acc
    return rank


# "big" entries reach beyond 2**62, so those matrices hold object values;
# over F_2147483647 products of entries near p reach (p - 1)**2 ~ 2**62, and
# over F_4294967311 they pass 2**64, so elimination runs on object values
P31 = 2**31 - 1
RANK_ENTRIES = {
    "integer": (QQ, lambda rng: rng.randint(-6, 6)),
    "rational": (QQ, lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 6))),
    "big": (QQ, lambda rng: rng.randint(-6, 6) * 2**62 + rng.randint(-2, 2)),
    "F5": (Field(5), lambda rng: rng.randint(-6, 6)),
    "F7": (F7, lambda rng: rng.randint(-6, 6)),
    "F2": (Field(2), lambda rng: rng.randint(0, 1)),
    "F2147483647": (Field(P31), lambda rng: rng.choice([rng.randint(-6, 6), rng.randrange(P31)])),
    "F4294967311": (Field(2**32 + 15), lambda rng: rng.choice([rng.randint(-6, 6),
                                                              rng.randrange(2**32)])),
}

RANK_DRAWS = (st.integers(min_value=0, max_value=10**6), st.sampled_from(sorted(RANK_ENTRIES)),
              st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7),
              st.integers(min_value=0, max_value=4))


def rank_matrix(seed, kind, rows, cols, inner):
    """A random matrix of ``kind``; ``inner > 0`` makes it a product through
    an inner dimension, so its rank is often below min(rows, cols) and its
    entries are larger than the leading entries they meet: pivots are
    rarely units."""
    field, entry = RANK_ENTRIES[kind]
    rng = random.Random(seed)

    def rand(r, c):
        return Matrix(r, c, field, {(i, j): field.of(entry(rng)) for i in range(r)
                                    for j in range(c) if rng.random() < 0.6})

    return rand(rows, inner) @ rand(inner, cols) if inner else rand(rows, cols)


@settings(max_examples=60)
@given(*RANK_DRAWS)
def test_sparse_rank_matches_fraction_elimination(seed, kind, rows, cols, inner):
    m = rank_matrix(seed, kind, rows, cols, inner)
    for x in (m, transpose(m)):
        assert x.rank() == fraction_rank(x.field, x.columns())


@settings(max_examples=40)
@given(*RANK_DRAWS)
def test_submatrix_matches_the_entries_it_selects(seed, kind, rows, cols, inner):
    m = rank_matrix(seed, kind, rows, cols, inner)
    rng = random.Random(seed)
    keep_rows = np.array([rng.random() < 0.6 for _ in range(rows)])
    keep_cols = np.array([rng.random() < 0.6 for _ in range(cols)])
    new_row, new_col = np.cumsum(keep_rows) - 1, np.cumsum(keep_cols) - 1
    want = Matrix(int(keep_rows.sum()), int(keep_cols.sum()), m.field,
                  {(int(new_row[i]), int(new_col[j])): v for (i, j), v in m.entries()
                   if keep_rows[i] and keep_cols[j]})
    got = m.submatrix(keep_rows, keep_cols)
    assert got == want and got.data == want.data


@settings(max_examples=40)
@given(*RANK_DRAWS)
def test_a_closed_submatrix_refuses_exactly_the_entries_it_would_drop(seed, kind, rows,
                                                                       cols, inner):
    m = rank_matrix(seed, kind, rows, cols, inner)
    rng = random.Random(seed)
    keep_rows = np.array([rng.random() < 0.6 for _ in range(rows)], dtype=bool)
    keep_cols = np.array([rng.random() < 0.6 for _ in range(cols)], dtype=bool)
    dropped = m.submatrix(keep_rows, ~keep_cols)
    if dropped.is_zero():
        assert m.submatrix(keep_rows, keep_cols, closed=True) == m.submatrix(keep_rows,
                                                                           keep_cols)
    else:
        with pytest.raises(ValueError, match="dropped column"):
            m.submatrix(keep_rows, keep_cols, closed=True)


def _with_alarm(seconds, call):
    """``call()``, failed by a ``TimeoutError`` after ``seconds`` instead of
    running on."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("columns", [
    [{0: 1, 1: 2}, {0: 3, 2: 1}, {0: 5, 1: 1}],    # leads shared: _echelon reduces
    [{0: 2, 1: 3}, {1: 5}],                        # distinct leads: back substitution does
])
def test_an_elimination_that_cancels_nothing_is_an_internal_error(monkeypatch, columns):
    # a wrong inverse leaves each pivot 2 at its lead, so no reduction
    # cancels the entry it should: the loop would run forever
    inverse = linalg._inverse_mod
    monkeypatch.setattr(linalg, "_inverse_mod", lambda a, p: inverse(a, p) * 2 % p)
    m = Matrix.from_columns(columns, 3, F7)
    with pytest.raises(RuntimeError, match="raised no column's lead|cleared no entry"):
        _with_alarm(10, lambda: column_echelon(m))
    if len({min(c) for c in columns}) < len(columns):
        with pytest.raises(RuntimeError, match="raised no column's lead"):
            _with_alarm(10, m.rank)


def test_sparse_rank_with_non_unit_pivots():
    # every leading entry is 2, 3 or 6, so each elimination step scales the
    # row and divides its content out again; so does the 2**62 multiple
    for scale in (1, 2**62):
        m = from_rows([[2, 4, 6, 0], [3, 6, 9, 1], [6, 13, 18, 2], [3, 7, 9, 1]], QQ)
        m = m.scale(QQ.of(scale))
        assert m.rank() == fraction_rank(QQ, m.columns()) == 3
        assert transpose(m).rank() == 3


@settings(max_examples=60)
@given(*RANK_DRAWS)
def test_column_echelon_matches_the_reference(seed, kind, rows, cols, inner):
    m = rank_matrix(seed, kind, rows, cols, inner)
    for x in (m, transpose(m)):
        assert_echelon_matches(x)


def assert_echelon_matches(m: Matrix) -> None:
    """``rank`` and ``column_echelon`` of ``m`` against ``fraction_rank`` and
    ``reference_column_echelon``; the basis is stored canonically."""
    basis, pivots = column_echelon(m)
    want, want_pivots = reference_column_echelon(m.field, m.columns())
    assert pivots == want_pivots and basis.columns() == want
    assert basis == Matrix.from_columns(want, m.rows, m.field)
    assert (basis.rows, basis.cols) == (m.rows, len(pivots))
    assert m.rank() == len(pivots) == fraction_rank(m.field, m.columns())


def test_echelon_of_empty_and_zero_matrices():
    for field in (QQ, F7):
        for rows, cols in ((0, 0), (0, 4), (4, 0), (3, 5)):
            m = Matrix.zero(rows, cols, field)
            assert m.rank() == 0
            assert_echelon_matches(m)
        assert Matrix.zero(0, 0, field).inverse() == Matrix.zero(0, 0, field)
        assert Matrix.zero(3, 3, field).inverse() is None


def _spy_rounds(monkeypatch):
    """The value type of every elimination round's operand, in order."""
    seen = []
    inner = linalg._reduce

    def spy(rows, p, col, row, val, *rest):
        seen.append(val.dtype)
        return inner(rows, p, col, row, val, *rest)
    monkeypatch.setattr(linalg, "_reduce", spy)
    return seen


def test_a_q_elimination_leaves_int64_partway(monkeypatch):
    # entries near 2**30 with non-unit leads: the first round fits int64, and
    # the fraction-free products of the rounds after it do not
    rng = random.Random(3)
    m = Matrix(6, 6, QQ, {(i, j): QQ.of(rng.randrange(2**29, 2**30)) for i in range(6)
                          for j in range(6)})
    assert m._csr[2].dtype == np.int64
    seen = _spy_rounds(monkeypatch)
    for x in (m, transpose(m)):
        assert_echelon_matches(x)
        assert reference_inverse(x) == x.inverse()
    assert seen[0] == np.int64 and object in seen


@pytest.mark.parametrize("kind", ["integer", "rational", "F7", "F2", "F2147483647",
                                  "F4294967311"])
def test_echelon_of_larger_sparse_matrices_takes_several_rounds(monkeypatch, kind):
    # 30 x 24 draws at 15 % density, and a band whose columns all start at
    # row 0, so that several columns share a lead in one round
    field, entry = RANK_ENTRIES[kind]
    rng = random.Random(21)
    band = Matrix(30, 24, field, {**{(0, j): field.of(rng.randint(1, 6)) for j in range(24)},
                                  **{(j + 1, j): field.of(entry(rng)) for j in range(24)},
                                  **{(j + 2, j): field.one() for j in range(24)}})
    seen = _spy_rounds(monkeypatch)
    for m in [band] + [_random_matrix(rng, 30, 24, field, 0.15) for _ in range(3)]:
        for x in (m, transpose(m), m @ transpose(m)):
            del seen[:]
            assert_echelon_matches(x)
            assert len(seen) > 2


# the draws of RANK_ENTRIES, and "wide" integers near 2**30 over Q, whose
# fraction-free products leave int64 partway through an elimination
SCALE_ENTRIES = {**RANK_ENTRIES, "wide": (QQ, lambda rng: rng.randrange(2**29, 2**30))}


def scale_matrix(seed, kind, rows, cols):
    """A sparse ``rows`` x ``cols`` matrix of ``kind`` with fill-in: every
    column has an entry in the first few rows, so that the first round
    makes few pivots and the reductions fill the rows below, and the later
    rounds make the rest.  Half the draws are a product through an inner
    dimension, whose rank is lower."""
    field, entry = SCALE_ENTRIES[kind]
    rng = random.Random(seed)
    top, density = rng.randint(1, 4), rng.choice([0.05, 0.15, 0.3])

    def rand(r, c):
        data = {(i, j): entry(rng) for j in range(c) for i in range(r) if rng.random() < density}
        data.update({(rng.randrange(min(top, r)), j): entry(rng) for j in range(c)})
        return Matrix(r, c, field, {k: field.of(v) for k, v in data.items()})

    inner = rng.choice([0, 0, 6, 20])
    return rand(rows, inner) @ rand(inner, cols) if inner else rand(rows, cols)


def edge_masks(m: Matrix):
    """Fixed column masks of ``m``: every column kept, none, all but the
    empty columns, and all but the lowest-indexed column at each lead, so
    that the first round's pivot at a lead moves to the next column with
    it (or the lead loses its pivot there)."""
    ptr, row, _ = m._csc_arrays()
    filled = ptr[1:] > ptr[:-1]
    first = {}
    for j in filled.nonzero()[0].tolist():
        first.setdefault(int(row[ptr[j]]), j)
    not_first = np.ones(m.cols, dtype=bool)
    not_first[list(first.values())] = False
    return [np.ones(m.cols, dtype=bool), np.zeros(m.cols, dtype=bool), filled, not_first]


def assert_elimination_matches(m: Matrix, rng: random.Random) -> None:
    """``rank`` with its leads, restricted to a column mask or not, and
    ``column_echelon`` of ``m`` against ``reference_echelon``,
    ``fraction_rank`` and ``reference_column_echelon``; each restricted
    rank, on a drawn mask and on the ``edge_masks``, also against the rank
    of the ``submatrix`` it stands for."""
    rank, leads = m.rank(leads=True)
    want = reference_echelon(m.field, m.columns())
    assert rank == len(want) == fraction_rank(m.field, m.columns())
    assert leads.nonzero()[0].tolist() == sorted(want)
    drawn = np.array([rng.random() < 0.6 for _ in range(m.cols)], dtype=bool)
    for mask in [drawn] + edge_masks(m):
        sub = m.submatrix(np.ones(m.rows, dtype=bool), mask)
        rank, leads = m.rank(leads=True, cols=mask)
        want = sub.rank(leads=True)
        ref = reference_echelon(m.field, sub.columns())
        assert rank == want[0] == len(ref)
        assert np.array_equal(leads, want[1]) and leads.nonzero()[0].tolist() == sorted(ref)
    basis, pivots = column_echelon(m)
    want, want_pivots = reference_column_echelon(m.field, m.columns())
    assert pivots == want_pivots and basis.columns() == want


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(sorted(SCALE_ENTRIES)),
       st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=60))
@example(3, "F2147483647", 40, 60).via("the largest int64 prime of the draws")
@example(3, "F4294967311", 40, 60).via("object values")
def test_elimination_at_scale_matches_the_references(seed, kind, rows, cols):
    note(f"{kind} {rows} x {cols}")
    assert_elimination_matches(scale_matrix(seed, kind, rows, cols), random.Random(seed))


def test_a_tall_thin_elimination_works_in_a_pivot_sized_set():
    # 2**18 x 64 over F7, three entries a column, the leads among 16 rows so
    # that reductions run: the elimination's bookkeeping is per pivot and
    # it reads the column mask as a set of live columns, so neither the rank
    # nor column_echelon allocates anything of the size of the rows beyond
    # what it returns (the leads' mask, the basis's row pointer)
    rng = random.Random(29)
    rows = 2**18
    m = Matrix(rows, 64, F7, {(i, j): F7.of(rng.randint(1, 6)) for j in range(64)
                              for i in [rng.randrange(16)] + rng.sample(range(16, rows), 2)})
    mask = np.array([j % 5 != 0 for j in range(64)])
    for call in (lambda: m.rank(leads=True, cols=mask), lambda: column_echelon(m)):
        tracemalloc.start()
        try:
            out = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 2**20
        del out
    assert m.rank() == 64 and m.rank(cols=mask) == 51


@pytest.mark.parametrize("kind", ["wide", "F7", "F2147483647", "F4294967311"])
def test_the_pivot_store_grows_more_than_once(monkeypatch, kind):
    # the pivots of the first round stay in the arrays the elimination
    # starts from, and those of later rounds go to a tail buffer, which
    # grows by doubling: a 40 x 60 draw with fill-in grows it past its first
    # allocation, and over Q the values leave int64 partway, so the tail
    # moves to objects as it grows
    grown, grow = [], linalg._grown

    def spy(a, used, size, dtype):
        grown.append((size, np.dtype(dtype)))
        return grow(a, used, size, dtype)
    monkeypatch.setattr(linalg, "_grown", spy)
    m = scale_matrix(1, kind, 40, 60)
    m.rank()
    growths = grown[1::2]       # a growth makes a row buffer, then a value buffer
    assert len(growths) > 2 and [n for n, _ in growths] == sorted(n for n, _ in growths)
    if kind == "wide":
        assert {t for _, t in growths} == {np.dtype(np.int64), np.dtype(object)}
    assert_elimination_matches(m, random.Random(1))


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_matmul_scipy_matches_python(seed):
    rng = random.Random(seed)
    for field in (QQ, F7):
        ra = Ref(field, 6, 5, _random_entries(rng, 6, 5, field))
        rb = Ref(field, 5, 7, _random_entries(rng, 5, 7, field))
        assert_matches(ra.matrix() @ rb.matrix(), ra @ rb)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_matmul_with_fractions_falls_back(seed):
    # non-integral entries force the pure python route; results must agree
    # with an entrywise dense computation
    rng = random.Random(seed)
    a = _random_matrix(rng, 4, 4, QQ)
    a = a.scale(QQ.of("1/3"))
    b = _random_matrix(rng, 4, 3, QQ)
    prod = a @ b
    for i in range(4):
        for j in range(3):
            acc = QQ.zero()
            for k in range(4):
                acc += a.get(i, k) * b.get(k, j)
            assert prod.get(i, j) == acc


def test_kron_is_big_endian():
    a = from_rows([[1, 2], [0, 1]], QQ)
    b = from_rows([[0, 1], [1, 0]], QQ)
    k = a.kron(b)
    # entry ((i,k),(j,l)) = a[i,j] b[k,l] with row index i*2+k
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    assert k.get(i * 2 + p, j * 2 + q) == a.get(i, j) * b.get(p, q)


def test_inverse_round_trip():
    rng = random.Random(5)
    for field in (QQ, F7):
        data = {(i, i): field.one() for i in range(5)}
        for _ in range(10):
            i, j = rng.randrange(5), rng.randrange(5)
            if i != j:
                data[(i, j)] = field.of(rng.randint(1, 3))
        m = Matrix(5, 5, field, data)
        inv = m.inverse()
        assert inv is not None
        assert m @ inv == Matrix.identity(5, field)


def test_inverse_of_singular_is_none():
    m = Matrix(3, 3, QQ, {(0, 0): QQ.one(), (1, 1): QQ.one()})
    assert m.inverse() is None


def kernel_copy(m: Matrix) -> Matrix:
    """``m`` as a kernel result: its Kronecker product with a 1 x 1 (1)
    other than the shared I_1, for which ``kron`` returns ``m`` itself."""
    return m.kron(from_rows([[1]], m.field))


def reference_inverse(m: Matrix):
    """Dense Gauss-Jordan elimination in the field's arithmetic, or None
    when singular: the oracle for the echelon ``Matrix.inverse``."""
    if m.rows != m.cols:
        return None
    f = m.field
    n = m.rows
    a = [[m.get(i, j) for j in range(n)] for i in range(n)]
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
    return from_rows(inv, f)


NAMED_ALGEBRAS = ["kZ2", "kZ3", "kZ4", "kS3", "dualZ2", "dualZ2_F2", "sweedler",
                  "taft327", "kZ3_scaled"]


def test_inverse_of_every_named_antipode_matches_gauss_jordan():
    for name in NAMED_ALGEBRAS:
        S = named_algebra(name).antipode
        inv = S.inverse()
        assert inv is not None and inv == reference_inverse(S)
        assert S @ inv == Matrix.identity(S.rows, S.field)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_inverse_matches_gauss_jordan(seed):
    # sparse draws are mostly singular, dense ones mostly invertible
    rng = random.Random(seed)
    for field in (QQ, Field(5)):
        for n in range(6):
            m = _random_matrix(rng, n, n, field, rng.choice([0.3, 0.6, 0.9]))
            want = reference_inverse(m)
            got = m.inverse()
            assert (got is None) == (want is None)
            assert got == want
            # the same matrix as a kernel result
            assert kernel_copy(m).inverse() == want
            # and built from dense columns with their zeros, as from a
            # --hopf file that lists its antipode densely
            dense = Matrix.from_columns([{i: m.get(i, j) for i in range(n)}
                                         for j in range(n)], n, field)
            assert dense == m and dense.inverse() == want
    assert Matrix.zero(2, 3, QQ).inverse() is None


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_monomial_inverse_matches_gauss_jordan(seed):
    # one entry per row and column: the transpose with inverted entries over
    # F_p and for +-1 over Q, elimination for other rationals; a repeated
    # column is singular
    rng = random.Random(seed)
    for field, values in ((QQ, (1, -1)), (QQ, (1, -1, 2, "1/3")), (F7, range(1, 7)),
                          (Field(2), (1,)), (Field(2**31 - 1), (1, 5, 2**30))):
        n = rng.randint(1, 6)
        perm = rng.sample(range(n), n)
        m = Matrix(n, n, field, {(i, perm[i]): field.of(rng.choice(values)) for i in range(n)})
        inv = m.inverse()
        assert inv == reference_inverse(m) and m @ inv == Matrix.identity(n, field)
        assert all(type(v) is type(field.one()) for v in inv.data.values())
        if n > 1:
            perm[0] = perm[1]
            singular = Matrix(n, n, field, {(i, perm[i]): field.one() for i in range(n)})
            assert singular.inverse() is None


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_identity_defect_witness_matches_direct(seed):
    # the witness is the first entry of the defect in row-major order, for
    # +-1 and +-2 coefficients, for terms of one sign only (the value keeps
    # its sign) and for an int64 term against an object-valued one
    rng = random.Random(seed)
    for field in (QQ, F7):
        a = _random_matrix(rng, 4, 5, field)
        b = _random_matrix(rng, 5, 3, field)
        c = _random_matrix(rng, 4, 3, field)
        odd = Matrix(4, 3, field, {(rng.randrange(4), rng.randrange(3)): field.of("1/2"),
                                   (rng.randrange(4), rng.randrange(3)): field.of(2**63)})
        ab, two, minus = a @ b, field.of(2), field.of(-1)
        for terms, direct in [([(1, [a, b]), (-1, [c])], ab - c),
                              ([(-1, [a, b])], ab.scale(minus)),
                              ([(-1, [a, b]), (-2, [c])], ab.scale(minus) - c.scale(two)),
                              ([(2, [a, b]), (-2, [c])], ab.scale(two) - c.scale(two)),
                              ([(1, [a, b]), (-1, [odd])], ab - odd)]:
            w = identity_defect_witness(field, terms)
            assert w == direct.nonzero_witness()
            assert w is None or type(w[2]) is type(field.one())
        # the identity variant: a@b - a@b == 0
        assert identity_defect_witness(field, [(1, [a, b]), (-1, [a, b])]) is None
        assert identity_defect_witness(field, [(2, [a, b]), (-1, [ab]), (-1, [a, b])]) is None


def test_identity_defect_witness_kron_terms():
    f = QQ
    a = from_rows([[1, 1], [0, 1]], f)
    eye = Matrix.identity(3, f)
    direct = a.kron(eye)
    w = identity_defect_witness(f, [(1, [(a, eye)]), (-1, [direct])])
    assert w is None
    # a negative side alone keeps its sign; an object-valued term beside an int64 one
    assert identity_defect_witness(f, [(-1, [(a, eye)])]) == (0, 0, f.of(-1))
    assert identity_defect_witness(f, [(-2, [(a, eye)]), (-2, [direct])]) == (0, 0, f.of(-4))
    half = from_rows([["1/2", 0], [0, 1]], f)
    assert identity_defect_witness(f, [(1, [(a, eye)]), (-1, [(half, eye)])]) == (0, 0, f.of("1/2"))


def test_identity_defect_witness_bounds_the_sum_of_terms():
    # each term fits in int64 but their sum 2**63 + 2**63 does not
    big = from_rows([[2**62]], QQ)
    assert identity_defect_witness(QQ, [(2, [big]), (2, [big])]) == (0, 0, QQ.of(2**64))
    eye = Matrix.identity(1, QQ)
    assert identity_defect_witness(QQ, [(1, [big, eye])] * 3) == (0, 0, QQ.of(3 * 2**62))


def test_huge_entries_fall_back_to_exact_products():
    huge = from_rows([[2**63]], QQ)
    assert huge @ Matrix.identity(1, QQ) == huge
    half = from_rows([[2**40]], QQ)
    assert half.kron(half) == from_rows([[2**80]], QQ)
    assert identity_defect_witness(QQ, [(1, [(half, half)])]) == (0, 0, QQ.of(2**80))


def _exact_product(a: Matrix, b: Matrix):
    """The entries of a b as field scalars, summed in Python integers."""
    f, rows_a, rows_b = a.field, [[a.get(i, k) for k in range(a.cols)] for i in range(a.rows)], \
        [[b.get(k, j) for j in range(b.cols)] for k in range(b.rows)]
    return [[f.of(sum(x * y for x, y in zip(row, col))) for col in zip(*rows_b)] for row in rows_a]


@pytest.mark.parametrize("field,entry,inner", [
    (QQ, P31, 4), (QQ, -P31, 5), (QQ, P31, 9), (Field(P31), P31 - 1, 3), (Field(P31), P31 - 1, 8)])
def test_products_whose_sums_leave_int64_are_exact(field, entry, inner):
    # every single term a_ik b_kj of these int64 operands is below 2^62, but
    # a sum of three or more of them is not: the bound of ``@`` counts the
    # inner dimension, and the product agrees with exact Python sums (over
    # F_2147483647 a wrapped sum reads 0 where the answer is ``inner``)
    rng = random.Random(inner)
    a = from_rows([[entry] * inner, [entry if rng.random() < 0.7 else 1 for _ in range(inner)]],
                  field)
    b = from_rows([[entry, rng.choice([entry, 1, 0])] for _ in range(inner)], field)
    assert a._to_csr() is not None and b._to_csr() is not None
    got = a @ b
    assert got == from_rows(_exact_product(a, b), field)
    assert got.get(0, 0) == field.of(inner * entry * entry)


@pytest.mark.parametrize("field,entry,shift", [
    (QQ, P31, 2**62 - 1), (QQ, -P31, -(2**62 - 1)), (QQ, 2**30, 2**61 - 1),
    (Field(P31), P31 - 1, P31 - 1)])
def test_kron_minus_blocks_at_its_bound_is_exact(field, entry, shift):
    # max|A| max|B| + max|P| at or beyond 2^62 takes the exact path, below
    # it the int64 one; either way A (x) B - I_c (x) P agrees entry by entry
    # with exact Python arithmetic
    c, rng = 2, random.Random(shift % 97)
    a = from_rows([[entry, rng.choice([entry, 1])], [1, entry], [0, -entry], [entry, entry]], field)
    b = from_rows([[entry, 1], [rng.choice([entry, 0]), entry]], field)
    p = from_rows([[shift if (i + j) % 3 else -shift for j in range(2)] for i in range(4)], field)
    got = linalg.kron_minus_blocks(a, b, c, p)
    # block k of I_2 (x) P is P at rows 4k .. 4k + 3 and columns 2k, 2k + 1
    want = [[field.of(a.get(i // 2, j // 2) * b.get(i % 2, j % 2)
                      - (p.get(i % 4, j % 2) if i // 4 == j // 2 else 0))
             for j in range(4)] for i in range(8)]
    assert got == from_rows(want, field)


# a prime above 2^62: its values at or past 2^62 stay objects
P_HUGE = next(n for n in range(2**62 + 1, _PRIME_LIMIT, 2) if is_prime(n))
M61 = 2**61 - 1     # prime: over F_M61 an entry p - 1 is in range, its square is not


@pytest.mark.parametrize("field,entry", [
    (QQ, 2**31 - 1), (QQ, 2**31), (QQ, -(2**40)), (QQ, 2**61), (Field(P31), P31 - 1),
    (Field(M61), M61 - 1)])
def test_kron_at_its_bound_is_exact(field, entry):
    # every entry is below 2^62, but a product of two need not be:
    # max|A| max|B| at or beyond 2^62 takes the exact path, below it the
    # int64 one; either way A (x) B agrees entry by entry with exact Python
    # products (2^40 2^40 wraps to 0 in int64)
    rng = random.Random(entry % 97)
    a = from_rows([[entry, rng.choice([entry, 1])], [0, -entry]], field)
    b = from_rows([[entry, 3], [rng.choice([entry, 0]), 1]], field)
    assert a._to_csr() is not None and b._to_csr() is not None
    want = [[field.of(a.get(i // 2, j // 2) * b.get(i % 2, j % 2)) for j in range(4)]
            for i in range(4)]
    assert a.kron(b) == from_rows(want, field)


@pytest.mark.parametrize("field,entry", [
    (QQ, 2**62 - 1), (QQ, -(2**62 - 1)), (QQ, 2**61), (QQ, 2**60), (Field(M61), M61 - 1)])
def test_sums_at_the_bound_of_combine_are_exact(field, entry):
    # every entry is below 2^62, but a sum of two need not be, and one of
    # three can leave int64: max|A| + max|B| at or beyond 2^62 takes the
    # exact path, below it the int64 one.  Chained sums and differences
    # agree entry by entry with exact Python sums
    a = from_rows([[entry, 1], [entry, -entry]], field)
    b = from_rows([[entry, entry], [0, -entry]], field)
    c = from_rows([[-entry, 0], [entry, -entry]], field)
    for got, signs in (((a + b) - c, (1, 1, -1)), ((a - c) + b, (1, 1, -1)),
                       (c - (a + b), (-1, -1, 1)), ((a + b) + (b - c), (1, 2, -1))):
        want = [[field.of(sum(s * m.get(i, j) for s, m in zip(signs, (a, b, c))))
                 for j in range(2)] for i in range(2)]
        assert got == from_rows(want, field), signs


def _dense_kron(m, a, b):
    """I_a (x) m (x) I_b as a list of rows of exact entries."""
    dense = [[m.get(i, j) for j in range(m.cols)] for i in range(m.rows)]
    return [[dense[i // b % m.rows][j // b % m.cols] if (i // (b * m.rows) == j // (b * m.cols)
                                                         and i % b == j % b) else 0
             for j in range(a * m.cols * b)] for i in range(a * m.rows * b)]


@pytest.mark.parametrize("field,entry", [
    (QQ, 2**61 - 1), (QQ, -(2**61 - 1)), (QQ, 2**61), (QQ, 2**60), (QQ, -(2**60)),
    (Field(M61), M61 - 1), (Field(P31), P31 - 1)])
def test_kron_sum_at_its_bound_is_exact(field, entry):
    # three terms of one 4 x 2 shape, -(G (x) I_2) + A - I_2 (x) B, whose
    # entries meet at (0, 0) and (3, 1) with one sign: every entry is below
    # 2^62, and so is a sum of two of them, but the sum of all three need not
    # be.  sum_t max|A_t| at or beyond 2^62 takes the exact path, below it
    # the int64 one; either way each entry is the exact Python sum, and an
    # int64 result holds no entry of 2^62 or more (a bound that leaves out
    # one term stores 3 (2^61 - 1) in int64)
    g = from_rows([[-entry], [1]], field)
    a = from_rows([[entry, 0], [0, 2], [1, -1], [0, entry]], field)
    b = from_rows([[-entry], [3]], field)
    terms = [(-1, 1, g, 2), (1, 1, a, 1), (-1, 2, b, 1)]
    got = linalg.kron_sum(terms, 4, 2, field)
    parts = [(s, _dense_kron(m, k, n)) for s, k, m, n in terms]
    want = [[field.of(sum(s * p[i][j] for s, p in parts)) for j in range(2)] for i in range(4)]
    assert got == from_rows(want, field) and got.data == from_rows(want, field).data
    assert got.get(0, 0) == field.of(3 * entry)
    if got._to_csr() is not None:
        assert int(abs(got._csr[2]).max()) < linalg._INT64_SAFE
    assert (got._to_csr() is None) == any(abs(v) >= linalg._INT64_SAFE for r in want for v in r)


@pytest.mark.parametrize("field,special", [(QQ, Fraction(1, 3)), (QQ, 2**63),
                                           (Field(P_HUGE), P_HUGE - 1), (Field(P_HUGE), 5)])
def test_kron_sum_of_object_terms_is_exact(field, special):
    # a term with a Fraction or a value past int64, or over a prime whose
    # p - 1 reaches 2^62, is summed on the object path, by ``_of_entries``;
    # a sum of terms that cancels leaves no entry, and the value types are
    # those of ``_field_values``
    g = from_rows([[special], [1]], field)
    a = from_rows([[special, 0], [0, 2], [1, -1], [0, special]], field)
    terms = [(1, 1, g, 2), (-1, 1, a, 1), (1, 2, g, 1), (-1, 1, a, 1)]
    got = linalg.kron_sum(terms, 4, 2, field)
    parts = [(s, _dense_kron(m, k, n)) for s, k, m, n in terms]
    want = from_rows([[field.of(sum(s * p[i][j] for s, p in parts)) for j in range(2)]
                      for i in range(4)], field)
    assert got == want and got.data == want.data
    assert got._csr[2].dtype == want._csr[2].dtype
    assert linalg.kron_sum(terms[:2] + [(-1, 1, g, 2), (1, 1, a, 1)], 4, 2, field).is_zero()


def test_kron_sum_checks_shapes_and_fields():
    # the routines do not check indices: a term of another shape, or over
    # another field, is a ValueError before any entry is listed
    a = from_rows([[1, 2], [3, 4]], QQ)
    for terms, field in (([(1, 2, a, 1), (1, 1, a, 1)], QQ), ([(1, 2, a, 1)], Field(7)),
                         ([(1, 1, a, 2), (-1, 2, a, 2)], QQ)):
        with pytest.raises(ValueError):
            linalg.kron_sum(terms, 4, 4, field)
    # a factor of size 0, as a comodule of dimension 0 gives, lists nothing
    assert linalg.kron_sum([(1, 3, a, 0), (-1, 0, a, 2)], 0, 0, QQ).is_zero()


@pytest.mark.parametrize("a,c,d", [
    (2**32, 1, 2**32), (2**32, 3, -(2**32)), (2**31 + 1, 2, 2**33 - 2), (3 * 2**40, 5, 2**30),
    (2**30, 1, 2**30), (2**29, 3, 2**30)])
def test_elimination_at_the_bound_of_reduce_is_exact(a, c, d):
    # columns (a, 0, 1) and (c, d, 0) over Q: the second is reduced by the
    # first to (0, (a/g) d, -c/g), g = gcd(a, c).  Every entry is below 2^62,
    # but (a/g) d need not be: 2 max|source| max|column| at or beyond 2^62
    # moves the values to objects first, below it they stay int64.  Rank and
    # echelon basis agree with exact Python elimination (2^32 2^32 wraps to
    # 0 in int64, which would read rank 1 for the first)
    m = Matrix.from_columns([{0: QQ.of(a), 2: QQ.one()}, {0: QQ.of(c), 1: QQ.of(d)}], 3, QQ)
    assert m._to_csr() is not None and m.rank() == 2
    assert_echelon_matches(m)
    assert_echelon_matches(transpose(m))


def test_get_checks_its_indices():
    # get(-2, 2) read row 1's entry, as ptr[-2] and ptr[-1] bound row 1, and
    # get(1, -1) and get(0, 5) read 0
    m = Matrix(2, 3, QQ, {(0, 0): 5, (1, 2): 7})
    assert (m.get(0, 0), m.get(1, 2), m.get(1, 1)) == (5, 7, 0)
    for i, j in [(-2, 2), (1, -1), (0, 5), (2, 0), (0, 3), (-1, -1)]:
        with pytest.raises(ValueError, match="matrix entry index out of range"):
            m.get(i, j)


def test_vec_tensor_layout():
    f = QQ
    v = vec_tensor(f, {1: f.of(2)}, {0: f.of(3)}, 4)
    assert v == {4: f.of(6)}


def test_a_write_to_data_changes_nothing():
    # .data is a new dict on each call; writing to it used to change the
    # matrix, and now leaves it, ==, @ and the defect check as they were
    eye = Matrix.identity(2, QQ)
    for rows in ([[1, 0], [0, 1]], [[1, 0], [0, "1/2"]], [[2**62, 0], [0, 1]]):
        m = from_rows(rows, QQ)
        before = (m.data, m @ eye, identity_defect_witness(QQ, [(1, [m]), (-1, [eye])]))
        data = m.data
        assert data == before[0] and data is not m.data
        data[(0, 1)] = Fraction(5)
        del data[(0, 0)]
        assert m.data == before[0] and m == from_rows(rows, QQ)
        assert m @ eye == before[1] == m
        assert identity_defect_witness(QQ, [(1, [m]), (-1, [eye])]) == before[2]


def assert_matches(got: Matrix, ref: Ref) -> None:
    """``got`` has the entries, the field scalars and the value type of ``ref``."""
    assert (got.rows, got.cols) == (ref.rows, ref.cols)
    assert got._csr[2].dtype == ref.value_type()
    data = got.data
    assert data == ref.d
    assert all(type(v) is type(ref.f.one()) for v in data.values())


# operand kinds: int64 values, and object values forced by one entry
SPECIAL = {"int64": None, "big": 2**62, "half": Fraction(1, 2)}
KINDS = [(QQ, "int64"), (F7, "int64"), (Field(2), "int64"), (QQ, "big"), (QQ, "half")]


def _ref(rng, field, rows, cols, special=None, density=None):
    """A random Ref with shapes and density as ``_kernel_operands``; a
    ``special`` value, when given, sits at (0, 0) of a nonempty matrix."""
    density = rng.choice([0.0, 0.3, 0.7]) if density is None else density
    data = _random_entries(rng, rows, cols, field, density)
    if special is not None and rows and cols:
        data[(0, 0)] = field.of(special)
    return Ref(field, rows, cols, data)


def _kernel_operands(rng, field):
    """Two int64 kernel results (a Kronecker product with I_1) of random
    matrices with shapes from 0 to 4 (empty rows, columns and matrices
    included)."""
    shape = [rng.randint(0, 4) for _ in range(3)]
    density = rng.choice([0.0, 0.3, 0.7])
    a = _random_matrix(rng, shape[0], shape[1], field, density)
    b = _random_matrix(rng, shape[1], shape[2], field, density)
    return kernel_copy(a), from_rows([[1]], field).kron(b)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_kron_kernel_matches_the_dict_loop(seed):
    rng = random.Random(seed)
    for field, kind in KINDS:
        for _ in range(3):
            rows = [rng.randint(0, 4) for _ in range(4)]
            ra = _ref(rng, field, rows[0], rows[1], SPECIAL[kind], rng.choice([0.0, 0.3, 0.8]))
            rb = _ref(rng, field, rows[2], rows[3], None, rng.choice([0.0, 0.3, 0.8]))
            a, b = ra.matrix(), rb.matrix()
            assert a._csr[2].dtype == ra.value_type()
            for got, ref in ((a.kron(b), ra.kron(rb)), (b.kron(a), rb.kron(ra))):
                assert_matches(got, ref)
                assert got == ref.matrix()


def reference_csr_kron(a: Matrix, b: Matrix):
    """The CSR arrays of ``a (x) b`` through the counting pass of
    ``coo_tocsr``, which ``_csr_kron`` skips when the entry order is
    already canonical."""
    (ap, aj, ax), (bp, bj, bx) = a._csr, b._csr
    rows, p = a.rows * b.rows, a.field.char
    row = ((np.arange(a.rows) * b.rows).repeat(np.diff(ap))[:, None]
           + np.arange(b.rows).repeat(np.diff(bp))).ravel()
    col = (aj[:, None] * b.cols + bj).ravel()
    val = (ax[:, None] * bx).ravel() % p if p else (ax[:, None] * bx).ravel()
    out = (np.empty(rows + 1, dtype=np.int64), np.empty(len(val), dtype=np.int64),
           np.empty(len(val), dtype=np.int64))
    linalg._sparsetools.coo_tocsr(rows, a.cols * b.cols, len(val), row, col, val, *out)
    return out


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_kron_without_the_counting_pass_gives_the_same_arrays(seed):
    # left factors with at most one entry per row (partial permutations with
    # values, identities) and one-row right factors take the direct path;
    # the rest take coo_tocsr; both must give the arrays coo_tocsr gives
    rng = random.Random(seed)
    for field in (QQ, F7, Field(2)):
        rows, cols, brows, bcols = (rng.randint(0, 5) for _ in range(4))
        sparse_rows = Matrix(rows, cols, field, {
            (i, rng.randrange(cols)): field.of(rng.randint(1, 9))
            for i in range(rows) if cols and rng.random() < 0.7})
        lefts = [sparse_rows, Matrix.identity(rows, field),
                 _random_matrix(rng, rows, cols, field, 0.5)]
        rights = [_random_matrix(rng, 1, bcols, field, 0.6),
                  _random_matrix(rng, brows, bcols, field, 0.5), Matrix.identity(brows, field)]
        for a in lefts:
            for b in rights:
                got = a.kron(b)
                assert all(np.array_equal(x, y) and x.dtype == y.dtype
                           for x, y in zip(got._csr, reference_csr_kron(a, b))), (a, b)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_kron_with_an_identity_returns_what_the_kernel_gives(seed):
    # X (x) I_1 and I_1 (x) X are X itself and I_m (x) I_n is the shared
    # I_mn, with no kernel call; each has the arrays the kernel gives
    rng = random.Random(seed)
    for field in (QQ, F7, Field(2)):
        x = _random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), field, 0.5)
        one, m, n = Matrix.identity(1, field), rng.randint(1, 5), rng.randint(1, 5)
        assert x.kron(one) is x and one.kron(x) is x
        eye = Matrix.identity(m, field).kron(Matrix.identity(n, field))
        assert eye._csr is linalg._identity_csr(m * n)
        for got, (a, b) in ((x, (x, one)), (x, (one, x)),
                            (eye, (Matrix.identity(m, field), Matrix.identity(n, field)))):
            assert all(np.array_equal(g, w) and g.dtype == w.dtype
                       for g, w in zip(got._csr, reference_csr_kron(a, b)))


# a field whose p^2 reaches _INT64_SAFE: its Kronecker products take the exact path
F_BIG = Field(4294967311)


def _with_corner(m: Matrix, value) -> Matrix:
    """``m`` with ``value`` at (0, 0), when it has that entry."""
    if not (m.rows and m.cols):
        return m
    data = m.data
    data[(0, 0)] = value
    return Matrix(m.rows, m.cols, m.field, data)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=4),
       st.sampled_from([1, 3, 40, linalg._BLOCK]),
       st.sampled_from([None, 2**31, 2**61, 2**62 - 1, -(2**62 - 1), Fraction(1, 2)]))
def test_kron_minus_blocks_gives_the_arrays_of_the_full_products(seed, c, block, special):
    # A (x) B - I_c (x) P built one run of I_c blocks at a time, with runs of
    # one block up to all c, against the two full Kronecker products and
    # their difference: empty blocks and matrices, entries near 2^62 and
    # Fractions (over Q), and p^2 >= 2^62 included
    rng = random.Random(seed)
    old = linalg._BLOCK
    linalg._BLOCK = block
    try:
        for field in (QQ, F7, Field(2), F_BIG):
            r, q, brows, bcols = (rng.randint(0, 3) for _ in range(4))
            a = _random_matrix(rng, c * r, c * q, field, rng.choice([0.0, 0.3, 0.8]))
            b = _random_matrix(rng, brows, bcols, field, rng.choice([0.0, 0.5, 1.0]))
            p = _random_matrix(rng, r * brows, q * bcols, field, rng.choice([0.0, 0.3, 0.8]))
            if special is not None and field is QQ:
                a, p = (_with_corner(m, special) if rng.random() < 0.5 else m for m in (a, p))
            got = linalg.kron_minus_blocks(a, b, c, p)
            want = a.kron(b) - Matrix.identity(c, field).kron(p)
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert all(np.array_equal(g, w) and g.dtype == w.dtype
                       for g, w in zip(got._csr, want._csr)), (field, a, b, p)
    finally:
        linalg._BLOCK = old


def test_kron_minus_blocks_lifts_negative_differences_over_fp(monkeypatch):
    # A (x) B is I_6 and I_3 (x) P has 5 everywhere in its blocks, so every
    # run of one block leaves 1 - 5 and -5 from csr_minus_csr; over F_7 the
    # result holds 3 on the diagonal and 2 beside it, never a negative value
    monkeypatch.setattr(linalg, "_BLOCK", 4)
    a, b = Matrix.identity(6, F7), from_rows([[1]], F7)
    p = from_rows([[5, 5], [5, 5]], F7)
    got = linalg.kron_minus_blocks(a, b, 3, p)
    want = [[(3 if i == j else 2) if i // 2 == j // 2 else 0 for j in range(6)]
            for i in range(6)]
    assert got == from_rows(want, F7) == a.kron(b) - Matrix.identity(3, F7).kron(p)
    assert got._csr[2].min() >= 0


def test_kron_minus_blocks_checks_the_block_shapes():
    eye4, eye2 = Matrix.identity(4, F7), Matrix.identity(2, F7)
    for a, b, c, p in [(eye4, eye2, 3, Matrix.zero(2, 2, F7)),
                       (eye4, eye2, 2, Matrix.zero(4, 3, F7)),
                       (eye4, eye2, 0, Matrix.zero(0, 0, F7)),
                       # the shapes fit, but P is over F5: its 4 was read as an F7 value
                       (eye2, Matrix.identity(1, F7), 2, Matrix(1, 1, Field(5), {(0, 0): 4}))]:
        with pytest.raises(ValueError):
            linalg.kron_minus_blocks(a, b, c, p)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_regroup_moves_each_entry_to_its_permuted_index(seed):
    # int64 and object values; the reference reads the indices off
    # itertools.product, which lists multi-indices big-endian.  The identity
    # order, a reshape that sorts nothing, is always among the orders
    rng = random.Random(seed)
    for field, kind in KINDS:
        dims = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        split = rng.randint(0, len(dims))
        ra = _ref(rng, field, prod(dims[:split]), prod(dims[split:]), SPECIAL[kind])
        drawn, nrows = rng.sample(range(len(dims)), len(dims)), rng.randint(0, len(dims))
        for order in (drawn, list(range(len(dims)))):
            new = [dims[k] for k in order]
            old = list(itertools.product(*map(range, dims)))
            pos = {t: k for k, t in enumerate(itertools.product(*map(range, new)))}
            cols = prod(new[nrows:])
            want = {divmod(pos[tuple(old[i * ra.cols + j][k] for k in order)], cols): v
                    for (i, j), v in ra.d.items()}
            assert_matches(ra.matrix().regroup(dims, order, nrows),
                           Ref(field, prod(new[:nrows]), cols, want))


def test_regroup_checks_the_axis_sizes_and_turns_the_identity_into_the_flip():
    with pytest.raises(ValueError):
        Matrix.identity(4, QQ).regroup([2, 3, 4], [1, 0, 2], 2)
    # a result with no columns used to divide by zero
    assert Matrix.zero(2, 0, QQ).regroup([2, 0], [0, 1], 1) == Matrix.zero(2, 0, QQ)
    assert Matrix.zero(0, 2, QQ).regroup([0, 2], [1, 0], 1) == Matrix.zero(2, 0, QQ)
    for m, n in [(1, 1), (1, 3), (2, 3), (3, 2)]:
        flip = Matrix(m * n, m * n, F7, {(j * m + i, i * n + j): 1
                                          for i in range(m) for j in range(n)})
        assert Matrix.flip(m, n, F7) == flip
        assert Matrix.identity(m * n, F7).regroup([m, n, m * n], [1, 0, 2], 2) == flip


# the operand kinds of the dict twin: those of KINDS, and int64 operands whose
# products leave int64, by an entry p - 1 over F_2147483647 (whose products
# pass 2^62 once summed) and by any entry over F_4294967311
TWIN_KINDS = [(field, SPECIAL[kind]) for field, kind in KINDS] + [(Field(P31), P31 - 1),
                                                                   (F_BIG, None)]


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_a_csr_result_equals_its_dict_twin(seed):
    # every operation against the dict reference: on int64 operands, on
    # object ones (a 2**62 or a 1/2 entry in the first operand, the second
    # or both), on int64 ones whose products leave int64, and on operands
    # with no rows, no inner dimension, no columns, or no entry
    rng = random.Random(seed)
    draws = itertools.product(TWIN_KINDS, ("first", "second", "both"))
    for draw, ((field, special), where) in enumerate(draws):
        # ``empty`` 0, 1 or 2 zeroes that one of (rows, inner, cols); 3 leaves
        # the first operand with no entry
        dims, empty = [rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 4)], (seed + draw) % 5
        if empty < 3:
            dims[empty] = 0
        r, k, c = dims
        ra = _ref(rng, field, r, k, None if where == "second" else special,
                  0.0 if empty == 3 else None)
        rb, rc = (_ref(rng, field, rows, cols, None if where == "first" else special)
                  for rows, cols in ((k, c), (r, k)))
        rd = _ref(rng, field, r, c)
        a, b, cm, d = (x.matrix() for x in (ra, rb, rc, rd))
        one = field.one()
        cases = [(a @ b, ra @ rb), (a.kron(b), ra.kron(rb)), (b.kron(a), rb.kron(ra)),
                 (a + cm, ra.plus(rc, one)), (cm - a, rc.plus(ra, field.neg(one))),
                 (a - a, ra.plus(ra, field.neg(one))), (cm + a, rc.plus(ra, one))]
        cases += [(a.scale(x), Ref(field, r, k, {}).plus(ra, x))
                  for x in map(field.of, (0, 1, -1, 3, "1/3", 2**62))]
        for got, ref in cases:
            assert_matches(got, ref)
            assert got == ref.matrix() and ref.matrix() == got
            assert got.columns() == ref.columns()
            assert got.nonzero_witness() == ref.witness()
            doubled = got.kron(from_rows([[2]], field))
            assert (got == doubled) == (not ref.d)
        for m, ref in ((a, ra), (b, rb), (a @ b, ra @ rb)):
            assert m.rank() == fraction_rank(field, ref.columns())
        # an invertible square matrix: a unit upper triangle with the special entry
        n = rng.randint(1, 4)
        rs = Ref(field, n, n, {**{(i, i): field.one() for i in range(n)},
                               **{(i, j): field.of(rng.randint(-3, 3))
                                  for i in range(n) for j in range(i + 1, n)}})
        if special is not None:
            rs.d[(0, 0)] = field.of(special)
        s = rs.matrix()
        inv, want = s.inverse(), reference_inverse(s)
        assert want is not None and inv == want
        assert_matches(inv, Ref(field, n, n, dict(want.entries())))
        assert s @ inv == Matrix.identity(n, field)
        # the defect a @ b - d: its witness is the first entry in row-major order
        ref = (ra @ rb).plus(rd, field.neg(field.one()))
        w = identity_defect_witness(field, [(1, [a, b]), (-1, [d])])
        assert w == ref.witness()
        assert w is None or type(w[2]) is type(field.one())


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_sums_and_multiples_of_csr_operands_stay_canonical_csr(seed):
    rng = random.Random(seed)
    for field in (QQ, F7, Field(2)):
        a, _ = _kernel_operands(rng, field)
        b = kernel_copy(_random_matrix(rng, a.rows, a.cols, field))
        minus_one = field.neg(field.one())
        cases = [(a + b, b, field.one()), (a - b, b, minus_one), (a - a, a, minus_one)]
        cases += [(b.scale(c), None, c) for c in map(field.of, (0, 1, -1, 3))]
        for got, other, c in cases:
            # the same entries, entry by entry in the field's arithmetic
            base = a if other is not None else Matrix.zero(b.rows, b.cols, field)
            other = b if other is None else other
            keys = {k for k, _ in base.entries()} | {k for k, _ in other.entries()}
            twin = Matrix(a.rows, a.cols, field,
                          {(i, j): field.add(base.get(i, j), field.mul(c, other.get(i, j)))
                           for i, j in keys})
            assert got._csr[2].dtype == np.int64
            assert all(np.array_equal(x, y) for x, y in zip(got._csr, twin._csr))
            assert all(type(v) is type(field.one()) for v in got.data.values())


def test_sums_and_differences_check_the_fields():
    # F7 (3) + F5 (4) used to return the zero matrix over F7, as 3 + 4 = 0 mod 7
    for a, b in [(Matrix(1, 1, F7, {(0, 0): 3}), Matrix(1, 1, Field(5), {(0, 0): 4})),
                 (Matrix(1, 1, QQ, {(0, 0): Fraction(1, 2)}), Matrix(1, 1, F7, {(0, 0): 2})),
                 (Matrix(1, 1, F_BIG, {(0, 0): 3}), Matrix(1, 1, F7, {(0, 0): 4}))]:
        for got in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: b - a):
            with pytest.raises(ValueError, match="field mismatch"):
                got()


def test_matrix_arithmetic_takes_no_field_arithmetic(monkeypatch):
    # the exact path of @, kron, + and - runs numpy calls on object arrays;
    # with Field.add, sub, mul and of raising, object operands over Q
    # (Fractions and 2^62), int64 operands over F_4294967311 (whose products
    # pass 2^64) and the values of a prime above 2^62 still give the dict
    # reference's entries, and so does the exact tail of column_echelon
    # behind the inverse of a non-monomial matrix over Q
    rng, pairs = random.Random(11), []
    for field, special in [(QQ, Fraction(1, 3)), (QQ, 2**62), (F_BIG, None),
                           (Field(P_HUGE), None), (Field(P_HUGE), 2**62 + 5)]:
        for n in range(4):
            ra, rb = (_ref(rng, field, 3, 3, special if n & bit else None, 0.7) for bit in (1, 2))
            pairs.append((ra, rb, ra.matrix(), rb.matrix()))
    refs = [(ra @ rb, ra.kron(rb), ra.plus(rb, ra.f.one()), ra.plus(rb, ra.f.neg(ra.f.one())))
            for ra, rb, _, _ in pairs]
    square = from_rows([[2, 1, 0], [Fraction(1, 3), 1, 5], [0, 4, 1]], QQ)
    inverse = reference_inverse(square)

    def field_arithmetic(*args):
        raise AssertionError("Matrix called Field arithmetic")

    with monkeypatch.context() as patch:
        for name in ("add", "sub", "mul", "of"):
            patch.setattr(Field, name, field_arithmetic)
        got = [(a @ b, a.kron(b), a + b, a - b) for _, _, a, b in pairs]
        got_inverse = square.inverse()
    for results, wants in zip(got, refs):
        for result, want in zip(results, wants):
            assert_matches(result, want)
    assert any(r._csr[2].dtype == object for rs in got[-8:] for r in rs)
    assert got_inverse == inverse and got_inverse._csr[2].dtype == object
    assert got_inverse.data == inverse.data


def test_the_witness_is_read_off_the_arrays():
    # the first item of entries(), int64 values read as Python ints, past
    # any number of empty leading rows
    for field, value in [(QQ, 3), (QQ, Fraction(1, 2)), (QQ, 2**63), (F7, 3), (F_BIG, 2**32),
                         (Field(P_HUGE), -1)]:
        for empty in range(4):
            m = Matrix(empty + 2, 3, field, {(empty, 2): value, (empty + 1, 0): 5})
            (i, j), v = next(iter(m.entries()))
            w = m.nonzero_witness()
            assert w == (i, j, v) == (empty, 2, m.get(empty, 2))
            assert [type(x) for x in w] == [int, int, type(v)]
            big = m.kron(Matrix.identity(2, field)) @ Matrix(6, 1, field, {(4, 0): 1})
            (i, j), v = next(iter(big.entries()))
            assert big.nonzero_witness() == (i, j, v) == (2 * empty, 0, big.get(2 * empty, 0))
        assert Matrix.zero(3, 2, field).nonzero_witness() is None


def test_a_product_with_an_identity_is_the_other_operand():
    rng = random.Random(5)
    for field in (QQ, F7, F_BIG):
        a = _random_matrix(rng, 3, 4, field, 0.6)
        assert a @ Matrix.identity(4, field) is a and Matrix.identity(3, field) @ a is a
        # an identity built entry by entry is not the shared one: the kernel runs
        eye = Matrix(4, 4, field, {(i, i): 1 for i in range(4)})
        assert a @ eye == a and a @ eye is not a
        for bad in (lambda: a @ Matrix.identity(3, field), lambda: Matrix.identity(4, field) @ a,
                    lambda: a @ Matrix.identity(4, Field(5)),
                    lambda: Matrix.identity(3, Field(5)) @ a):
            with pytest.raises(ValueError):
                bad()


def test_from_columns_drops_the_values_the_field_sends_to_zero():
    m = Matrix.from_columns([{0: 7, 1: 3}, {1: 14, 0: -1}], 2, F7)
    assert m.data == {(1, 0): 3, (0, 1): 6} and m._nnz() == 2
    assert Matrix.from_columns([{1: P31}], 2, Field(P31)).is_zero()
    q = Matrix.from_columns([{0: Fraction(4, 2), 1: 2**62}, {0: Fraction(0, 5)}], 2, QQ)
    assert q._nnz() == 2 and q._csr[2].dtype == object
    assert q.data == {(0, 0): Fraction(2), (1, 0): Fraction(2**62)}


def test_sums_and_multiples_check_shapes_and_bounds():
    a = Matrix.identity(2, QQ)
    with pytest.raises(ValueError):
        a + Matrix.identity(3, QQ)
    with pytest.raises(ValueError):
        a - Matrix.identity(1, QQ).kron(Matrix.zero(2, 3, QQ))
    # past the int64 bound, and for a non-integral multiple, the exact path
    big = kernel_copy(from_rows([[2**61, 1]], QQ))
    assert (big + big).data == {(0, 0): Fraction(2**62), (0, 1): Fraction(2)}
    assert (big - big).is_zero()
    assert big.scale(QQ.of(4)).get(0, 0) == 2**63
    assert big.scale(QQ.of("1/3")).data == {(0, 0): Fraction(2**61, 3), (0, 1): Fraction(1, 3)}


def test_a_negative_row_index_is_rejected():
    # from_columns used to put the entry at row rows - 1
    for value in (3, Fraction(1, 2)):
        with pytest.raises(ValueError):
            Matrix.from_columns([{-1: value}, {0: 1}], 2, QQ)
    with pytest.raises(ValueError):
        Matrix(2, 2, QQ, {(0, -1): 3})


def test_an_entry_outside_the_shape_is_rejected_on_the_exact_path():
    # a Fraction entry at (5, 0) of a 2 x 1 matrix used to be kept, and
    # kron with I_2 carried it to (10, 0) and (11, 1) of a 4 x 2 matrix
    with pytest.raises(ValueError):
        Matrix.from_columns([{5: Fraction(1, 2)}], 2, QQ).kron(Matrix.identity(2, QQ))
    for key in ((2, 0), (0, 1)):
        with pytest.raises(ValueError):
            Matrix(2, 1, QQ, {key: Fraction(1, 2)})
    # an index that is not a (row, col) pair: {(0, 0, 0): 1, (1, 0, 0): 2}
    # used to be read as a flat list of numbers, entries at (0, 0) and (0, 1)
    for data in ({(0,): 1, (1,): 2}, {(0, 0, 0): 1, (1, 0, 0): 2}, {(0, 0): 1, (1, 0, 0): 2}):
        with pytest.raises(ValueError):
            Matrix(2, 2, QQ, data)


def test_an_unreduced_residue_equals_its_reduction():
    # over F_7, 9 and 2 used to differ under == and agree after kron with I_1
    a, b = Matrix(1, 1, F7, {(0, 0): 9}), Matrix(1, 1, F7, {(0, 0): 2})
    one = Matrix.identity(1, F7)
    assert a == b and a.kron(one) == b.kron(one)
    assert a.data == {(0, 0): 2} and a.get(0, 0) == 2
    assert Matrix(1, 1, F7, {(0, 0): 7}).is_zero()


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_columns_keep_values_and_scalar_types(seed):
    # the columns are field scalars, Fractions over Q and ints over F_p,
    # whether the CSR holds int64 values or objects
    rng = random.Random(seed)
    for field in (QQ, F7):
        a, b = _kernel_operands(rng, field)
        m = a @ b
        twin = Matrix(m.rows, m.cols, field, {k: int(v) for k, v in m.entries()})
        assert twin.columns() == m.columns()
        # over Q a third of an entry that 3 does not divide is an object value
        inv3 = field.inv(field.of(3))
        third = m.scale(inv3)
        assert third.columns() == [{i: field.mul(v, inv3) for i, v in col.items()}
                                   for col in m.columns()]
        assert all(type(x) is (int if field.char else Fraction)
                   for mat in (m, twin, third) for col in mat.columns() for x in col.values())


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_fp_entries_stay_reduced(seed):
    rng = random.Random(seed)
    for p in (2, 7):
        field = Field(p)
        a, b = _kernel_operands(rng, field)
        for m in (a @ b, a.kron(b), b.kron(a), (a @ b) @ Matrix.identity(b.cols, field)):
            assert all(0 < v < p for _, v in m.entries())
        # the zeros a reduction drops leave no scratch space alive in the result
        for m in (a @ b, a + a, a - a):
            assert all(x.base is None for x in m._csr[1:])


@pytest.mark.parametrize("field", [F7, F_BIG, QQ], ids=str)
def test_a_matrix_born_column_major_equals_its_csr_twin(field):
    # over F_4294967311 the elimination runs on object values, and over Q
    # the entries are Fractions; empty and zero shapes, and zero columns
    rng = random.Random(34)

    def entry():
        return field.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if field is QQ
                        else rng.randrange(field.char))

    for rows, cols, density in [(0, 0, 0), (0, 4, 0), (4, 0, 0), (3, 5, 0), (1, 1, 1),
                                (3, 5, 0.5), (7, 4, 0.6), (5, 9, 0.3), (12, 12, 0.2)]:
        twin = Matrix(rows, cols, field, {(i, j): entry() for i in range(rows)
                                          for j in range(cols) if rng.random() < density})
        m = Matrix._of_csc(rows, cols, field, linalg._transposed(rows, cols, *twin._csr))
        assert (m.rows, m.cols) == (rows, cols) and not holds_csr(m)
        mask = np.array([rng.random() < 0.7 for _ in range(cols)], dtype=bool)
        assert m.rank() == twin.rank()
        for kwargs in ({"leads": True}, {"leads": True, "cols": mask}):
            (r, leads), (r_twin, leads_twin) = m.rank(**kwargs), twin.rank(**kwargs)
            assert r == r_twin and np.array_equal(leads, leads_twin)
        # the rank reads the CSC only
        assert not holds_csr(m)
        assert m == twin and twin == m and m.data == twin.data
        assert list(m.entries()) == list(twin.entries())
        assert m.nonzero_witness() == twin.nonzero_witness()
        assert holds_csr(m) and m._csr is m._csr
        # the CSR built from the CSC is canonical and read-only
        for a, b in zip(m._csr, twin._csr):
            assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable
        ptr, idx, val = m._csr
        assert all((np.diff(idx[s:e]) > 0).all() for s, e in zip(ptr, ptr[1:]))
        assert (val != 0).all()
        with pytest.raises(AttributeError):
            m.no_such_attribute


def test_no_kernel_writes_to_an_operand():
    rng = random.Random(11)
    for field in (QQ, F7):
        a = _random_matrix(rng, 3, 4, field).kron(Matrix.identity(2, field))
        b = Matrix.identity(2, field).kron(_random_matrix(rng, 4, 3, field))
        eye = Matrix.identity(6, field)
        one = Matrix.identity(1, field)
        before = [[x.copy() for x in m._csr] for m in (a, b, eye)]
        _ = (a @ b, a.kron(b), b.kron(eye), a.columns(),
             a.get(1, 2), a == b, a.nonzero_witness(), a - a,
             identity_defect_witness(field, [(1, [a, b]), (-1, [a, (b, one)]),
                                             (3, [(eye, one), a @ b])]))
        after = [m._csr for m in (a, b, eye)]
        assert all(np.array_equal(x, y)
                   for xs, ys in zip(before, after) for x, y in zip(xs, ys))
        # the identity's CSR may be shared between matrices; it stays the identity
        assert eye == Matrix(6, 6, field, {(i, i): field.one() for i in range(6)})
