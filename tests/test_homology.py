import argparse
import ast
import contextlib
import io
import itertools
import json
import pathlib
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ACCEPTANCE_ALGEBRAS, base_corpus, cli_report, from_rows, holds_csr,
                      mutated_corpus, named_algebra, reference_echelon, scaled_kZ3, traced_peak)

from hopfcalc import cli, connections, homology, linalg
from hopfcalc.calculus import Calculus
from hopfcalc.connections import connection_from_coaction, is_flat
from hopfcalc.fields import QQ, Field
from hopfcalc.homology import (ChainComplex, HomologyTable, cobar_complex, compare_cotor,
                               homology_dims, quotient_complex)
from hopfcalc.hopf import BialgebraMorphism, permute_basis
from hopfcalc.linalg import Matrix
from hopfcalc.modules import BimoduleCoalgebra, regular_modcomod, trivial_modcomod

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_calculus_homology_of_group_algebra_z2():
    H = named_algebra("kZ2")
    rep, _ = compare_cotor(Calculus.khat(H), None, 3)
    assert rep.passed, str(rep)
    assert "homology_dims=[2, 0, 0]" in {c.name for c in rep.checks}


def test_cotor_of_dual_z2_depends_on_characteristic():
    # over Q the coalgebra is cosemisimple and everything above degree 0
    # vanishes; over F2 the classifying-space homology survives forever
    D = named_algebra("dualZ2")
    cx = cobar_complex(BimoduleCoalgebra.from_hopf(D), trivial_modcomod(D), 3)
    assert homology_dims(cx).dims() == [1, 0, 0]
    rep, _ = compare_cotor(Calculus.khat(D), None, 3)
    assert rep.passed and "homology_dims=[2, 0, 0]" in {c.name for c in rep.checks}
    D2 = named_algebra("dualZ2_F2")
    cx2 = cobar_complex(BimoduleCoalgebra.from_hopf(D2), trivial_modcomod(D2), 3)
    assert homology_dims(cx2).dims() == [1, 1, 1]


def test_cotor_of_symmetric_group_vanishes_over_q():
    H = named_algebra("kS3")
    cx = cobar_complex(BimoduleCoalgebra.from_hopf(H), trivial_modcomod(H), 3)
    assert homology_dims(cx).dims() == [1, 0, 0]


def test_calculus_homology_of_taft_algebra():
    rep, _ = compare_cotor(Calculus.khat(named_algebra("taft327")), None, 3)
    assert rep.passed, str(rep)
    assert "homology_dims=[3, 2, 2]" in {c.name for c in rep.checks}


@pytest.mark.parametrize("name", ["kZ3", "dualZ2", "sweedler"])
def test_calculus_complex_agrees_with_cobar_chain_level(name):
    H = named_algebra(name)
    for calc in (Calculus.k(H), Calculus.khat(H)):
        rep, _ = compare_cotor(calc, None, 3)
        assert rep.passed, str(rep)
        rep, _ = compare_cotor(calc, trivial_modcomod(H), 3)
        assert rep.passed, str(rep)


@settings(max_examples=8, deadline=None)
@given(st.permutations(list(range(4))))
def test_homology_invariant_under_basis_permutation(perm):
    H = permute_basis(named_algebra("kZ4"), list(perm))
    cx = cobar_complex(BimoduleCoalgebra.from_hopf(H), trivial_modcomod(H), 3)
    K = named_algebra("kZ4")
    base = cobar_complex(BimoduleCoalgebra.from_hopf(K), trivial_modcomod(K), 3)
    assert homology_dims(cx).dims() == homology_dims(base).dims()


def test_chain_complex_rejects_nonsquaring_differential():
    from hopfcalc.fields import QQ
    d0 = from_rows([[1], [0]], QQ)
    d1 = from_rows([[1, 0]], QQ)
    with pytest.raises(ValueError):
        ChainComplex(QQ, [1, 2, 1], [d0, d1])


def test_chain_complex_rejects_shape_mismatch():
    from hopfcalc.fields import QQ
    d0 = from_rows([[1], [0]], QQ)
    with pytest.raises(ValueError):
        ChainComplex(QQ, [1, 3], [d0])


def test_cobar_rejects_curved_coefficients():
    H = named_algebra("sweedler")
    X = trivial_modcomod(H)
    X.coaction[0][2 * X.dim] = H.field.one()     # spoil coassociativity
    with pytest.raises(ValueError):
        cobar_complex(BimoduleCoalgebra.from_hopf(H), X, 2)


def test_homology_table_formatting():
    t = HomologyTable([(0, 2), (1, 0)])
    assert t.dims() == [2, 0]
    assert "2" in str(t)


# ---------------------------------------------------------------------------
# the normalized complex against the full ranks


def reference_homology_dims(cx: ChainComplex, max_degree=None):
    """dim H_n from the ranks of the full differentials of ``cx``, its
    basepoint ignored, each taken by ``reference_echelon`` rather than the
    ``Matrix.rank`` under test: the oracle of the normalized ranks of
    ``homology_dims``."""
    top = cx.max_degree if max_degree is None else min(max_degree, cx.max_degree)
    ranks = [0] + [len(reference_echelon(cx.field, cx.diffs[n].columns())) for n in range(top)]
    return [cx.dims[n] - ranks[n] - ranks[n + 1] for n in range(top)]


@pytest.fixture
def normalized_tables(monkeypatch):
    """Checks every ``homology_dims`` call, from the CLI and from
    ``compare_cotor`` alike, against ``reference_homology_dims`` of the
    full complex; the list it returns collects the tables of the calls on
    a cobar complex.

    A complex built quotient-first (``quotient_complex``), bare or with
    coefficients, is checked against the paths it replaced: the masked
    full complex (``reference_quotient_complex``) must have the quotients
    of the whole-matrix recursion (``whole_quotient_complex``), and the
    graded complex must have those, permuted to its weight order, degree
    by degree and, at the top, chunk by chunk (``assert_graded_matches``).
    Its table is checked against the full complex's ranks and collected;
    its d^2 = 0, which it takes from a proof, is multiplied out
    (``proved_quotient_complex``)."""
    seen, full_of = [], {}

    def quotient_first(calc, X, max_degree=None):
        cx = proved_quotient_complex(calc, X, max_degree)
        full, (dims, quotients) = reference_quotient_complex(calc, X, max_degree)
        whole = whole_quotient_complex(calc, X, max_degree)
        assert cx.basepoint is None and cx.dims == dims
        assert all(d == w and d.data == w.data for d, w in zip(whole, quotients, strict=True))
        assert_graded_matches(cx, whole)
        full_of[id(cx)] = full
        return cx

    def checked(cx, max_degree=None):
        full = full_of.pop(id(cx), cx)
        want = reference_homology_dims(full, max_degree)
        table = homology_dims(cx, max_degree)
        assert table.dims() == want
        if full.basepoint is not None:
            seen.append(table.dims())
        return table
    monkeypatch.setattr(homology, "homology_dims", checked)
    monkeypatch.setattr(cli, "homology_dims", checked)
    monkeypatch.setattr(homology, "quotient_complex", quotient_first)
    monkeypatch.setattr(cli, "quotient_complex", quotient_first)
    return seen


def joined(d, f):
    """A differential of a quotient complex over ``f`` as one matrix: a
    ``ChunkedDifferential``'s chunks side by side."""
    if isinstance(d, Matrix):
        return d
    parts = [m._csc_arrays() for _, m in d.chunks()]
    nnz = np.cumsum([0] + [len(p[1]) for p in parts])
    empty = np.zeros(0, dtype=np.int64)
    return Matrix._of_csc(d.rows, d.cols, f, (
        np.concatenate([[0]] + [p[0][1:] + k for p, k in zip(parts, nnz)]),
        *(np.concatenate([p[k] for p in parts] + [empty]) for k in (1, 2))))


def graded_complex(calc, X, max_degree=None):
    """``quotient_complex(calc, X, max_degree)``, and the arguments of its
    ``homology.grading`` call (None when it makes none); the weights that
    call returned, (C-bar, X), are kept as the complex's ``weights``."""
    calls, grading = [], homology.grading

    def spy(*args):
        calls.append((args, grading(*args)))
        return calls[-1][1]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(homology, "grading", spy)
        cx = quotient_complex(calc, X, max_degree)
    cx.weights = calls[0][1] if calls else None
    return cx, calls[0][0] if calls else None


def proved_quotient_complex(calc, X, max_degree=None):
    """``quotient_complex`` (``graded_complex``), with d-bar_(n+1) d-bar_n
    multiplied out for every pair, the top's chunks joined: the oracle of
    the proof it marks the complex checked by."""
    cx = graded_complex(calc, X, max_degree)[0]
    assert cx.checked
    diffs = [joined(d, cx.field) for d in cx.diffs]
    for d, e in zip(diffs, diffs[1:]):
        assert (e @ d).is_zero()
    return cx


def _cotor_cases():
    """``COTOR_CASES`` of the benchmark's workloads, read from its source
    without importing the benchmark."""
    tree = ast.parse((ROOT / "verdictbench" / "workloads.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and node.targets[0].id == "COTOR_CASES")


def _homology_verdict(H, calc_kind, coeffs, D, compare):
    """What ``hopfcalc homology`` computes for these arguments on ``H``."""
    calc = cli.build_cli_calculus(argparse.Namespace(calculus=calc_kind), H, D)
    X = cli.resolve_module(argparse.Namespace(module=coeffs), H) if coeffs else None
    if compare:
        rep, table = homology.compare_cotor(calc, X, D)
        assert rep.passed, str(rep)
        return table
    return homology.homology_dims(homology.quotient_complex(calc, X, D), D)


def test_normalized_ranks_match_the_full_oracle_on_the_golden_entries(normalized_tables):
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    # the bare Taft(3,2)/F7 entry at D = 6 is past what the dict-based
    # reference elimination ranks in a test; the quotient-first bare path
    # that it takes runs below, and at D = 5 on the cotor cases
    commands = [argv for argv in golden if argv.startswith("homology ")
                and argv != "homology --builtin taft:3:2 --field F7 --calculus k --max-degree 6"]
    assert len(commands) == 8
    for argv in commands:
        with contextlib.chdir(ROOT), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv.split()) == golden[argv]["exit"]
    assert len(normalized_tables) == 8


def test_normalized_ranks_match_the_full_oracle_on_the_acceptance_cases(normalized_tables):
    # the coefficient complex is ranked quotient-first without the oracle
    # beside it too, on the flat modules of the base corpus and of seeded
    # mutations of its coactions
    from test_acceptance import MAX_DEGREE, calc_for
    for name in ACCEPTANCE_ALGEBRAS:
        H = named_algebra(name)
        corpus = base_corpus(H) + mutated_corpus(H, 40, seed=19)
        for kind in ("k", "khat", "general_s"):
            calc = calc_for(name, kind)
            compare_cotor(calc, None, MAX_DEGREE)
            for X in corpus:
                if (X.action is not None and X.coaction is not None
                        and is_flat(connection_from_coaction(calc, X))):
                    rep, _ = compare_cotor(calc, X, MAX_DEGREE)
                    assert rep.passed, str(rep)
                    homology.homology_dims(homology.quotient_complex(calc, X, MAX_DEGREE))
    D2 = named_algebra("dualZ2_F2")
    C = BimoduleCoalgebra.from_hopf(D2)
    homology.homology_dims(cobar_complex(C, trivial_modcomod(D2), MAX_DEGREE))
    for name in ("kZ2", "dualZ2"):
        compare_cotor(calc_for(name, "khat"), None, MAX_DEGREE)
    assert len(normalized_tables) > 3 * len(ACCEPTANCE_ALGEBRAS)


@pytest.mark.parametrize("case", _cotor_cases(),
                         ids=lambda c: "-".join(map(str, c[:5])))
def test_normalized_ranks_match_the_full_oracle_on_the_cotor_cases(normalized_tables, case):
    name, field, calc_kind, coeffs, D, compare = case
    H = cli.builtin_hopf(name, Field.parse(field))
    perm = random.Random(19).sample(range(H.dim), H.dim)
    tables = [_homology_verdict(A, calc_kind, coeffs, D, compare)
              for A in (H, permute_basis(H, perm))]
    assert tables[0].dims() == tables[1].dims()
    assert len(normalized_tables) == 2


def test_normalized_ranks_match_the_full_oracle_on_the_exact_path(normalized_tables):
    # kZ3_scaled has Fraction entries in every differential above degree 0
    H = scaled_kZ3()
    for calc in (Calculus.k(H, 3), Calculus.khat(H, 3)):
        for X in (None, trivial_modcomod(H), regular_modcomod(H)):
            compare_cotor(calc, X, 3)
    assert len(normalized_tables) == 6


@pytest.mark.parametrize("name,field", [("dualgroup:Z2", "Q"), ("dualgroup:Z2", "F2"),
                                        ("dualgroup:S3", "Q")])
def test_normalized_ranks_match_the_full_oracle_off_a_basis_vector(normalized_tables,
                                                                   name, field):
    # the unit of a dual group algebra, its basepoint, is the sum of the
    # basis, so the differentials are conjugated before the submatrix
    H = cli.builtin_hopf(name, Field.parse(field))
    assert len(H.unit) == H.dim > 1
    degree = 3 if H.dim > 2 else 4
    C = BimoduleCoalgebra.from_hopf(H)
    homology.homology_dims(cobar_complex(C, trivial_modcomod(H), degree))
    compare_cotor(Calculus.khat(H, degree), None, degree)
    compare_cotor(Calculus.k(H, degree), regular_modcomod(H), degree)
    general = Calculus.general(BimoduleCoalgebra.from_hopf(H), BialgebraMorphism.identity(H),
                               BialgebraMorphism.antipode(H), degree)
    compare_cotor(general, regular_modcomod(H), degree)
    assert len(normalized_tables) == 4


def reference_normalized(cx, top):
    """The normalization of ``homology_dims`` (``homology._quotients``) with
    its guard and its quotient taken as two ``submatrix`` results per
    degree: the entries of the kept rows in the dropped columns must be 0,
    and the quotient keeps the other columns."""
    g, f, xd = cx.basepoint, cx.field, cx.dims[0]
    cd, j0 = cx.dims[1] // xd, min(g)
    has_g = [np.zeros(1, dtype=bool)]
    for _ in range(top):
        has_g.append(((np.arange(cd) == j0)[:, None] | has_g[-1]).ravel())
    has_g = [np.repeat(m, xd) for m in has_g]
    diffs = cx.diffs[:top]
    if g != {j0: f.one()}:
        M = Matrix.from_columns([g if j == j0 else {j: f.one()} for j in range(cd)], cd, f)
        lift, proj = (list(itertools.accumulate([A] * top, lambda P, A: A.kron(P),
                                                initial=Matrix.identity(xd, f)))
                      for A in (M, M.inverse()))
        diffs = [proj[n + 1] @ d @ lift[n] for n, d in enumerate(diffs)]
    for n, d in enumerate(diffs):
        if not d.submatrix(~has_g[n + 1], has_g[n]).is_zero():
            raise RuntimeError(f"tensors with a basepoint leg are not a subcomplex at degree {n}")
    return ([int((~m).sum()) for m in has_g],
            [d.submatrix(~has_g[n + 1], ~has_g[n]) for n, d in enumerate(diffs)])


def reference_quotient_complex(calc, X, max_degree=None):
    """The path of a verdict without the oracle before it was built
    quotient-first: the full complex, bare (X None) or with the
    coefficients X, with every differential built in full and d^2 checked
    on every pair (``calculus_complex``), and its quotients taken by
    ``reference_normalized``.  Returns the full complex and (dims,
    quotients)."""
    max_degree = calc.max_degree if max_degree is None else max_degree
    full = homology.calculus_complex(calc, X, max_degree)
    return full, reference_normalized(full, max_degree)


def whole_quotient_complex(calc, X, max_degree=None):
    """The quotients d-bar_0 .. d-bar_(top-1) of ``quotient_complex`` by
    the whole-matrix recursion that it ran before the weight grading split
    it, in the basis of ``homology._quotients``: d_0, d_1 and d_2 masked,
    then T_n = E-bar^T (x) I - I_(C-bar) (x) T_(n-1) on the transposes, one
    ``kron_minus_blocks`` call per degree, each d-bar_n born column-major."""
    top = calc.max_degree if max_degree is None else max_degree
    low = homology.calculus_complex(calc, X, min(top, 3))
    f, cd, g = calc.field, calc.cdim, low.basepoint
    quotients = homology._quotients(g, f, cd, low.dims[0], low.diffs)[1]
    if top > 3:
        e_bar = homology._quotients(g, f, cd, 1, [calc._reduced_comul_matrix()], first=1)[1][0]
        e_t, t = (Matrix._of_csr(m.cols, m.rows, f, m._csc_arrays())
                  for m in (e_bar, quotients[-1]))
        for _ in range(3, top):
            if cd > 1:
                t = linalg.kron_minus_blocks(e_t, Matrix.identity(t.rows, f), cd - 1, t)
            quotients.append(Matrix._of_csc(t.cols, t.rows, f, t._csr))
    return quotients


def degree_weights(cx):
    """The weight of every basis tensor of each degree of the graded
    complex ``cx``, in the order of ``homology._quotients``, and the order
    of each degree in ``cx``: degrees 0 and 1 as they are, the others
    sorted stably by weight."""
    wc, wx = cx.weights
    weights, orders = [wx], []
    for n in range(cx.max_degree + 1):
        orders.append(np.argsort(weights[-1], kind="stable") if n >= 2
                      else np.arange(len(weights[-1])))
        weights.append((wc[:, None] + weights[-1]).ravel())
    return weights[:-1], orders


def permuted(m, rows, cols):
    """``m`` with its rows in the order ``rows`` and its columns in the
    order ``cols``: entry (i, j) of the result is m[rows[i], cols[j]]."""
    r, c = np.argsort(rows)[m._entry_rows()], np.argsort(cols)[m._csr[1]]
    return Matrix._of_entries(m.rows, m.cols, m.field, r * m.cols + c, m._csr[2])


def assert_graded_matches(cx, whole):
    """The quotient complex ``cx`` has the quotients ``whole`` of the
    whole-matrix recursion.  A complex of degree 3 or less is not graded
    and equals them.  A graded one equals them permuted to its weight
    order: each differential below the top entry by entry, and the top
    chunk by chunk, the chunks a partition of its columns into runs of
    whole weights (a run may hold none), each chunk holding every row."""
    top = cx.diffs[-1] if cx.diffs else None
    if not isinstance(top, homology.ChunkedDifferential):
        assert all(d == w and d.data == w.data for d, w in zip(cx.diffs, whole, strict=True))
        return
    weights, orders = degree_weights(cx)
    want = [permuted(w, orders[n + 1], orders[n]) for n, w in enumerate(whole)]
    for d, w in zip(cx.diffs[:-1], want, strict=False):
        assert d == w and d.data == w.data
    w, col_weight = want[-1], weights[-2][orders[-2]]
    at = 0
    for first, chunk in top.chunks():
        assert first == at and chunk.rows == top.rows
        assert not 0 < at < w.cols or col_weight[at - 1] != col_weight[at]
        cols = np.zeros(w.cols, dtype=bool)
        cols[at:at + chunk.cols] = True
        part = w.submatrix(np.ones(w.rows, dtype=bool), cols)
        assert chunk == part and chunk.data == part.data
        at += chunk.cols
    assert at == top.cols == w.cols


@pytest.mark.parametrize("name,field", [("group:S3", "Q"), ("sweedler", "Q"),
                                        ("taft:3:2", "F7"), ("dualgroup:Z3", "Q"),
                                        ("dualgroup:Z2", "F2")])
def test_one_pass_normalization_matches_the_two_submatrix_form(name, field):
    # cobar complexes and calculus complexes, with the basepoint a basis
    # vector and off one (the dual group algebras)
    H = cli.builtin_hopf(name, Field.parse(field))
    degree = 3
    C = BimoduleCoalgebra.from_hopf(H)
    complexes = [cobar_complex(C, X, degree) for X in (trivial_modcomod(H), regular_modcomod(H))]
    for calc in (Calculus.k(H, degree), Calculus.khat(H, degree)):
        complexes += [homology.calculus_complex(calc, X, degree)
                      for X in (None, trivial_modcomod(H), regular_modcomod(H))]
    for cx in complexes:
        for top in range(1, degree + 1):
            dims, diffs = homology._quotients(cx.basepoint, cx.field, cx.dims[1] // cx.dims[0],
                                              cx.dims[0], cx.diffs[:top])
            want_dims, want = reference_normalized(cx, top)
            assert dims == want_dims
            assert all(d == w and d.data == w.data for d, w in zip(diffs, want, strict=True))


def test_degenerate_tensors_outside_a_subcomplex_are_an_internal_error():
    # C of dimension 2 with basepoint e_0 and X of dimension 1: d_1 sends
    # e_0, which has the basepoint leg, to e_1 (x) e_1, which has none;
    # d_1 d_0 = 0 since d_0 hits only e_1
    d0 = from_rows([[0], [1]], QQ)
    d1 = from_rows([[0, 0], [0, 0], [0, 0], [1, 0]], QQ)
    cx = ChainComplex(QQ, [1, 2, 4], [d0, d1], {0: QQ.one()})
    assert reference_homology_dims(cx) == [0, 0]
    with pytest.raises(RuntimeError, match="not a subcomplex at degree 1"):
        homology_dims(cx)
    with pytest.raises(RuntimeError, match="not a subcomplex at degree 1"):
        reference_normalized(cx, 2)


def test_negative_homology_dimension_is_an_internal_error():
    # d_1 d_0 != 0 gets past no constructor; build the complex without one
    cx = ChainComplex.__new__(ChainComplex)
    cx.field, cx.dims, cx.basepoint = QQ, [1, 1, 1], None
    cx.diffs = [from_rows([[1]], QQ), from_rows([[1]], QQ)]
    with pytest.raises(RuntimeError, match="negative homology dimension"):
        homology_dims(cx)


def test_bare_homology_ranks_after_every_full_differential_is_released(monkeypatch):
    # a bare verdict builds D_0, D_1 and D_2 in full, which the calculus
    # caches; none is alive by the time a quotient is ranked, and no
    # matrix outlives its rank.  A Matrix takes no weak reference, so each
    # is followed through its column index array, which lives at least as
    # long as it does
    refs, alive, ranked_refs, ranked_alive = [], [], [], []
    build, rank = Calculus._build_differential, Matrix.rank

    def built(calc, n):
        d = build(calc, n)
        refs.append(weakref.ref(d._csr[1]))
        return d

    def ranked(m, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        ranked_alive.append(sum(ref() is not None for ref in ranked_refs))
        ranked_refs.append(weakref.ref(m._csr[1]))
        return rank(m, **kwargs)
    monkeypatch.setattr(Calculus, "_build_differential", built)
    monkeypatch.setattr(Matrix, "rank", ranked)
    code, doc = cli_report("homology --builtin taft:3:2 --field F7 --calculus k"
                           " --max-degree 4")
    assert code == 0 and doc["homology"] == {"H_0": 3, "H_1": 2, "H_2": 2, "H_3": 2}
    assert len(refs) == 3 and alive == [0, 0, 0, 0] and ranked_alive == [0, 0, 0, 0]


def test_bare_taft_homology_at_degree_5_stays_under_its_traced_peak():
    # with every full differential alive at the top rank, and D_4 built from
    # E (x) I and I_C (x) D_3 at full size, this verdict takes 43 MiB traced;
    # released and built in blocks it takes ~29 MiB, at its top rank, and
    # ~23 MiB ranked on a masked copy of the columns with per-row pivot
    # bookkeeping; ranked in the CSC with per-pivot bookkeeping, ~15 MiB, as
    # the top quotient was built as a CSR and its CSC taken from it; built
    # column-major, ~9 MiB; split by weight, its top built and ranked one
    # chunk at a time, ~4.1 MiB
    code, doc, peak = traced_peak("homology --builtin taft:3:2 --field F7 --calculus k"
                                  " --max-degree 5")
    assert code == 0 and doc["homology"]["H_4"] == 2
    assert peak < 6 * 2**20


def test_bare_taft_homology_at_degree_6_stays_under_its_traced_peak():
    # ranked whole, the 2,359,296 x 294,912 top quotient takes ~66 MiB
    # traced; split by weight, built and ranked one chunk at a time, ~10 MiB
    code, doc, peak = traced_peak("homology --builtin taft:3:2 --field F7 --calculus k"
                                  " --max-degree 6")
    assert code == 0 and doc["homology"]["H_5"] == 2
    assert peak < 16 * 2**20


def test_taft_compare_verdict_at_degree_5_stays_under_its_traced_peak():
    # the cobar oracle's d_4 was a sum of five Kronecker terms built at full
    # size before the first sum, ~7.7 MiB traced; as a running sum, one term
    # beside the partial sum, ~4.7 MiB
    code, doc, peak = traced_peak("homology --builtin taft:3:2 --field F7 --calculus k"
                                  " --module trivial --compare-cotor --max-degree 5")
    assert code == 0 and doc["homology"] == {"H_0": 1, "H_1": 0, "H_2": 1, "H_3": 0, "H_4": 1}
    assert peak < 5.5 * 2**20


@pytest.mark.parametrize("module", ["", " --module coadjoint"])
def test_no_quotient_above_degree_2_is_held_row_major(monkeypatch, module):
    # each d-bar_n with n >= 3, and each chunk of the top, is born
    # column-major: its rank reads the CSC it was born with, no CSC is
    # transposed out of a CSR of it, and its CSR is never built; the ranked
    # columns, which linalg.rank_cols sums, stay those of the normalized
    # complex
    transposed, lazy, ranked = [], [], []
    transpose, getattr_, rank = (linalg._transposed, linalg._ColumnMajor.__getattr__,
                                 Matrix.rank)

    def spy_transposed(rows, cols, *csr):
        transposed.append((rows, cols))
        return transpose(rows, cols, *csr)

    def spy_getattr(m, name):
        lazy.append((m.rows, m.cols))
        return getattr_(m, name)

    def spy_rank(m, **kwargs):
        held = holds_csr(m)
        out = rank(m, **kwargs)
        ranked.append((m.rows, m.cols, held, holds_csr(m)))
        return out
    monkeypatch.setattr(linalg, "_transposed", spy_transposed)
    monkeypatch.setattr(linalg._ColumnMajor, "__getattr__", spy_getattr)
    monkeypatch.setattr(Matrix, "rank", spy_rank)
    code, doc = cli_report("homology --builtin taft:3:2 --field F7 --calculus k"
                           " --max-degree 5" + module)
    assert code == 0 and doc["homology"]["H_4"] == 2
    # (dim C - 1)^n * dim X, with dim C = dim X = 9; the top is ranked in
    # chunks of every row, whose columns partition its columns
    dims = [8 ** n * 9 for n in range(6)]
    assert [r[:2] for r in ranked[:4]] == [(dims[n + 1], dims[n]) for n in range(4)]
    assert len(ranked) > 5 and {r[0] for r in ranked[4:]} == {dims[5]}
    assert sum(r[1] for r in ranked[4:]) == dims[4]
    for rows, cols, *held in ranked[3:]:
        assert held == [False, False]
        assert (rows, cols) not in transposed and (cols, rows) not in transposed
        assert (rows, cols) not in lazy


# ---------------------------------------------------------------------------
# the quotient-first bare complex against the full one


def _algebra(name):
    """A named algebra of the tests, or a built-in one as ``name/field``."""
    spec, _, field = name.partition("/")
    return cli.builtin_hopf(spec, Field.parse(field)) if field else named_algebra(name)


def _bare_calculi(H, D):
    """The three calculi of ``H`` at degree ``D``; the generalized one with
    alpha = id and beta = S."""
    general = Calculus.general(BimoduleCoalgebra.from_hopf(H), BialgebraMorphism.identity(H),
                               BialgebraMorphism.antipode(H), D)
    return [Calculus.k(H, D), Calculus.khat(H, D), general]


@pytest.mark.parametrize("name,D", [
    ("kZ2", 5), ("kZ3", 5), ("kS3", 4), ("dualZ2", 5), ("sweedler", 6), ("taft327", 4),
    ("kZ3_scaled", 4), ("dualZ2_F2", 5), ("dualgroup:Z3/Q", 4), ("dualgroup:S3/Q", 4),
    ("group:Z1/Q", 4), ("sweedler/F4294967311", 5)])
def test_quotient_first_bare_complex_matches_the_full_oracle(normalized_tables, name, D):
    # the acceptance algebras, the exact path (kZ3_scaled), basepoints off a
    # basis vector (the dual group algebras), dim C = 1 and a prime whose
    # elimination runs on object values, at degrees where the recursion
    # runs: quotients, dimensions and tables as on the full complex (the
    # fixture)
    calcs = _bare_calculi(_algebra(name), D)
    for calc in calcs:
        homology.homology_dims(homology.quotient_complex(calc, None, D), D)
    assert len(normalized_tables) == len(calcs)


@pytest.mark.parametrize("name,D", [
    ("kZ2", 5), ("kZ3", 4), ("kS3", 4), ("dualZ2", 5), ("sweedler", 5), ("taft327", 4),
    ("kZ3_scaled", 4), ("dualZ2_F2", 5), ("dualgroup:Z3/Q", 4), ("group:Z1/Q", 4),
    ("sweedler/F4294967311", 5)])
def test_quotient_first_coefficient_complex_matches_the_full_oracle(normalized_tables, name, D):
    # the trivial, regular and coadjoint modules of the acceptance algebras,
    # the exact path (kZ3_scaled), basepoints off a basis vector, dim C = 1
    # and a prime whose elimination runs on object values, over the three
    # calculi, at degrees where the recursion runs
    H = _algebra(name)
    calcs = _bare_calculi(H, D)
    for calc in calcs:
        for coeffs in ("trivial", "regular", "coadjoint"):
            X = cli.resolve_module(argparse.Namespace(module=coeffs), H)
            homology.homology_dims(homology.quotient_complex(calc, X, D), D)
    assert len(normalized_tables) == 3 * len(calcs)


GRADED_CASES = [("kZ3", 5), ("sweedler", 5), ("taft327", 4), ("kZ3_scaled", 4),
                 ("dualgroup:Z3/Q", 4), ("group:Z1/Q", 4), ("sweedler/F4294967311", 5)]


@pytest.mark.parametrize("forced", ["one block", "tiny chunks"])
@pytest.mark.parametrize("name,D", GRADED_CASES)
def test_forced_gradings_match_the_full_oracle(normalized_tables, monkeypatch, forced, name, D):
    # the grading forced to one block, which is the whole-matrix recursion's
    # arithmetic in one chunk, and chunks packed to a few entries, so that
    # nearly every weight of the top is a chunk of its own: the same
    # quotients, chunk by chunk, and the same tables (the fixture)
    if forced == "one block":
        monkeypatch.setattr(homology, "grading", lambda e_bar, d2, xd, top: (
            np.zeros(e_bar.cols, dtype=np.int64), np.zeros(xd, dtype=np.int64)))
    else:
        monkeypatch.setattr(homology, "_BLOCK", 8)
    H = _algebra(name)
    calcs = _bare_calculi(H, D)
    for calc in calcs:
        for coeffs in (None, "regular", "coadjoint"):
            X = cli.resolve_module(argparse.Namespace(module=coeffs), H) if coeffs else None
            cx = homology.quotient_complex(calc, X, D)
            chunks = list(cx.diffs[-1].chunks())
            if forced == "one block":
                assert not any(w.any() for w in cx.weights) and len(chunks) <= 1
            homology.homology_dims(cx, D)
    assert len(normalized_tables) == 3 * len(calcs)


def test_graded_blocks_summed_on_the_exact_path_keep_int64_values(normalized_tables):
    # over a prime just above 2^61 a sum of two entries can reach 2^62, so
    # every block is summed on the exact path; its values, below p < 2^62,
    # are stored as int64, as the whole-matrix recursion stores them, and
    # the tables are the full oracle's (the fixture)
    for calc in _bare_calculi(_algebra("sweedler/F2305843009213693967"), 5):
        cx = homology.quotient_complex(calc, None, 5)
        assert all(d._csc_arrays()[2].dtype == np.int64 for d in cx.diffs[3:-1])
        assert all(chunk._csc[2].dtype == np.int64 for _, chunk in cx.diffs[-1].chunks())
        homology.homology_dims(cx, 5)
    assert len(normalized_tables) == 3


def test_a_complex_whose_top_is_one_block_pays_no_generic_matrix_arithmetic(monkeypatch):
    # bare S3 `general` at D = 5, a verdict of the benchmark: its top holds
    # fewer than _BLOCK entries.  Degrees 2 and 3 are put in weight order by
    # index maps, d-bar_3 and the top are each one block whose two sides are
    # merged straight into its arrays, so no Matrix product or sum runs
    # between the grading and the last rank; each of d-bar_1 .. d-bar_4 is
    # born column-major once, and _echelon runs once for the grading and
    # once per degree.  Counted from the grading on, after the calculus side
    # has built D_0 .. D_2
    H = cli.builtin_hopf("group:S3", QQ)
    calc = cli.build_cli_calculus(argparse.Namespace(calculus="general"), H, 5)
    calls, grading = [], homology.grading

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return spy
    monkeypatch.setattr(homology, "grading", lambda *args: (calls.clear(), grading(*args))[1])
    for name in ("__matmul__", "_combine", "kron"):
        monkeypatch.setattr(Matrix, name, counted(name, getattr(Matrix, name)))
    monkeypatch.setattr(Matrix, "_of_csc", staticmethod(counted("_of_csc", Matrix._of_csc)))
    monkeypatch.setattr(linalg, "_echelon", counted("_echelon", linalg._echelon))
    monkeypatch.setattr(homology, "_echelon", counted("_echelon", homology._echelon))
    cx = homology.quotient_complex(calc, None, 5)
    assert homology.homology_dims(cx, 5).dims() == [6, 0, 0, 0, 0]
    assert sorted(calls) == ["_echelon"] * 6 + ["_of_csc"] * 4


def reference_kernel(e_bar, d2, xd):
    """A basis of the integer kernel of the leg patterns of ``e_bar`` and
    ``d2``, the weights' constraints, as rows of a (dim C-bar + xd) x r
    matrix: each entry's legs counted one at a time, and the kernel of the
    distinct patterns read off ``reference_echelon`` of [K; I] by the pivots
    whose lead lies in I."""
    c, patterns = e_bar.cols, set()
    for m, shape, x_legs, signs in ((e_bar, (c, c, c), (), (1, 1, -1)),
                                    (d2, (c, c, c, xd, c, c, xd), (3, 6),
                                     (1, 1, 1, 1, -1, -1, -1))):
        for (i, j), _ in m.entries():
            pattern = [0] * (c + xd)
            legs = np.unravel_index(i * m.cols + j, shape)
            for k, (leg, sign) in enumerate(zip(legs, signs)):
                pattern[int(leg) + (c if k in x_legs else 0)] += sign
            patterns.add(tuple(pattern))
    K = sorted(patterns)
    cols = [{r: QQ.of(v) for r, v in enumerate([row[j] for row in K] + [int(j == k) for k in
                                                                          range(c + xd)]) if v}
            for j in range(c + xd)]
    kernel = [{r - len(K): a, **{i - len(K): v for i, v in rest.items()}}
              for r, (a, rest) in reference_echelon(QQ, cols).items() if r >= len(K)]
    return np.array([[v.get(r, 0) for v in kernel] for r in range(c + xd)], dtype=np.int64)


def test_grading_facts():
    # Taft(3,2)/F7 with the K calculus: a grading of rank 4, whose
    # degree-n tensors fall into 15, 41, 86, 155 and 253 weights for
    # n = 1..5, as by the kernel's weight vectors themselves: the one
    # integer weight per basis vector leaves none of them out
    calc = Calculus.k(cli.builtin_hopf("taft:3:2", Field(7)), 5)
    cx, (e_bar, d2, xd, _) = graded_complex(calc, None, 5)
    kernel = reference_kernel(e_bar, d2, xd)
    assert kernel.shape == (8 + 9, 4)
    vectors = [kernel[8:]]
    for _ in range(5):
        vectors.append((kernel[:8, None] + vectors[-1]).reshape(-1, 4))
    weights = degree_weights(cx)[0]
    assert [len(np.unique(w)) for w in weights[1:]] == [15, 41, 86, 155, 253]
    assert [len(np.unique(v, axis=0)) for v in vectors] == [len(np.unique(w)) for w in weights]
    # every k[G]: E-bar(g) = g (x) g on C-bar = k[G]/k.1, so 2 w(g) = w(g)
    # and every weight of C-bar is 0; the blocks are the weights of X
    for spec in ("group:Z2", "group:Z3", "group:S3", "group:Z4"):
        H = cli.builtin_hopf(spec, QQ)
        for calc in _bare_calculi(H, 4):
            for coeffs in (None, "trivial", "regular", "coadjoint"):
                X = cli.resolve_module(argparse.Namespace(module=coeffs), H) if coeffs else None
                cx, (e_bar, d2, xd, _) = graded_complex(calc, X, 4)
                assert not cx.weights[0].any()
                assert not reference_kernel(e_bar, d2, xd)[:H.dim - 1].any()


def test_a_grading_of_more_than_twenty_coordinates_keys_its_patterns_in_python_ints():
    # Taft(4,5)/F13: 15 basis vectors of C-bar and 16 of X, past the 20
    # coordinates whose base-8 pattern keys fit in int64; the one integer
    # weight per basis vector splits each degree as the kernel's weight
    # vectors do, and the complex is the whole-matrix recursion's
    calc = Calculus.k(cli.builtin_hopf("taft:4:5", Field(13)), 4)
    cx, (e_bar, d2, xd, _) = graded_complex(calc, None, 4)
    assert e_bar.cols + xd == 31
    kernel, (wc, wx) = reference_kernel(e_bar, d2, xd), cx.weights
    vectors, weights = kernel[15:], wx
    for _ in range(4):
        pairs = np.column_stack([vectors, weights])
        assert len(np.unique(vectors, axis=0)) == len(np.unique(weights)) == len(
            np.unique(pairs, axis=0))
        vectors = (kernel[:15, None] + vectors).reshape(-1, kernel.shape[1])
        weights = (wc[:, None] + weights).ravel()
    assert_graded_matches(cx, whole_quotient_complex(calc, None, 4))
    assert homology_dims(cx, 4).dims() == [4, 3, 3, 3]


@pytest.mark.parametrize("what", ["D_0", "D_1", "E"])
def test_graded_complex_matches_the_whole_recursion_under_corruptions(monkeypatch, what):
    # a seeded corruption of a root of the recursion is graded by the
    # entries it has: where the graded complex is built, it is the
    # whole-matrix recursion's, chunk by chunk, and so is its table
    built = 0
    for spec, field, kind, D in [("sweedler", "Q", "k", 4), ("group:S3", "Q", "general", 4),
                                 ("dualgroup:Z3", "Q", "khat", 4), ("taft:3:2", "F7", "k", 4),
                                 ("sweedler", "Q", "khat", 5)]:
        H = cli.builtin_hopf(spec, Field.parse(field))
        for seed in range(6):
            with monkeypatch.context() as m:
                _corrupt_root(m, what, seed)
                calc = cli.build_cli_calculus(argparse.Namespace(calculus=kind), H, D)
                try:
                    cx = graded_complex(calc, None, D)[0]
                except (ValueError, RuntimeError):
                    continue
                whole = whole_quotient_complex(calc, None, D)
            built += 1
            assert_graded_matches(cx, whole)
            want = homology_dims(ChainComplex(cx.field, cx.dims, whole, d2="proved"), D)
            assert homology_dims(cx, D).dims() == want.dims()
    assert built >= 5


def test_a_non_unital_action_is_refused_before_the_recursion():
    # the recursion of d_X^n reads act (u (x) I_X) = I_X; the trivial module
    # of Sweedler's algebra with its action doubled gets past no loader
    H = named_algebra("sweedler")
    X = trivial_modcomod(H)
    X.action = {k: {x: H.field.of(2) * c for x, c in v.items()} for k, v in X.action.items()}
    for calc in _bare_calculi(H, 4):
        with pytest.raises(ValueError, match="not unital"):
            quotient_complex(calc, X, 4)
        with pytest.raises(ValueError, match="not unital"):
            compare_cotor(calc, X, 4)


def _verdict(argv):
    """(exit code, stdout without ``timing_ms``, stderr) of one CLI line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.split())
    return code, [line for line in out.getvalue().splitlines() if "timing_ms" not in line], \
        err.getvalue()


def _corrupted(m, seed):
    """``m`` with a seeded corruption, by ``seed`` % 3: a nonzero scalar
    added at a seeded entry, the whole matrix doubled, or a seeded row
    added to another (which keeps d^2 = 0 below it), or to itself when it
    is the only one."""
    rng, f = random.Random(seed), m.field
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    if seed % 3 == 0:
        return m + Matrix(m.rows, m.cols, f, {(i, j): f.of(rng.choice([1, -1, 3]))})
    if seed % 3 == 1:
        return m.scale(f.of(2))
    k = rng.choice([r for r in range(m.rows) if r != i] or [i])
    return (Matrix.identity(m.rows, f) + Matrix(m.rows, m.rows, f, {(i, k): f.one()})) @ m


def _corrupt_root(monkeypatch, what, seed):
    """Make every Calculus hold a seeded corruption of D_0, D_1 or E; with
    ``what`` "E, D_1 = 0", of E, and D_1 = 0 as well."""
    if what.startswith("E"):
        reduced = Calculus._reduced_comul_matrix

        def corrupted(calc):
            if calc._reduced_comul is None:
                calc._reduced_comul = _corrupted(reduced(calc), seed)
            return calc._reduced_comul
        monkeypatch.setattr(Calculus, "_reduced_comul_matrix", corrupted)
        if what == "E":
            return
    build, degree = Calculus._build_differential, 1 if what.startswith("E") else int(what[-1])

    def differential(calc, n):
        d = build(calc, n)
        if n != degree:
            return d
        return Matrix.zero(d.rows, d.cols, d.field) if what.startswith("E") else _corrupted(d, seed)
    monkeypatch.setattr(Calculus, "_build_differential", differential)


CORRUPTED_VERDICTS = [
    "homology --builtin sweedler --calculus k --max-degree 4",
    "homology --builtin sweedler --calculus k --max-degree 2",
    "homology --builtin sweedler --calculus khat --max-degree 3",
    "homology --builtin dualgroup:Z3 --calculus k --max-degree 2",
    "homology --builtin group:S3 --calculus general --max-degree 4",
    "homology --builtin dualgroup:Z3 --calculus khat --max-degree 4",
    "homology --builtin taft:3:2 --field F7 --calculus k --max-degree 4",
]


@pytest.mark.parametrize("what", ["D_0", "D_1", "E", "E, D_1 = 0"])
def test_bare_corruptions_exit_as_on_the_full_complex(monkeypatch, what):
    # a seeded corruption of a root of the recursion gives the same exit
    # code, report and error text on the quotient-first path as on the full
    # complex, which builds every D_n, checks d^2 on each pair and masks
    # them (the path it replaced); where the quotient-first path returns,
    # its d^2 = 0 is multiplied out.  With D_1 = 0, d^2 holds at degrees 0
    # and 1 whatever E is, and a corrupted E fails first at degree 2, which
    # only Z stands for
    outcomes = set()
    for argv in CORRUPTED_VERDICTS:
        for seed in range(6):
            runs = []
            for full in (False, True):
                with monkeypatch.context() as m:
                    _corrupt_root(m, what, seed)
                    m.setattr(cli, "quotient_complex",
                              homology.calculus_complex if full else proved_quotient_complex)
                    runs.append(_verdict(argv))
            assert runs[0] == runs[1], (argv, seed)
            outcomes.add((runs[0][0], runs[0][2].partition(" at degree ")[2][:1]))
    # (exit code, failing degree): passes, d^2 failures (exit 2) and
    # closedness failures (exit 3), which D_0 cannot cause, as every mask
    # keeps degree 0 closed
    assert outcomes == {"D_0": {(0, ""), (2, "0")},
                        "D_1": {(0, ""), (2, "1"), (3, "1")},
                        "E": {(0, ""), (2, "0"), (2, "1"), (3, "1")},
                        "E, D_1 = 0": {(0, ""), (2, "2")}}[what]


def _corrupt_module(monkeypatch, what, seed):
    """Make every coefficient complex read a seeded corruption of the
    action (``what`` "act") or of nabla ("nabla"), or every Calculus one of
    D_0 or E (``_corrupt_root``)."""
    if what == "act":
        action = connections.action_matrix
        monkeypatch.setattr(connections, "action_matrix", lambda X: _corrupted(action(X), seed))
    elif what == "nabla":
        connect = connections.connection_from_coaction

        def corrupted(calc, X):
            conn = connect(calc, X)
            conn.nabla = _corrupted(conn.nabla, seed)
            return conn
        monkeypatch.setattr(connections, "connection_from_coaction", corrupted)
    else:
        _corrupt_root(monkeypatch, what, seed)


MODULE_VERDICTS = [
    "homology --builtin sweedler --calculus k --module regular --max-degree 4",
    "homology --builtin sweedler --calculus khat --module trivial --max-degree 3",
    "homology --builtin sweedler --calculus general --module coadjoint --max-degree 4",
    "homology --builtin group:S3 --calculus k --module coadjoint --max-degree 4",
    "homology --builtin dualgroup:Z3 --calculus general --module regular --max-degree 4",
    "homology --builtin dualgroup:Z3 --calculus k --module trivial --max-degree 2",
    "homology --builtin taft:3:2 --field F7 --calculus k --module trivial --max-degree 4",
]


@pytest.mark.parametrize("what", ["D_0", "E", "act", "nabla"])
def test_module_corruptions_exit_as_on_the_full_complex(monkeypatch, what):
    # a seeded corruption of D_0, E, the action or nabla gives the same exit
    # code, report and error text on the quotient-first path as on the full
    # coefficient complex masked by homology._quotients (the path it replaced);
    # where the quotient-first path returns, its d^2 = 0 is multiplied out
    outcomes = set()
    for argv in MODULE_VERDICTS:
        for seed in range(6):
            runs = []
            for full in (False, True):
                with monkeypatch.context() as m:
                    _corrupt_module(m, what, seed)
                    m.setattr(cli, "quotient_complex",
                              homology.calculus_complex if full else proved_quotient_complex)
                    runs.append(_verdict(argv))
            assert runs[0] == runs[1], (argv, seed)
            outcomes.add((runs[0][0], runs[0][2].strip().rpartition(": ")[2]))
    # (exit code, error): passes, failures of the checks at the API edge
    # (exit 2), a curvature whose two routes disagree and a quotient that
    # is not one (exit 3).  A corrupted E fails d^2 at degree 1 at the
    # latest, as d^2[1] = Z (x) I + I_C (x) d^2[0]
    curved = (3, "curvature routes disagree; calculus is inconsistent")
    assert outcomes == {
        "D_0": {(0, ""), (2, "ValueError('d^2 != 0 at degree 0')"), curved},
        "E": {(0, ""), (2, "ValueError('d^2 != 0 at degree 1')"), curved,
              (3, "tensors with a basepoint leg are not a subcomplex at degree 1")},
        "act": {(0, ""), (2, "ValueError('module action is not unital')")},
        "nabla": {(0, ""), (2, "ValueError('connection is not flat')")}}[what]


@pytest.mark.parametrize("what", ["none", "D_0", "E", "act", "nabla"])
def test_coefficient_complexes_fail_as_with_every_pair_multiplied_out(monkeypatch, what):
    # the coefficient complex multiplies out d^2[0] and d^2[1] only and
    # takes every higher degree from the recursion: on seeded corruptions of
    # its roots it fails exactly when, and as, the complex of the same
    # differentials with every pair multiplied out, and when it passes it
    # has multiplied out two pairs, not D - 1
    D, outcomes = 5, set()
    for name, coeffs, seed in itertools.product(("sweedler", "dualgroup:Z3"),
                                                ("trivial", "regular", "coadjoint"), range(4)):
        H = cli.builtin_hopf(name, QQ)
        with monkeypatch.context() as m:
            if what != "none":
                _corrupt_module(m, what, seed)
            calc = Calculus.k(H, D)
            X = cli.resolve_module(argparse.Namespace(module=coeffs), H)
            conn = connections.connection_from_coaction(calc, X)

            def every_pair():
                if not connections.curvature(conn).is_zero():
                    raise ValueError("connection is not flat")
                diffs = [connections._coefficient_base(conn)]
                for _ in range(1, D):
                    diffs.append(connections._coefficient_differential(calc, diffs[-1]))
                ChainComplex(calc.field, [calc.cdim ** n * X.dim for n in range(D + 1)], diffs)
            pairs, witness = [], homology.identity_defect_witness
            m.setattr(homology, "identity_defect_witness",
                      lambda *args: pairs.append(args) or witness(*args))
            runs = []
            for build in (every_pair, lambda: connections.coefficient_complex(conn, D)):
                pairs.clear()
                try:
                    build()
                    runs.append(("pass", len(pairs)))
                except (ValueError, RuntimeError) as e:
                    runs.append((repr(e), None))
            assert runs[0][0] == runs[1][0], (name, coeffs, seed)
            assert runs[0][0] != "pass" or runs == [("pass", D - 1), ("pass", 2)]
            outcomes.add(runs[1][0])
    assert "pass" in outcomes and (what == "none") == (outcomes == {"pass"})


# (exit code, error) of --compare-cotor with one oracle differential
# corrupted, per (degree, seed), as a check of the oracle's d^2 at its
# construction gives them: "d2@n" is exit 2 with "d^2 != 0 at degree n",
# "fail" exit 1 with that differential_equal line failing, "pass" exit 0
ORACLE_CORRUPTIONS = {
    "homology --builtin sweedler --calculus k --compare-cotor --max-degree 3":
        ["d2@0", "fail", "d2@0", "d2@1", "fail", "d2@1", "d2@1", "fail", "fail"],
    "homology --builtin sweedler --module regular --compare-cotor --max-degree 3":
        ["d2@0", "fail", "d2@0", "d2@0", "fail", "d2@1", "fail", "fail", "fail"],
    "homology --builtin group:S3 --calculus khat --compare-cotor --max-degree 3":
        ["d2@0", "pass", "pass", "d2@1", "fail", "d2@1", "fail", "fail", "fail"],
    "homology --builtin dualgroup:Z3 --calculus general --module regular --compare-cotor"
    " --max-degree 3":
        ["d2@0", "fail", "pass", "d2@0", "fail", "d2@1", "d2@1", "fail", "pass"],
}


@pytest.mark.parametrize("argv", sorted(ORACLE_CORRUPTIONS))
def test_a_corrupted_oracle_differential_exits_as_when_checked_at_construction(monkeypatch,
                                                                              argv):
    # compare_cotor checks the oracle's d^2 only when some differential
    # differs from the calculus side's; a seeded corruption of one oracle
    # differential still gets the exit code, error and report of a check at
    # the oracle's construction (captured so).  Only cobar_complex hands its
    # basepoint to the constructor, which corrupts each differential list
    # once, so that wrapping the same list again for its check sees the
    # same matrices
    post_init, outcomes = ChainComplex.__post_init__, []
    for degree in range(3):
        for seed in range(3):
            corrupted = []

            def corrupting(self, *args):
                if self.basepoint is not None and not any(d is self.diffs for d in corrupted):
                    corrupted.append(self.diffs)
                    self.diffs[degree] = _corrupted(self.diffs[degree], seed)
                return post_init(self, *args)
            out, err = io.StringIO(), io.StringIO()
            with monkeypatch.context() as m, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                m.setattr(ChainComplex, "__post_init__", corrupting)
                code = cli.main(argv.split())
            error = err.getvalue().strip().rpartition(": ")[2]
            if code == 2:
                assert error.startswith("ValueError('d^2 != 0 at degree ")
                outcomes.append(f"d2@{error[-3]}")
                continue
            assert error == "" and code in (0, 1)
            report = json.loads(out.getvalue())
            failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
            assert (f"differential_equal[{degree}]" in failed) == (code == 1)
            outcomes.append("fail" if code else "pass")
    assert outcomes == ORACLE_CORRUPTIONS[argv]


def test_module_homology_ranks_after_every_full_differential_is_released(monkeypatch):
    # d_X^0, d_X^1 and d_X^2 are built in full and nothing else is; none is
    # alive by the time a quotient, or a chunk of the top, is ranked
    refs, alive = [], []
    rank = Matrix.rank
    for name in ("_coefficient_base", "_coefficient_differential"):
        build = getattr(connections, name)

        def built(*args, build=build):
            d = build(*args)
            refs.append(weakref.ref(d._csr[1]))
            return d
        monkeypatch.setattr(connections, name, built)

    def ranked(m, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        return rank(m, **kwargs)
    monkeypatch.setattr(Matrix, "rank", ranked)
    code, doc = cli_report("homology --builtin taft:3:2 --field F7 --calculus k"
                           " --module coadjoint --max-degree 5")
    assert code == 0 and doc["homology"]["H_4"] == 2
    # four whole quotients, then the top's chunks
    assert len(refs) == 3 and len(alive) > 5 and not any(alive)


def test_module_taft_homology_at_degree_5_stays_under_its_traced_peak():
    # built in full and masked, this verdict takes ~116 MiB traced; built
    # quotient-first ~26 MiB, and ~23 MiB with its top rank on a masked copy
    # of the columns; ranked in the CSC with per-pivot bookkeeping, ~15 MiB;
    # with the quotients above degree 2 built column-major, ~9 MiB; split by
    # weight, its top built and ranked one chunk at a time, ~4.1 MiB
    code, doc, peak = traced_peak("homology --builtin taft:3:2 --field F7 --calculus k"
                                  " --module coadjoint --max-degree 5")
    assert code == 0 and doc["homology"]["H_4"] == 2
    assert peak < 6 * 2**20


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from([QQ, Field(2), Field(7), Field(2**32 + 15)]))
def test_restricted_ranks_match_the_reference_on_random_complexes(seed, field):
    # d_n = G_(n+1) N_n G_n^-1, with N_n zero on the coordinates that N_(n-1)
    # maps into and mapping into coordinates that N_(n+1) is zero on, so
    # d^2 = 0; G_n mixes the coordinates by elementary operations.  Zero
    # differentials, empty degrees and D = 1 are drawn; over F_4294967311
    # the elimination runs on object values
    rng = random.Random(seed)
    D = rng.randint(1, 4)
    dims = [rng.randint(0, 6) for _ in range(D + 1)]
    image = [set()] + [set(rng.sample(range(k), rng.randint(0, k))) for k in dims[1:]]

    def scalar():
        return field.of(rng.randint(1, field.char - 1) if field.char else rng.randint(-3, 3) or 1)

    mixing = []
    for k in dims:
        g = ginv = Matrix.identity(k, field)
        for _ in range(2 * k if k > 1 else 0):
            i, j = rng.sample(range(k), 2)
            e = Matrix(k, k, field, {(i, j): scalar()})
            g, ginv = (Matrix.identity(k, field) + e) @ g, ginv @ (Matrix.identity(k, field) - e)
        mixing.append((g, ginv))
    diffs = []
    for n in range(D):
        density = rng.choice([0.0, 0.5, 1.0])
        normal = Matrix(dims[n + 1], dims[n], field, {
            (i, j): scalar() for i in image[n + 1] for j in range(dims[n])
            if j not in image[n] and rng.random() < density})
        diffs.append(mixing[n + 1][0] @ normal @ mixing[n][1])
    cx = ChainComplex(field, dims, diffs)
    assert homology_dims(cx).dims() == reference_homology_dims(cx)
