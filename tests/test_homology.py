import argparse
import ast
import contextlib
import io
import itertools
import json
import pathlib
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ACCEPTANCE_ALGEBRAS, base_corpus, from_rows, mutated_corpus,
                      named_algebra, reference_echelon, scaled_kZ3)

from hopfcalc import cli, homology
from hopfcalc.calculus import Calculus
from hopfcalc.connections import connection_from_coaction, is_flat
from hopfcalc.fields import QQ, Field
from hopfcalc.homology import (ChainComplex, HomologyTable, cobar_complex,
                               compare_cotor, homology_dims)
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
    cx = cobar_complex(D, trivial_modcomod(D), 3)
    assert homology_dims(cx).dims() == [1, 0, 0]
    rep, _ = compare_cotor(Calculus.khat(D), None, 3)
    assert rep.passed and "homology_dims=[2, 0, 0]" in {c.name for c in rep.checks}
    D2 = named_algebra("dualZ2_F2")
    cx2 = cobar_complex(D2, trivial_modcomod(D2), 3)
    assert homology_dims(cx2).dims() == [1, 1, 1]


def test_cotor_of_symmetric_group_vanishes_over_q():
    H = named_algebra("kS3")
    cx = cobar_complex(H, trivial_modcomod(H), 3)
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
    cx = cobar_complex(H, trivial_modcomod(H), 3)
    base = cobar_complex(named_algebra("kZ4"),
                         trivial_modcomod(named_algebra("kZ4")), 3)
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
        cobar_complex(H, X, 2)


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
    ``compare_cotor`` alike, against ``reference_homology_dims``; the list
    it returns collects the tables of the calls on a cobar complex."""
    seen = []

    def checked(cx, max_degree=None):
        table = homology_dims(cx, max_degree)
        assert table.dims() == reference_homology_dims(cx, max_degree)
        if cx.basepoint is not None:
            seen.append(table.dims())
        return table
    monkeypatch.setattr(homology, "homology_dims", checked)
    monkeypatch.setattr(cli, "homology_dims", checked)
    return seen


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
    return homology.homology_dims(homology.calculus_complex(calc, X, D), D)


def test_normalized_ranks_match_the_full_oracle_on_the_golden_entries(normalized_tables):
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    commands = [argv for argv in golden if argv.startswith("homology ")]
    assert len(commands) == 5
    for argv in commands:
        with contextlib.chdir(ROOT), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv.split()) == golden[argv]["exit"]
    assert len(normalized_tables) == 5


def test_normalized_ranks_match_the_full_oracle_on_the_acceptance_cases(normalized_tables):
    # the coefficient complex is ranked as a cobar complex without the
    # oracle beside it too, on the flat modules of the base corpus and of
    # seeded mutations of its coactions
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
                    homology.homology_dims(homology.calculus_complex(calc, X, MAX_DEGREE))
    D2 = named_algebra("dualZ2_F2")
    homology.homology_dims(cobar_complex(D2, trivial_modcomod(D2), MAX_DEGREE))
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
    homology.homology_dims(cobar_complex(H, trivial_modcomod(H), degree))
    compare_cotor(Calculus.khat(H, degree), None, degree)
    compare_cotor(Calculus.k(H, degree), regular_modcomod(H), degree)
    general = Calculus.general(BimoduleCoalgebra.from_hopf(H), BialgebraMorphism.identity(H),
                               BialgebraMorphism.antipode(H), degree)
    compare_cotor(general, regular_modcomod(H), degree)
    assert len(normalized_tables) == 4


def reference_normalized(cx, top):
    """``homology._normalized`` with its guard and its quotient taken as two
    ``submatrix`` results per degree: the entries of the kept rows in the
    dropped columns must be 0, and the quotient keeps the other columns."""
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


@pytest.mark.parametrize("name,field", [("group:S3", "Q"), ("sweedler", "Q"),
                                        ("taft:3:2", "F7"), ("dualgroup:Z3", "Q"),
                                        ("dualgroup:Z2", "F2")])
def test_one_pass_normalization_matches_the_two_submatrix_form(name, field):
    # cobar complexes and calculus complexes, with the basepoint a basis
    # vector and off one (the dual group algebras)
    H = cli.builtin_hopf(name, Field.parse(field))
    degree = 3
    complexes = [cobar_complex(H, X, degree) for X in (trivial_modcomod(H), regular_modcomod(H))]
    for calc in (Calculus.k(H, degree), Calculus.khat(H, degree)):
        complexes += [homology.calculus_complex(calc, X, degree)
                      for X in (None, trivial_modcomod(H), regular_modcomod(H))]
    for cx in complexes:
        for top in range(1, degree + 1):
            dims, diffs = homology._normalized(cx, top)
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


def _bare_homology(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv.split())
    return code, json.loads(out.getvalue())


def test_bare_homology_ranks_after_every_full_differential_is_released(monkeypatch):
    # the calculus caches every D_n and the complex holds them too; neither
    # is alive by the time a quotient is ranked.  A Matrix takes no weak
    # reference, so each D_n is followed through its column index array,
    # which lives at least as long as it does
    refs, alive = [], []
    build, rank = Calculus._build_differential, Matrix.rank

    def built(calc, n):
        d = build(calc, n)
        refs.append(weakref.ref(d._csr[1]))
        return d

    def ranked(m):
        alive.append(sum(ref() is not None for ref in refs))
        return rank(m)
    monkeypatch.setattr(Calculus, "_build_differential", built)
    monkeypatch.setattr(Matrix, "rank", ranked)
    code, doc = _bare_homology("homology --builtin taft:3:2 --field F7 --calculus k"
                               " --max-degree 4")
    assert code == 0 and doc["homology"] == {"H_0": 3, "H_1": 2, "H_2": 2, "H_3": 2}
    assert len(refs) == 4 and alive == [0, 0, 0, 0]


def test_bare_taft_homology_at_degree_5_stays_under_its_traced_peak():
    # with every full differential alive at the top rank, and D_4 built from
    # E (x) I and I_C (x) D_3 at full size, this verdict takes 43 MiB traced;
    # released and built in blocks it takes ~29 MiB, at its top rank
    tracemalloc.start()
    try:
        code, doc = _bare_homology("homology --builtin taft:3:2 --field F7 --calculus k"
                                   " --max-degree 5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and doc["homology"]["H_4"] == 2
    assert peak < 32 * 2**20
