"""End-to-end acceptance gate.

Eight criteria, each one test, each printing a single pass/fail line.
Everything is exact arithmetic; there is no tolerance anywhere.  Calculus
instances are shared across criteria through a module-level cache so the
expensive Taft-algebra matrices are built once.
"""
import random

from conftest import ACCEPTANCE_ALGEBRAS, base_corpus, mutate_coaction, named_algebra
from test_calculus import hopf_oracle, reference_differential, reference_product

from hopfcalc.calculus import Calculus, verify_dga
from hopfcalc.connections import (check_connection, check_dg_module_structure,
                                  coefficient_complex, connection_from_coaction,
                                  is_flat, tensor_connection)
from hopfcalc.homology import cobar_complex, compare_cotor, homology_dims
from hopfcalc.hopf import BialgebraMorphism
from hopfcalc.linalg import Matrix
from hopfcalc.modules import (BimoduleCoalgebra, check_ayd, check_equivariant,
                              check_yd, coassociativity_defects, groupoid_decompose,
                              modcomod_from_groupoid, trivial_modcomod, GroupoidData)

MAX_DEGREE = 3
_CALCS = {}


def calc_for(name: str, kind: str) -> Calculus:
    key = (name, kind)
    if key not in _CALCS:
        H = named_algebra(name)
        if kind == "k":
            _CALCS[key] = Calculus.k(H, MAX_DEGREE)
        elif kind == "khat":
            _CALCS[key] = Calculus.khat(H, MAX_DEGREE)
        else:
            C = BimoduleCoalgebra.from_hopf(H)
            beta = (BialgebraMorphism.antipode(H) if kind == "general_s"
                    else BialgebraMorphism.antipode_inverse(H))
            _CALCS[key] = Calculus.general(C, BialgebraMorphism.identity(H),
                                           beta, MAX_DEGREE)
    return _CALCS[key]


def _report(num: int, title: str, ok: bool):
    print(f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({title}) failed"


def _full_corpus(H):
    out = [X for X in base_corpus(H) if X.action is not None and X.coaction is not None]
    rng = random.Random(17)
    muts = [mutate_coaction(out[k % len(out)], rng) for k in range(9)]
    return out, muts


def test_criterion_1_dga_axioms():
    ok = True
    for name in ACCEPTANCE_ALGEBRAS:
        for kind in ("k", "khat", "general_s"):
            rep = verify_dga(calc_for(name, kind), MAX_DEGREE)
            if not rep.passed:
                print(f"  DGA failure for {name}/{kind}: {rep.failures()[0]}")
                ok = False
    _report(1, "DGA axioms for K, Khat, General over all six algebras", ok)


def test_criterion_2_correspondence_theorems():
    ok = True
    total_mutations = 0
    for name in ACCEPTANCE_ALGEBRAS:
        H = named_algebra(name)
        base, muts = _full_corpus(H)
        total_mutations += len(muts)
        pairs = [("k", check_ayd), ("khat", check_yd),
                 ("general_s", None)]
        C = BimoduleCoalgebra.from_hopf(H)
        ident = BialgebraMorphism.identity(H)
        s = BialgebraMorphism.antipode(H)
        for X in base + muts:
            for kind, checker in pairs:
                calc = calc_for(name, kind)
                conn = connection_from_coaction(calc, X)
                rc = check_connection(conn)
                rm = (check_equivariant(X, C, ident, s) if checker is None
                      else checker(X))
                if rc.passed != rm.passed or rc.defects != rm.defects:
                    print(f"  mismatch for {name}/{kind} on {X.label}")
                    ok = False
            flat = is_flat(connection_from_coaction(calc_for(name, "khat"), X))
            if flat != (not coassociativity_defects(X)):
                print(f"  flatness mismatch for {name} on {X.label}")
                ok = False
    if total_mutations < 50:
        print(f"  only {total_mutations} mutations generated")
        ok = False
    _report(2, "connection correspondence and flatness over the corpus", ok)


def test_criterion_3_cotor_identifications():
    ok = True
    for name in ACCEPTANCE_ALGEBRAS:
        H = named_algebra(name)
        for kind in ("k", "khat", "general_s"):
            calc = calc_for(name, kind)
            rep, _ = compare_cotor(calc, None, MAX_DEGREE)
            if not rep.passed:
                print(f"  bare-complex mismatch for {name}/{kind}")
                ok = False
            for X in base_corpus(H):
                if X.action is None or X.coaction is None:
                    continue
                if not is_flat(connection_from_coaction(calc, X)):
                    continue
                rep, _ = compare_cotor(calc, X, MAX_DEGREE)
                if not rep.passed:
                    print(f"  coefficient mismatch for {name}/{kind} on {X.label}")
                    ok = False
    _report(3, "chain-level and homology equality with the cobar oracle", ok)


def test_criterion_4_quantitative_homology():
    ok = True
    D2 = named_algebra("dualZ2_F2")
    cx = cobar_complex(BimoduleCoalgebra.from_hopf(D2), trivial_modcomod(D2), MAX_DEGREE)
    dims = homology_dims(cx).dims()
    if dims != [1, 1, 1]:
        print(f"  Cotor over F2 dual group algebra gave {dims}")
        ok = False
    for name in ("kZ2", "dualZ2"):
        calc = calc_for(name, "khat")
        rep, table = compare_cotor(calc, None, MAX_DEGREE)
        if not rep.passed or table.dims() != [2, 0, 0]:
            print(f"  bare complex over {name} gave {table.dims()}")
            ok = False
    _report(4, "homology tables [1,1,1] and [2,0,0] at zero tolerance", ok)


def test_criterion_5_specialization():
    # the generalized calculus at (H, id, S) and (H, id, S^-1) against the
    # tests-only per-entry oracle of the S and S^-1 calculi, whose sandwich
    # takes S and S^-1 from H itself: the differentials, and the products
    # A_m = product(0, m) that every product(n, m) = I_(C^n) (x) A_m is
    # built from
    ok = True
    for name in ACCEPTANCE_ALGEBRAS:
        H = named_algebra(name)
        for kind, gkind in (("khat", "general_s"), ("k", "general_sinv")):
            direct, general = hopf_oracle(kind, H), calc_for(name, gkind)
            for n in range(MAX_DEGREE + 1):
                if reference_differential(direct, n) != general.differential(n):
                    print(f"  {name}: {kind} differential {n} differs")
                    ok = False
            for m in range(MAX_DEGREE + 1):
                if reference_product(direct, 0, m) != general.product(0, m):
                    print(f"  {name}: {kind} product (0,{m}) differs")
                    ok = False
    d_s = calc_for("sweedler", "general_s").differential(1)
    d_sinv = calc_for("sweedler", "general_sinv").differential(1)
    w = (d_s - d_sinv).nonzero_witness()
    if w is None:
        print("  H4 specializations coincide at degree 1, expected a witness")
        ok = False
    else:
        print(f"  H4 degree-1 difference witness at entry {w[:2]}")
    _report(5, "General(id,S) = Khat and General(id,S^-1) = K matrix families", ok)


def _flat_conns(name, kind, checker):
    H = named_algebra(name)
    calc = calc_for(name, kind)
    out = []
    for X in base_corpus(H):
        if X.action is None or X.coaction is None:
            continue
        conn = connection_from_coaction(calc, X)
        if checker(X).passed and is_flat(conn):
            out.append(conn)
    return out


def test_criterion_6_tensor_product():
    ok = True
    for name in ("kS3", "sweedler"):
        yds = _flat_conns(name, "khat", check_yd)
        ayds = _flat_conns(name, "k", check_ayd)
        if not yds or not ayds:
            print(f"  no flat pairs over {name}")
            ok = False
        for cy in yds:
            for ca in ayds:
                conn = tensor_connection(cy, ca)
                if not (check_connection(conn).passed and is_flat(conn)):
                    print(f"  tensor failed over {name} for "
                          f"({cy.X.label}, {ca.X.label})")
                    ok = False
                if name == "kS3":
                    ra = groupoid_decompose(cy.X)
                    rb = groupoid_decompose(ca.X)
                    rt = groupoid_decompose(conn.X)
                    if not (ra.ok and rb.ok and rt.ok):
                        print(f"  grading decomposition failed over {name}")
                        ok = False
                        continue
                    H = named_algebra(name)
                    table = H.group_table
                    expect = {}
                    for g, dg in ra.data.dims.items():
                        for h, dh in rb.data.dims.items():
                            k = table[g][h]
                            expect[k] = expect.get(k, 0) + dg * dh
                    expect = {k: v for k, v in expect.items() if v}
                    if rt.data.dims != expect:
                        print(f"  tensor grading {rt.data.dims} != {expect}")
                        ok = False
    _report(6, "tensor of YD-flat with AYD-flat connections, graded product", ok)


def test_criterion_7_groupoid_round_trip():
    ok = True
    H = named_algebra("kS3")
    f = H.field
    table = H.group_table
    inv = [next(j for j in range(6) if table[i][j] == 0) for i in range(6)]
    rng = random.Random(23)
    dims = {0: 2, 3: 1, 4: 1}
    blocks = {}
    for h in range(6):
        for g in dims:
            t = table[table[h][g]][inv[h]]
            blocks[(h, g)] = Matrix(dims[t], dims[g], f,
                                    {(r, r): f.of(rng.randint(1, 4))
                                     for r in range(min(dims[t], dims[g]))})
    for g in dims:
        blocks[(0, g)] = Matrix.identity(dims[g], f)
    X = modcomod_from_groupoid(H, GroupoidData(dims, blocks))
    rep = groupoid_decompose(X)
    if not (rep.ok and rep.data.dims == dims and
            all(rep.data.blocks[k] == blocks[k] for k in blocks)):
        print("  functor data round trip failed")
        ok = False
    for Y in base_corpus(H):
        if Y.action is None or Y.coaction is None:
            continue
        if check_ayd(Y).passed and not groupoid_decompose(Y).ok:
            print(f"  corpus AYD module {Y.label} failed to decompose")
            ok = False
    _report(7, "conjugation-groupoid functor data round trip over k[S3]", ok)


def test_criterion_8_cocommutative_dg_module():
    # the DG-module statement assumes the AYD structure, so the flat corpus
    # is filtered by the sandwich compatibility; over k[S3] the one-dim
    # modules with a non-central grouplike are flat but not AYD, and for
    # them the property genuinely fails
    ok = True
    for name in ("kS3", "kZ4"):
        H = named_algebra(name)
        calc = Calculus.khat(H, MAX_DEGREE)
        seen = 0
        for X in base_corpus(H):
            if X.action is None or X.coaction is None:
                continue
            conn = connection_from_coaction(calc, X)
            if not (is_flat(conn) and check_ayd(X).passed):
                continue
            seen += 1
            rep = check_dg_module_structure(calc, conn, max_degree=2)
            if not rep.passed:
                print(f"  DG-module failure over {name} on {X.label}")
                ok = False
        if seen < 3:
            print(f"  only {seen} flat AYD corpus modules over {name}")
            ok = False
    h4 = connection_from_coaction(calc_for("sweedler", "khat"),
                                  trivial_modcomod(named_algebra("sweedler")))
    rep = check_dg_module_structure(calc_for("sweedler", "khat"), h4)
    if not (len(rep.checks) == 1 and rep.checks[0].passed is None):
        print("  H4 case was not reported inapplicable")
        ok = False
    _report(8, "DG-module property over cocommutative algebras, H4 inapplicable", ok)
