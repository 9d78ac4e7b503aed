import contextlib
import copy
import io
import json
import pathlib
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import column, traced_peak, with_column

from hopfcalc import cli
from hopfcalc.calculus import Calculus, verify_dga
from hopfcalc.cli import main
from hopfcalc.homology import compare_cotor
from hopfcalc.hopf import verify_axioms
from hopfcalc.linalg import Matrix

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip() else None
    return code, doc


def test_verify_hopf_builtin_passes(capsys):
    code, doc = run(capsys, "verify-hopf", "--builtin", "group:Z3")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["command"] == ["verify-hopf"]
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_hopf_file_with_broken_antipode_fails(capsys, tmp_path):
    spec = {
        "field": "Q", "dim": 2, "basis": ["1", "g"],
        "mul": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
        "unit": [[0, 1]],
        "comul": [[0, 0, 0, 1], [1, 1, 1, 1]],
        "counit": [[0, 1], [1, 1]],
        "antipode": [[0, 0, 1], [1, 0, 1]],      # S(g) = 1 is wrong
    }
    path = tmp_path / "h.json"
    path.write_text(json.dumps(spec))
    code, doc = run(capsys, "verify-hopf", "--hopf", str(path))
    assert code == 1
    assert doc["status"] == "fail"
    assert any(c["status"] == "fail" for c in doc["checks"])


def test_every_verify_hopf_line_fails_in_a_golden_entry(capsys):
    # a line that no committed input fails is a line no test shows can fail;
    # the one exception is antipode_inverse, proved unfailable in the
    # verify_axioms docstring
    _, doc = run(capsys, "verify-hopf", "--builtin", "sweedler")
    emitted = [c["name"] for c in doc["checks"]]
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    failed = {c["name"] for argv, entry in golden.items() if argv.startswith("verify-hopf ")
              for c in entry["body"]["checks"] if c["status"] == "fail"}
    assert [n for n in emitted if n not in failed] == ["antipode_inverse"]
    assert "The ``antipode_inverse`` line cannot fail." in verify_axioms.__doc__


def test_every_verify_dga_line_fails_in_a_golden_entry(capsys):
    # the verify-dga slice of the same audit, by line family; the one
    # exception is graded_unit, proved unfailable in the verify_dga docstring
    _, doc = run(capsys, "verify-dga", "--builtin", "sweedler", "--max-degree", "2")
    emitted = list(dict.fromkeys(c["name"].split("[")[0] for c in doc["checks"]))
    assert emitted == ["d_squared_zero", "leibniz", "associativity", "graded_unit"]
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    failed = {c["name"].split("[")[0] for argv, entry in golden.items()
              if argv.startswith("verify-dga ")
              for c in entry["body"]["checks"] if c["status"] == "fail"}
    assert [n for n in emitted if n not in failed] == ["graded_unit"]
    assert "The ``graded_unit`` line cannot fail on input the CLI accepts." in verify_dga.__doc__


def test_every_check_module_line_fails_in_a_golden_entry(capsys):
    # the check-module slice of the same audit: each condition, as the help
    # lists them, emits one line named after it, and every one fails in
    # some golden entry
    assert main(["check-module", "--help"]) == 0
    usage = " ".join(capsys.readouterr().out.split())
    conditions = usage.split("--condition {", 1)[1].split("}", 1)[0].split(",")
    assert "stable" in conditions
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    emitted, failed = set(), set()
    for argv, entry in golden.items():
        if argv.startswith("check-module "):
            emitted.update(c["name"] for c in entry["body"]["checks"])
            failed.update(c["name"] for c in entry["body"]["checks"] if c["status"] == "fail")
    assert sorted(emitted) == sorted(conditions)
    assert failed == emitted


def test_every_homology_line_is_proved_in_the_compare_cotor_docstring(capsys):
    # the homology slice of the same audit: no golden entry fails a line
    # of compare_cotor, and its docstring proves that none can fail on
    # input the CLI accepts
    _, doc = run(capsys, "homology", "--builtin", "sweedler", "--compare-cotor",
                 "--max-degree", "2")
    emitted = list(dict.fromkeys(c["name"].split("[")[0].split("=")[0] for c in doc["checks"]))
    assert emitted == ["degree_dims_equal", "differential_equal", "homology_dims"]
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    assert not [c for argv, entry in golden.items() if argv.startswith("homology ")
                for c in entry["body"].get("checks", []) if c["status"] == "fail"]
    proofs = " ".join(compare_cotor.__doc__.split())
    for sentence in ["The ``degree_dims_equal`` line cannot fail: both sides are cd^n * xd.",
                     "The ``differential_equal`` lines cannot fail on input the CLI accepts:"
                     " the two sides agree by the paper's theorem, and only a differential"
                     " corrupted by hand differs.",
                     "The ``homology_dims`` line cannot fail when every differential matches:"
                     " equal matrices have equal ranks, so one table is computed and used"
                     " for both sides."]:
        assert sentence in proofs


def test_verify_hopf_file_with_densely_listed_antipode_passes(capsys, tmp_path):
    # kZ2 with every antipode entry listed, the zeros included
    spec = dict(KZ2, antipode=[[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]])
    path = tmp_path / "h.json"
    path.write_text(json.dumps(spec))
    code, doc = run(capsys, "verify-hopf", "--hopf", str(path))
    assert code == 0
    assert doc["status"] == "pass"


def test_verify_dga_khat(capsys):
    code, doc = run(capsys, "verify-dga", "--builtin", "sweedler",
                    "--calculus", "khat", "--max-degree", "2")
    assert code == 0 and doc["status"] == "pass"


def test_verify_dga_general(capsys):
    code, doc = run(capsys, "verify-dga", "--builtin", "group:Z2",
                    "--calculus", "general", "--alpha", "id", "--beta", "s",
                    "--max-degree", "2")
    assert code == 0


def test_verify_dga_dual_group_s3_degree_3(capsys):
    code, doc = run(capsys, "verify-dga", "--builtin", "dualgroup:S3", "--max-degree", "3")
    assert code == 0 and len(doc["checks"]) == 3 + 6 + 20 + 1


def test_check_module_yd_trivial(capsys):
    code, doc = run(capsys, "check-module", "--builtin", "sweedler",
                    "--module", "trivial", "--condition", "yd")
    assert code == 0


def test_check_module_ayd_trivial_over_h4_fails_mathematically(capsys):
    # the trivial module over the Sweedler algebra is YD but not AYD, so
    # exit code 1 with a defect witness is the correct outcome here
    code, doc = run(capsys, "check-module", "--builtin", "sweedler",
                    "--module", "trivial", "--condition", "ayd")
    assert code == 1
    assert doc["checks"][0]["witness"] is not None


def test_check_module_ayd_trivial_over_group(capsys):
    code, _ = run(capsys, "check-module", "--builtin", "group:S3",
                  "--module", "trivial", "--condition", "ayd")
    assert code == 0


def test_check_module_flat_from_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"delta": [[0, 1], [1, -1]],
                                "sigma": [[0, 1]]}))
    code, doc = run(capsys, "check-module", "--builtin", "sweedler",
                    "--module", str(path), "--condition", "flat",
                    "--calculus", "k")
    assert code == 0


def test_homology_with_cotor_comparison(capsys):
    code, doc = run(capsys, "homology", "--builtin", "group:Z2",
                    "--calculus", "khat", "--compare-cotor", "--max-degree", "3")
    assert code == 0
    assert doc["homology"] == {"H_0": 2, "H_1": 0, "H_2": 0}


# kZ2 on the basis [g, 1], its unit listed densely: the 0 coefficient of g
# comes first, so the basepoint's support starts at index 1
KZ2_DENSE_UNIT = {"field": "Q", "dim": 2, "basis": ["g", "1"],
                  "mul": [[0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1], [1, 1, 1, 1]],
                  "unit": [[0, 0], [1, 1]], "comul": [[0, 0, 0, 1], [1, 1, 1, 1]],
                  "counit": [[0, 1], [1, 1]], "antipode": [[0, 0, 1], [1, 1, 1]]}


@pytest.mark.parametrize("argv", [
    ["--calculus", "k"],
    ["--calculus", "khat", "--module", "regular"],
    ["--calculus", "general", "--alpha", "id", "--beta", "s"],
])
@pytest.mark.parametrize("compare", [[], ["--compare-cotor"]])
def test_homology_of_a_hopf_file_with_densely_listed_unit(capsys, tmp_path, argv, compare):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(KZ2_DENSE_UNIT))
    tail = [*argv, *compare, "--max-degree", "3"]
    code, doc = run(capsys, "homology", "--hopf", str(path), *tail)
    _, builtin = run(capsys, "homology", "--builtin", "group:Z2", *tail)
    assert code == 0
    assert doc["homology"] == builtin["homology"]


def test_homology_of_module_coefficients(capsys):
    code, doc = run(capsys, "homology", "--builtin", "dualgroup:Z2",
                    "--field", "F2", "--calculus", "khat", "--module", "trivial",
                    "--compare-cotor", "--max-degree", "3")
    assert code == 0
    assert doc["homology"] == {"H_0": 1, "H_1": 1, "H_2": 1}


def test_tensor_one_dimensionals_over_h4(capsys, tmp_path):
    path = tmp_path / "ayd.json"
    path.write_text(json.dumps({"delta": [[0, 1], [1, -1]],
                                "sigma": [[0, 1]]}))
    code, doc = run(capsys, "tensor", "--builtin", "sweedler",
                    "--yd-module", "trivial", "--ayd-module", str(path))
    assert code == 0
    assert doc["result_dim"] == 1
    assert doc["grouplike"] == {"1": "1"}
    assert doc["character"]["g"] == "-1"


def test_tensor_rejects_non_ayd_partner(capsys):
    # trivial over H4 is not AYD-flat, so this is a usage error (exit 2)
    # or a failed flatness precondition, never a crash
    code, _ = run(capsys, "tensor", "--builtin", "sweedler",
                  "--yd-module", "trivial", "--ayd-module", "trivial")
    assert code in (1, 2)


def count_calls(monkeypatch, owner, name, counted=lambda *args: True):
    """Wrap ``owner.name`` (every hopfcalc module's binding of it, for a
    function) so that the calls for which ``counted(*args)`` holds are
    counted; returns the list the wrapper appends to."""
    calls = []
    orig = getattr(owner, name)

    def wrapper(*args, **kw):
        if counted(*args):
            calls.append(args)
        return orig(*args, **kw)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, wrapper)
    for mod in [m for k, m in sys.modules.items() if k.startswith("hopfcalc")]:
        for key, val in list(vars(mod).items()):
            if val is orig:
                monkeypatch.setattr(mod, key, wrapper)
    return calls


def test_tensor_builds_the_sandwich_matrix_once(capsys, monkeypatch):
    # check_ayd reads the sandwich matrix of the calculus tensor_connection
    # used, rather than building its own
    builds = count_calls(monkeypatch, Calculus, "_sandwich_matrix",
                         lambda calc: calc._sandwich is None)
    code, _ = run(capsys, "tensor", "--builtin", "sweedler", "--yd-module", "trivial",
                  "--ayd-module", "trivial")
    assert code == 1 and len(builds) == 1


@pytest.mark.parametrize("modules,code", [(("group:S3", "coadjoint", "trivial"), 0),
                                          (("sweedler", "trivial", "trivial"), 1)])
def test_tensor_applies_the_sandwich_without_m1(capsys, monkeypatch, modules, code):
    # check_connection, the flatness checks and check_ayd apply the sandwich
    # by contraction: each calculus builds its T once, and no T (x) I_X,
    # the factor of M_1 = (I_C (x) act) (T (x) I_X), is built
    import hopfcalc.connections
    builds = count_calls(monkeypatch, Calculus, "_sandwich_matrix",
                         lambda calc: calc._sandwich is None)
    actions = count_calls(monkeypatch, hopfcalc.connections, "sandwich_action")
    kron, krons = Matrix.kron, []

    def spy_kron(a, b):
        krons.append(a)
        return kron(a, b)

    monkeypatch.setattr(Matrix, "kron", spy_kron)
    name, yd, ayd = modules
    got, _ = run(capsys, "tensor", "--builtin", name, "--yd-module", yd, "--ayd-module", ayd)
    calcs = [calc for (calc,) in builds]
    assert got == code and calcs and len({id(c) for c in calcs}) == len(calcs)
    assert not actions and not any(a is c._sandwich for a in krons for c in calcs)


@pytest.mark.parametrize("condition,code", [("ayd", 0), ("yd", 1), ("connection", 0),
                                            ("flat", 0)])
def test_taft_module_verdicts_stay_under_their_traced_peak(condition, code):
    # with T from a Kronecker chain through d^3 columns and M_1 =
    # (I_C (x) act) (T (x) I_X) built, each verdict took 91-93 MiB traced;
    # with T and the sandwich applied by contraction, 12-23 MiB: the
    # coadjoint module's own build sets the peak at ~12 MiB, and the
    # flatness check's Matrix.from_columns of the curvature, one list per
    # row of its 262,144, at ~22.5 MiB
    got, _, peak = traced_peak("check-module --builtin taft:8:2 --field F17 --module coadjoint"
                               f" --calculus k --condition {condition}")
    assert got == code and peak <= 24 * 2**20


def test_coefficient_complex_builds_its_leibniz_term_once(capsys, monkeypatch):
    # d_X^0 and d_X^1 of the flatness check are the complex's own, with the
    # oracle comparison and quotient-first
    import hopfcalc.connections
    for compare in (["--compare-cotor"], []):
        with monkeypatch.context() as m:
            calls = count_calls(m, hopfcalc.connections, "_leibniz_term")
            code, _ = run(capsys, "homology", "--builtin", "sweedler", "--module", "regular",
                          *compare, "--max-degree", "3")
        assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["homology", "--builtin", "sweedler", "--module", "regular", "--compare-cotor",
     "--max-degree", "4"],
    ["homology", "--builtin", "taft:3:2", "--field", "F7", "--calculus", "khat",
     "--module", "trivial", "--compare-cotor", "--max-degree", "3"],
    ["check-module", "--builtin", "sweedler", "--module", "regular", "--condition", "flat"],
    ["homology", "--builtin", "sweedler", "--module", "regular", "--max-degree", "5"],
    ["homology", "--builtin", "taft:3:2", "--field", "F7", "--calculus", "k",
     "--module", "coadjoint", "--max-degree", "4"],
])
def test_a_coefficient_complex_builds_only_the_degree_zero_differential(
        capsys, monkeypatch, argv):
    # d_X^n comes from the recursion of D_n on d_X^(n-1) and E, so no D_n
    # with n > 0 is built, with the oracle comparison or quotient-first
    builds = count_calls(monkeypatch, Calculus, "_build_differential")
    code, _ = run(capsys, *argv)
    assert code == 0 and [args[1] for args in builds] == [0]


@pytest.mark.parametrize("module,code", [("tests/sweedler_curved.json", 1), ("regular", 0)])
def test_flat_check_computes_the_coassociativity_defects_once(capsys, monkeypatch, module,
                                                              code):
    # the witness comes from the curvature's defect columns
    import hopfcalc.modules
    calls = count_calls(monkeypatch, hopfcalc.modules, "coassociativity_defects")
    with contextlib.chdir(ROOT):
        got, _ = run(capsys, "check-module", "--builtin", "sweedler", "--module", module,
                     "--condition", "flat")
    assert got == code and len(calls) == 1


@pytest.mark.parametrize("argv", [
    "homology --builtin sweedler --module regular --compare-cotor --max-degree 3",
    "homology --builtin group:S3 --calculus k --module coadjoint --compare-cotor --max-degree 3",
    "homology --builtin dualgroup:Z3 --calculus general --module regular --compare-cotor"
    " --max-degree 3",
    "homology --builtin taft:3:2 --field F7 --calculus khat --module trivial --compare-cotor"
    " --max-degree 3",
    # bare: the oracle's basepoint-coadjoint comodule, which nothing else checks
    "homology --builtin sweedler --calculus k --compare-cotor --max-degree 3",
])
def test_a_cotor_comparison_checks_the_coassociativity_once(capsys, monkeypatch, argv):
    # the calculus side's curvature is the coassociativity defect of the
    # module's coaction, so the oracle does not compute it again
    import hopfcalc.modules
    calls = count_calls(monkeypatch, hopfcalc.modules, "coassociativity_defects")
    code, _ = run(capsys, *argv.split())
    assert code == 0 and len(calls) == 1


def test_a_coaction_that_is_not_coassociative_is_refused_as_before(capsys):
    # through the CLI the calculus side refuses it first, as a connection
    # that is not flat; the oracle built directly refuses it itself
    from hopfcalc.homology import cobar_complex
    from hopfcalc.modules import BimoduleCoalgebra
    with contextlib.chdir(ROOT):
        code = main(["homology", "--builtin", "sweedler", "--module",
                     "tests/sweedler_curved.json", "--compare-cotor", "--max-degree", "3"])
        H = cli.builtin_hopf("sweedler", cli.Field.parse("Q"))
        X = cli.load_module_file("tests/sweedler_curved.json", H)
    err = capsys.readouterr().err
    assert code == 2 and err == "error: unexpected failure: ValueError('connection is not flat')\n"
    with pytest.raises(ValueError, match="^coaction is not coassociative$"):
        cobar_complex(BimoduleCoalgebra.from_hopf(H), X, 3)


def test_malformed_json_file_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run(capsys, "verify-hopf", "--hopf", str(path))
    assert code == 2


KZ2 = {"field": "Q", "dim": 2, "basis": ["1", "g"],
       "mul": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
       "unit": [[0, 1]], "comul": [[0, 0, 0, 1], [1, 1, 1, 1]],
       "counit": [[0, 1], [1, 1]], "antipode": [[0, 0, 1], [1, 1, 1]]}
TRIVIAL = {"dim": 1, "action": [[0, 0, 0, 1], [1, 0, 0, 1]], "coaction": [[0, 0, 0, 1]]}


def _with(doc, key, entry):
    return dict(doc, **{key: doc[key] + [entry]})


@pytest.mark.parametrize("key,entry", [
    ("mul", [5, 5, 0, 1]), ("mul", [0, 0, -1, 1]), ("mul", [0, 1, 1, 1]),
    ("unit", [2, 1]), ("counit", [-1, 1]), ("comul", [1, 0, 2, 1]),
    ("comul", [2, 0, 0, 1]), ("antipode", [0, 2, 1]), ("antipode", [-1, 0, 1]),
])
def test_hopf_file_with_bad_or_repeated_index_is_exit_2(capsys, tmp_path, key, entry):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(_with(KZ2, key, entry)))
    code, _ = run(capsys, "verify-hopf", "--hopf", str(path))
    assert code == 2


@pytest.mark.parametrize("module", [
    _with(TRIVIAL, "coaction", [0, 0, 1, 1]), _with(TRIVIAL, "coaction", [0, 2, 0, 1]),
    _with(TRIVIAL, "coaction", [-1, 0, 0, 1]), _with(TRIVIAL, "coaction", [0, 0, 0, 1]),
    _with(TRIVIAL, "action", [0, 0, 1, 1]), _with(TRIVIAL, "action", [2, 0, 0, 1]),
    {"delta": [[0, 1], [2, 1]], "sigma": [[0, 1]]},
    {"delta": [[0, 1], [1, 1]], "sigma": [[-1, 1]]},
])
@pytest.mark.parametrize("condition", ["yd", "flat"])
def test_module_file_with_bad_or_repeated_index_is_exit_2(capsys, tmp_path, module,
                                                          condition):
    hpath, mpath = tmp_path / "h.json", tmp_path / "m.json"
    hpath.write_text(json.dumps(KZ2))
    mpath.write_text(json.dumps(module))
    code, _ = run(capsys, "check-module", "--hopf", str(hpath), "--module", str(mpath),
                  "--condition", condition)
    assert code == 2


# g . x = 2x is not an action of k[Z2], since g . (g . x) = 4x but g g = 1;
# nor is the one-dimensional action of delta(g) = 2, which is no character
@pytest.mark.parametrize("module", [
    {"dim": 1, "action": [[0, 0, 0, 1], [1, 0, 0, 2]], "coaction": [[0, 0, 0, 1]]},
    {"delta": [[0, 1], [1, 2]], "sigma": [[0, 1]]},
], ids=["explicit", "delta"])
def test_module_file_whose_action_is_not_an_action_is_exit_2(capsys, tmp_path, module):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module))
    code = main(["check-module", "--builtin", "group:Z2", "--module", str(path),
                 "--condition", "yd"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {path}: module action fails action_associative\n"


def test_flat_check_and_homology_at_max_degree_1(capsys):
    # the curvature needs product(0, 1) only, so degree 1 is deep enough
    argv = ["check-module", "--builtin", "group:Z2", "--module", "regular",
            "--condition", "flat"]
    code, doc = run(capsys, *argv, "--max-degree", "1")
    assert code == 0
    assert doc["checks"] == run(capsys, *argv, "--max-degree", "2")[1]["checks"]
    code, doc = run(capsys, "homology", "--builtin", "group:Z2", "--module", "regular",
                    "--max-degree", "1")
    assert code == 0 and doc["homology"] == {"H_0": 1}


@pytest.mark.parametrize("argv", [
    ["verify-dga", "--builtin", "group:Z2"],
    ["check-module", "--builtin", "group:Z2", "--module", "regular", "--condition", "flat"],
    ["homology", "--builtin", "group:Z2"],
    ["tensor", "--builtin", "group:Z2", "--yd-module", "trivial", "--ayd-module", "trivial"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_degree_below_1_is_a_usage_error(capsys, argv, value):
    # --max-degree 0 used to fall back to the default cutoff, and -1 to
    # surface as an unexpected failure
    code = main([*argv, "--max-degree", value])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert "argument --max-degree: must be >= 1" in captured.err


def test_max_degree_env_below_1_has_the_option_rule(capsys, monkeypatch):
    monkeypatch.setenv("HOPFCALC_MAX_DEGREE", "0")
    code = main(["homology", "--builtin", "group:Z2"])
    assert code == 2
    assert capsys.readouterr().err == "error: HOPFCALC_MAX_DEGREE: must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ["verify-dga"],
    ["check-module", "--module", "trivial", "--condition", "ayd"],
    ["homology"],
    ["tensor", "--yd-module", "trivial", "--ayd-module", "trivial"],
], ids=lambda argv: argv[0])
def test_input_failing_a_hopf_axiom_is_rejected(capsys, argv):
    code = main([*argv, "--hopf", str(ROOT / "tests" / "sweedler_bad_comul.json")])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == "error: input fails Hopf axiom coassociativity\n"


# a wrong product e_g e_g = 2 e_1 fails associativity, whose witness names
# the basis elements of the failing tuple
_BAD_MUL = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 2]]


@pytest.mark.parametrize("spec", [
    dict(KZ2, basis=["e"], mul=_BAD_MUL), dict(KZ2, basis=5), dict(KZ2, basis=["1", 2]),
    dict(KZ2, field=7), dict(KZ2, dim=2.5), dict(KZ2, dim="2"),
], ids=["short-basis", "basis-int", "basis-non-string", "field-int", "dim-float",
        "dim-string"])
@pytest.mark.parametrize("command", [["verify-hopf"],
                                     ["check-module", "--module", "trivial",
                                      "--condition", "yd"]])
def test_hopf_file_with_bad_field_dim_or_basis_is_malformed(capsys, tmp_path, spec,
                                                            command):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(spec))
    code = main([command[0], "--hopf", str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert "malformed Hopf spec" in err and "unexpected failure" not in err


@pytest.mark.parametrize("drop", ["action", "coaction"])
@pytest.mark.parametrize("command", [
    ["check-module", "--module", "M", "--condition", "flat"],
    ["homology", "--module", "M", "--max-degree", "2"],
    ["tensor", "--yd-module", "trivial", "--ayd-module", "M"],
])
def test_module_file_without_action_or_coaction_is_malformed(capsys, tmp_path, drop,
                                                             command):
    hpath, mpath = tmp_path / "h.json", tmp_path / "m.json"
    hpath.write_text(json.dumps(KZ2))
    mpath.write_text(json.dumps({k: v for k, v in TRIVIAL.items() if k != drop}))
    argv = [str(mpath) if a == "M" else a for a in command]
    code = main([argv[0], "--hopf", str(hpath), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2
    assert "malformed module spec" in err and "unexpected failure" not in err


def test_well_formed_files_still_load(capsys, tmp_path):
    hpath, mpath = tmp_path / "h.json", tmp_path / "m.json"
    hpath.write_text(json.dumps(KZ2))
    mpath.write_text(json.dumps(TRIVIAL))
    code, _ = run(capsys, "check-module", "--hopf", str(hpath), "--module", str(mpath),
                  "--condition", "yd")
    assert code == 0


def test_unknown_builtin_is_exit_2(capsys):
    code, _ = run(capsys, "verify-hopf", "--builtin", "nonsense")
    assert code == 2


def test_cayley_file_names_must_be_strings(capsys, tmp_path):
    # basis names key the "character" and "grouplike" objects of a report
    path = tmp_path / "z2.json"
    for names in ([0, 1], ["e"]):
        path.write_text(json.dumps({"table": [[0, 1], [1, 0]], "names": names}))
        assert main(["verify-hopf", "--builtin", f"group:{path}"]) == 2
        assert "names must be a list of 2 strings" in capsys.readouterr().err
    path.write_text(json.dumps({"table": [[0, 1], [1, 0]], "names": ["e", "g"]}))
    code, doc = run(capsys, "verify-hopf", "--builtin", f"group:{path}")
    assert code == 0 and doc["status"] == "pass"


@pytest.mark.parametrize("field,scalar", [("F7", 1.5), ("F7", True), ("F7", 1.0),
                                          ("Q", 0.1), ("Q", 1.0), ("Q", True), ("Q", False)])
def test_float_or_bool_scalar_is_exit_2(capsys, tmp_path, field, scalar):
    # Field.of took 1.5 as 1 over F7, true as 1 and 0.1 as the binary
    # fraction 3602879701896397/36028797018963968 over Q: a float or a bool
    # in place of the mul coefficient 1 of g g = 1 passed, or failed an axiom
    hpath, mpath = tmp_path / "h.json", tmp_path / "m.json"
    hpath.write_text(json.dumps(dict(KZ2, field=field, mul=KZ2["mul"][:3] + [[1, 1, 0, scalar]])))
    assert main(["verify-hopf", "--hopf", str(hpath)]) == 2
    assert f"bad scalar literal {scalar!r}" in capsys.readouterr().err
    hpath.write_text(json.dumps(dict(KZ2, field=field)))
    mpath.write_text(json.dumps(dict(TRIVIAL, coaction=[[0, 0, 0, scalar]])))
    assert main(["check-module", "--hopf", str(hpath), "--module", str(mpath),
                 "--condition", "yd"]) == 2
    assert f"bad scalar literal {scalar!r}" in capsys.readouterr().err


@pytest.mark.parametrize("table", [[[0, 1], [1, False]], [[0, 1], [1, 0.0]], [[0, 1], 5]])
def test_cayley_table_entries_must_be_ints(capsys, tmp_path, table):
    # false == 0 made the first table k[Z2]; 0.0 and 5 crashed check_group_table
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"table": table}))
    assert main(["verify-hopf", "--builtin", f"group:{path}"]) == 2
    assert capsys.readouterr().err == f"error: {path}: expected a Cayley table\n"


def test_unknown_subcommand_is_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_hopf_source_is_exit_2(capsys):
    code, _ = run(capsys, "verify-hopf")
    assert code == 2


def test_reports_are_deterministic(capsys):
    def canonical():
        code, doc = run(capsys, "check-module", "--builtin", "sweedler",
                        "--module", "regular", "--condition", "yd")
        doc.pop("timing_ms")
        return code, json.dumps(doc, sort_keys=True)
    assert canonical() == canonical()


def test_max_degree_env_override(capsys, monkeypatch):
    monkeypatch.setenv("HOPFCALC_MAX_DEGREE", "2")
    code, doc = run(capsys, "homology", "--builtin", "group:Z2",
                    "--calculus", "khat")
    assert code == 0
    assert set(doc["homology"]) == {"H_0", "H_1"}
    monkeypatch.setenv("HOPFCALC_MAX_DEGREE", "zero")
    code, _ = run(capsys, "homology", "--builtin", "group:Z2")
    assert code == 2


def test_a_large_prime_field_is_decided_at_once(capsys):
    # 2^61 - 1 took trial division minutes; past the range where Miller-Rabin
    # on the bases 2..41 is exact, a field is refused as bad input
    code, doc = run(capsys, "verify-hopf", "--builtin", "sweedler",
                    "--field", "F2305843009213693951")
    assert code == 0 and doc["status"] == "pass"
    code = main(["verify-hopf", "--builtin", "sweedler", "--field", "F3317044064679887385961981"])
    assert code == 2
    assert "primality is decided only below" in capsys.readouterr().err


def test_verify_dga_below_degree_2_is_a_usage_error(capsys):
    code = main(["verify-dga", "--builtin", "group:Z2", "--max-degree", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: verify-dga needs --max-degree >= 2 to see the DGA axioms\n"


def _corrupt_differential(monkeypatch, degree, corrupt):
    """Make every Calculus build its degree-``degree`` differential through
    ``corrupt``, as if its cache held a wrong matrix."""
    build = Calculus._build_differential

    def corrupted(self, n):
        d = build(self, n)
        return corrupt(d) if n == degree else d
    monkeypatch.setattr(Calculus, "_build_differential", corrupted)


def test_internal_invariant_failure_is_exit_3(capsys, monkeypatch):
    # a wrong degree-0 differential makes the two curvature routes disagree:
    # d_X^1 reads D_1 L_1 = E (x) u - I_C (x) D_0 u, and D_0 u = d(1) = 0,
    # so an entry in column 0 of D_0, the unit e_0 of Sweedler, changes it
    def bump(d):
        col = column(d, 0)
        assert not col
        return with_column(d, 0, {0: d.field.one()})
    _corrupt_differential(monkeypatch, 0, bump)
    code = main(["check-module", "--builtin", "sweedler", "--module", "regular",
                 "--condition", "flat"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: internal error: RuntimeError: curvature routes disagree")


@pytest.mark.parametrize("argv,witness,homology", [
    (["--builtin", "sweedler", "--calculus", "k"],
     {"degree": 2, "entry": [2, 2, "-1"]}, {"H_0": 2, "H_1": 1, "H_2": 1}),
    (["--builtin", "taft:3:2", "--field", "F7", "--calculus", "khat"],
     {"degree": 2, "entry": [1, 1, 6]}, {"H_0": 3, "H_1": 2, "H_2": 2}),
])
def test_corrupted_differential_witness_prints_as_before(capsys, monkeypatch, argv,
                                                          witness, homology):
    # doubling the top differential keeps d^2 = 0 and the ranks, so only
    # differential_equal[2] fails; its witness prints a rational entry as a
    # string and a prime-field one as an int, as before the calculus built
    # each differential from the one below it
    _corrupt_differential(monkeypatch, 2, lambda d: d.scale(d.field.of(2)))
    code, doc = run(capsys, "homology", *argv, "--compare-cotor", "--max-degree", "3")
    assert code == 1
    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    assert failed == [{"name": "differential_equal[2]", "status": "fail",
                       "witness": witness}]
    assert doc["homology"] == homology


def test_differential_that_breaks_the_degenerate_subcomplex_is_exit_3(capsys, monkeypatch):
    # adding row k of d_1, which has the basepoint leg (e_0 (x) ...), to a
    # row with no such leg keeps d^2 = 0 and every rank, but maps a tensor
    # with the basepoint leg outside the span of such tensors
    def shear(d):
        f = d.field
        k = min(column(d, 0))
        i = (1 * 4 + 1) * 4       # e_1 (x) e_1 (x) e_0 in C (x) C (x) B
        return (Matrix.identity(d.rows, f) + Matrix(d.rows, d.rows, f, {(i, k): 1})) @ d
    _corrupt_differential(monkeypatch, 1, shear)
    argv = ["homology", "--builtin", "sweedler", "--calculus", "k", "--max-degree", "2"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: internal error: RuntimeError: tensors with a basepoint leg")
    # against the oracle the sheared differential is a failed line, and the
    # calculus side is ranked on its full matrices
    code, doc = run(capsys, *argv, "--compare-cotor")
    assert code == 1
    assert [c["name"] for c in doc["checks"] if c["status"] == "fail"] == ["differential_equal[1]"]
    assert doc["homology"] == {"H_0": 2, "H_1": 1}


def test_witness_of_an_entry_only_the_calculus_side_holds_prints_as_a_string(
        capsys, monkeypatch):
    # an entry the cobar oracle does not have is read from the int64 CSR of
    # the difference as an int; over Q it still prints as a rational string
    rows = []

    def add_lone_entry(d):
        f = d.field
        rows.append(min(set(range(d.rows)) - set(column(d, 0))))
        return d + Matrix(d.rows, d.cols, f, {(rows[0], 0): f.of(3)})
    _corrupt_differential(monkeypatch, 0, add_lone_entry)
    code, doc = run(capsys, "homology", "--builtin", "sweedler", "--calculus", "k",
                    "--compare-cotor", "--max-degree", "1")
    assert code == 1
    line = next(c for c in doc["checks"] if c["name"] == "differential_equal[0]")
    assert line == {"name": "differential_equal[0]", "status": "fail",
                    "witness": {"degree": 0, "entry": [rows[0], 0, "3"]}}


# ---------------------------------------------------------------------------
# fuzzing: mutated specs must exit 0, 1 or 2, never with an unexpected failure

# the regular module-comodule of kZ2: e_i . x_a = x_{i+a}, rho(x_a) = e_a (x) x_a
REGULAR = {"dim": 2, "action": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
           "coaction": [[0, 0, 0, 1], [1, 1, 1, 1]]}
# replacement values kept small: a "dim" above 4 is not explored here
_VALUES = [None, True, -1, 0, 1, 3, 4, 2.5, "2", "x", "1/2", [], {}, [0], [[0, 0]],
           ["1"], ["a", "b", "c"]]
_SCALARS = ["1/2", "-3/4", 0.5, "0.5", "1/0", "abc", "", None, True, [1], "7"]


@st.composite
def mutated(draw, base):
    """``base`` with one to three mutations: a key dropped, a value of
    another type, an index out of range, an entry repeated, or a
    non-integral or malformed scalar."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        keys = sorted(doc)
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        entries = doc[key]
        kind = draw(st.sampled_from(["drop", "retype", "index", "repeat", "scalar"]))
        if kind == "drop":
            del doc[key]
        elif kind == "retype" or not (isinstance(entries, list) and entries
                                      and all(isinstance(e, list) and e for e in entries)):
            doc[key] = draw(st.sampled_from(_VALUES))
        else:
            entry = draw(st.sampled_from(entries))
            if kind == "repeat":
                entries.append(list(entry))
            elif kind == "scalar":
                entry[-1] = draw(st.sampled_from(_SCALARS))
            elif len(entry) > 1:
                pos = draw(st.integers(0, len(entry) - 2))
                entry[pos] = draw(st.sampled_from([-1, 2, 3, 5]))
    return doc


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exits(hopf, module):
    with tempfile.TemporaryDirectory() as tmp:
        hpath, mpath = f"{tmp}/h.json", f"{tmp}/m.json"
        with open(hpath, "w") as fh:
            json.dump(hopf, fh)
        with open(mpath, "w") as fh:
            json.dump(module, fh)
        for argv in (["verify-hopf", "--hopf", hpath],
                     ["check-module", "--hopf", hpath, "--module", mpath,
                      "--condition", "flat", "--max-degree", "2"]):
            code, err = _run_quietly(argv)
            assert code in (0, 1, 2), (argv, err)
            assert "unexpected failure" not in err and "Traceback" not in err, err


_FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@_FUZZ
@given(mutated(KZ2))
@example(dict(KZ2, basis=["e"], mul=_BAD_MUL))
@example(dict(KZ2, basis=5))
@example(dict(KZ2, field=7))
@example(dict(KZ2, dim=2.5))
def test_mutated_hopf_spec_exits_cleanly(spec):
    _assert_clean_exits(spec, REGULAR)


@_FUZZ
@given(mutated(REGULAR))
def test_mutated_module_spec_exits_cleanly(module):
    _assert_clean_exits(KZ2, module)


# A valid line of each subcommand, for the parser tests below.
VALID_LINES = {
    "verify-hopf": ["--builtin", "sweedler"],
    "verify-dga": ["--builtin", "sweedler", "--calculus", "general", "--alpha", "s",
                   "--max-degree", "2"],
    "check-module": ["--builtin", "sweedler", "--module", "trivial", "--condition", "ayd"],
    "homology": ["--hopf", "h.json", "--module", "regular", "--compare-cotor"],
    "tensor": ["--builtin", "group:S3", "--yd-module", "coadjoint",
               "--ayd-module", "trivial", "--max-degree", "2"],
}


def _parsed(parse):
    """Exit code, standard output and error, and namespace of one parse:
    ``parse()`` returns the namespace as a dict, or exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace, code = parse(), 0
        except SystemExit as e:
            namespace, code = None, e.code
    return code, out.getvalue(), err.getvalue(), namespace


@pytest.mark.parametrize("command", cli.SUBCOMMANDS)
def test_one_subcommand_parser_parses_as_the_full_one(command, monkeypatch):
    # main runs what it parsed: every subcommand records its namespace instead
    ran = []

    def record(args, started):
        ran.append(vars(args))
        return 0

    for name in cli.SUBCOMMANDS:
        monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"), record)

    def through_main(argv):
        ran.clear()
        code = cli.main(argv)
        if code:
            raise SystemExit(code)
        return ran[0] if ran else None

    valid = [command] + VALID_LINES[command]
    # exit code of each line: only check-module and tensor require a module
    lines = [(valid, 0), ([command, "-h"], 0), (valid + ["--condition", "bogus"], 2),
             (valid + ["--calculus", "bogus"], 2),
             ([command, "--builtin", "sweedler"], 2 if command in ("check-module", "tensor")
              else 0),
             (valid + ["--frobnicate"], 2), (valid + ["--max-degree", "0"], 2)]
    for argv, code in lines:
        full = _parsed(lambda: vars(cli.build_parser().parse_args(argv)))
        assert full[0] == code, argv
        if full[3] is not None:
            # the one-subcommand parser sets no "cmd"
            assert full[3].pop("cmd") == command
        assert _parsed(lambda: through_main(argv)) == full, argv


@pytest.mark.parametrize("argv,built", [
    (["check-module"] + VALID_LINES["check-module"], 1),
    (["-h"], 5),
    ([], 5),
    (["frobnicate"], 5),
    (["--builtin", "sweedler", "verify-hopf"], 5),
])
def test_main_builds_only_the_parser_it_runs(capsys, monkeypatch, argv, built):
    # main calls build_parser through the module global, which the
    # benchmark's span recorder wraps; every subcommand's arguments start
    # with the algebra's, so their calls count the subcommands built
    calls = count_calls(monkeypatch, cli, "build_parser")
    subcommands = count_calls(monkeypatch, cli, "_add_hopf_args")
    main(argv)
    assert calls == [("check-module",) if built == 1 else (None,)]
    assert len(subcommands) == built
