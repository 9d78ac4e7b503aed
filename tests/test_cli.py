import contextlib
import copy
import io
import json
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import set_column

from hopfcalc.calculus import Calculus
from hopfcalc.cli import main
from hopfcalc.linalg import Matrix


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
    # a wrong degree-1 differential makes the two curvature routes disagree
    def bump(d):
        f = d.field
        col = d.column(0)
        k = min(col)
        col[k] = f.add(col[k], f.one())
        set_column(d, 0, col)
        return d
    _corrupt_differential(monkeypatch, 1, bump)
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


def test_witness_of_an_entry_only_the_calculus_side_holds_prints_as_a_string(
        capsys, monkeypatch):
    # an entry the cobar oracle does not have is read from the int64 CSR of
    # the difference as an int; over Q it still prints as a rational string
    rows = []

    def add_lone_entry(d):
        f = d.field
        rows.append(min(set(range(d.rows)) - set(d.column(0))))
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
