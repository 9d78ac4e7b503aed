"""What a ``hopfcalc`` command loads before its verdict runs.

``hopfcalc.linalg`` loads scipy's compiled ``_sparsetools`` extension from
its file, so that importing the command line front end never runs the
``scipy.sparse`` package init.  Each test runs in a fresh interpreter,
since the test process itself may have imported scipy already.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _python(code: str, *args: str):
    """Run ``code`` in a fresh interpreter with ``src`` on its path; the
    JSON document its last output line holds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("HOPFCALC_MAX_DEGREE", None)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_leaves_scipy_out():
    loaded = _python("import json, sys\n"
                     "import hopfcalc.cli\n"
                     "print(json.dumps(sorted(k for k in sys.modules\n"
                     "                        if k.partition('.')[0] == 'scipy')))")
    assert loaded == []


def test_homology_verdicts_leave_numpy_ma_out():
    # numpy.ma takes ~15 ms to import, more than a whole small verdict:
    # neither a graded bare complex nor a coefficient complex with its
    # cobar oracle asks for it (np.unique without return_index would, on
    # its first call)
    loaded = _python("import contextlib, io, json, sys\n"
                     "from hopfcalc import cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     "    for argv in ('--calculus general --max-degree 5',\n"
                     "                 '--module regular --compare-cotor --max-degree 4'):\n"
                     "        cli.main(('homology --builtin group:S3 ' + argv).split())\n"
                     "print(json.dumps(sorted(k for k in sys.modules\n"
                     "                        if k.split('.')[:2] == ['numpy', 'ma'])))")
    assert loaded == []


def test_importing_the_package_loads_every_submodule():
    # verdictbench's span recorder wraps entry points in every submodule
    # after ``import hopfcalc``; the command line front end is imported by
    # whoever runs it
    loaded = _python("import json, sys\n"
                     "import hopfcalc\n"
                     "print(json.dumps(sorted(k for k in sys.modules\n"
                     "                        if k.startswith('hopfcalc.'))))")
    want = sorted(f"hopfcalc.{p.stem}" for p in (SRC / "hopfcalc").glob("*.py")
                  if p.stem not in ("__init__", "cli"))
    assert loaded == want


# Runs the verdicts of argv[2] after breaking the direct load of
# ``_sparsetools`` in the way argv[1] names, each break lasting for one
# call only, so that the package import that follows loads as usual.
VERDICTS = """
import contextlib, importlib.machinery, importlib.util, io, json, sys

how = sys.argv[1]
Loader = importlib.machinery.ExtensionFileLoader


def once(owner, name, replacement, target):
    # owner.name acts as replacement on its first call about target, and
    # as before on every other call
    orig = getattr(owner, name)

    def patched(first, *rest):
        key = first if isinstance(first, str) else first.name
        if key != target:
            return orig(first, *rest)
        setattr(owner, name, orig)
        return replacement(orig, first, *rest)

    setattr(owner, name, patched)


TOOLS = "scipy.sparse._sparsetools"
if how == "missing":
    # a scipy whose package folder, argv[3], holds no _sparsetools file
    def find_spec(orig, name, *rest):
        spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
        spec.submodule_search_locations = [sys.argv[3]]
        return spec

    once(importlib.util, "find_spec", find_spec, "scipy")
elif how == "fails":
    def create_module(orig, loader, spec):
        raise ImportError("cannot load " + spec.name)

    once(Loader, "create_module", create_module, TOOLS)
elif how == "incomplete":
    def exec_module(orig, loader, module):
        orig(loader, module)
        del module.csr_tocsc

    once(Loader, "exec_module", exec_module, TOOLS)

from hopfcalc import cli, linalg

verdicts = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    body = json.loads(out.getvalue())
    del body["timing_ms"]
    verdicts.append([code, body, err.getvalue()])
print(json.dumps({
    "package_imported": "scipy.sparse" in sys.modules,
    "module": linalg._sparsetools.__name__,
    "routines": all(hasattr(linalg._sparsetools, r) for r in linalg._SPARSETOOLS_ROUTINES),
    "verdicts": verdicts}))
"""

ONE_PER_SUBCOMMAND = [
    ["verify-hopf", "--builtin", "sweedler"],
    ["verify-dga", "--builtin", "taft:3:2", "--field", "F7", "--calculus", "general",
     "--alpha", "s", "--beta", "sinv", "--max-degree", "2"],
    ["check-module", "--builtin", "sweedler", "--module", "trivial", "--condition", "ayd"],
    ["homology", "--builtin", "sweedler", "--module", "regular", "--compare-cotor",
     "--max-degree", "3"],
    ["tensor", "--builtin", "group:S3", "--yd-module", "coadjoint",
     "--ayd-module", "trivial"],
]


def _verdicts(how: str, folder: str = ""):
    return _python(VERDICTS, how, json.dumps(ONE_PER_SUBCOMMAND), folder)


@pytest.fixture(scope="module")
def direct():
    got = _verdicts("direct")
    assert not got["package_imported"] and got["routines"]
    return got["verdicts"]


@pytest.mark.parametrize("how", ["missing", "fails", "incomplete"])
def test_a_failed_direct_load_falls_back_to_the_package(direct, how, tmp_path):
    got = _verdicts(how, str(tmp_path))
    assert got["package_imported"] and got["routines"]
    assert got["module"] == "scipy.sparse._sparsetools"
    assert got["verdicts"] == direct
    # the lines include a failure with its witness, not only passes
    assert sorted(code for code, _, _ in direct) == [0, 0, 0, 1, 1]
