"""Golden canonical output of a fixed set of CLI command lines.

Each command runs in-process through ``hopfcalc.cli.main``, from the root
of the repository (spec paths are relative to it); its exit code
and its report body without ``timing_ms`` must equal the committed
``golden_cli.json`` byte for byte (as sorted-key JSON).  A refactor or an
optimization that changes a report, a witness or an exit code fails here.

Regenerate the file only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import pathlib

import pytest

from hopfcalc.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_cli.json"

COMMANDS = [
    ["verify-dga", "--builtin", "group:S3", "--calculus", "k", "--max-degree", "3"],
    ["verify-dga", "--builtin", "group:S3", "--calculus", "khat", "--max-degree", "3"],
    ["verify-dga", "--builtin", "group:S3", "--calculus", "general",
     "--alpha", "id", "--beta", "s", "--max-degree", "3"],
    ["verify-dga", "--builtin", "sweedler", "--calculus", "khat", "--max-degree", "3"],
    ["verify-dga", "--builtin", "taft:3:2", "--field", "F7", "--calculus", "k",
     "--max-degree", "2"],
    ["check-module", "--builtin", "sweedler", "--module", "trivial",
     "--condition", "ayd"],
    ["homology", "--builtin", "sweedler", "--module", "regular", "--compare-cotor",
     "--max-degree", "3"],
    ["homology", "--builtin", "group:S3", "--calculus", "khat", "--compare-cotor",
     "--max-degree", "3"],
    ["verify-hopf", "--hopf", "tests/sweedler_bad_comul.json"],
    ["verify-hopf", "--hopf", "tests/kz3_half_mul.json"],
    ["verify-hopf", "--builtin", "taft:3:2", "--field", "F7"],
    ["homology", "--builtin", "taft:3:2", "--field", "F7", "--calculus", "k",
     "--module", "regular", "--compare-cotor", "--max-degree", "3"],
    ["homology", "--builtin", "dualgroup:Z3", "--calculus", "general",
     "--module", "regular", "--compare-cotor", "--max-degree", "4"],
    ["homology", "--builtin", "sweedler", "--calculus", "k", "--max-degree", "6"],
    # failing sandwich checks, one per reader of the sandwich matrix
    ["check-module", "--builtin", "sweedler", "--module", "coadjoint", "--condition", "yd"],
    ["check-module", "--builtin", "taft:3:2", "--field", "F7", "--module", "regular",
     "--condition", "connection", "--calculus", "khat"],
    ["check-module", "--builtin", "sweedler", "--module", "regular",
     "--condition", "connection", "--calculus", "general"],
    ["check-module", "--builtin", "taft:3:2", "--field", "F7", "--module", "regular",
     "--condition", "equivariant", "--alpha", "id", "--beta", "sinv"],
    ["verify-dga", "--builtin", "sweedler", "--calculus", "general", "--alpha", "s",
     "--beta", "sinv", "--max-degree", "2"],
    # the tensor of a YD-flat with an AYD-flat connection, and a curved one
    ["tensor", "--builtin", "group:S3", "--yd-module", "coadjoint", "--ayd-module", "trivial"],
    ["tensor", "--builtin", "dualgroup:Z3", "--yd-module", "trivial",
     "--ayd-module", "coadjoint"],
    ["tensor", "--builtin", "sweedler", "--yd-module", "trivial", "--ayd-module", "trivial"],
    ["check-module", "--builtin", "sweedler", "--module", "tests/sweedler_curved.json",
     "--condition", "flat"],
    ["verify-dga", "--builtin", "taft:3:2", "--field", "F7", "--max-degree", "4"],
    # a unit of 2 and a stray e (x) g in Delta(g) over F5; a unit of 2^63 over Q
    ["verify-hopf", "--hopf", "tests/kz2_f5_bad_unit.json"],
    ["verify-hopf", "--hopf", "tests/kz2_huge_unit.json"],
    # the regular module of Sweedler's algebra is not stable
    ["check-module", "--builtin", "sweedler", "--module", "regular", "--condition", "stable"],
    # coefficient complexes ranked without the cobar oracle
    ["homology", "--builtin", "taft:3:2", "--field", "F7", "--calculus", "k",
     "--module", "coadjoint", "--max-degree", "5"],
    ["homology", "--builtin", "dualgroup:Z3", "--calculus", "general", "--module", "regular",
     "--max-degree", "4"],
    # a bare complex at a size no other test reaches: its top quotient is
    # 2,359,296 x 294,912
    ["homology", "--builtin", "taft:3:2", "--field", "F7", "--calculus", "k",
     "--max-degree", "6"],
    # the exact path: a prime above the int64 bounds of products and krons
    ["homology", "--builtin", "sweedler", "--calculus", "k", "--max-degree", "7",
     "--compare-cotor", "--field", "F2147483647"],
    ["verify-dga", "--builtin", "sweedler", "--calculus", "khat", "--max-degree", "3",
     "--field", "F4294967311"],
    # Taft(4,2) over F5 (d = 16, above the dense cap) with x x and one term of
    # Delta(x) changed: associativity and coassociativity fail on the sparse lines
    ["verify-hopf", "--hopf", "tests/taft4_f5_bad_mul_comul.json"],
]


def canonical(argv):
    """(exit code, report body without timing_ms) of one command line."""
    out = io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(out):
        code = main(list(argv))
    doc = json.loads(out.getvalue())
    doc.pop("timing_ms")
    return {"exit": code, "body": doc}


@pytest.mark.parametrize("argv", COMMANDS,
                         ids=[f"{k}-{a[0]}" for k, a in enumerate(COMMANDS)])
def test_canonical_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    got = canonical(argv)
    want = golden[" ".join(argv)]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


if __name__ == "__main__":
    doc = {" ".join(argv): canonical(argv) for argv in COMMANDS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
