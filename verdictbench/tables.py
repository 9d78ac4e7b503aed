"""Make tables.json: homology of the bare calculus complexes that have no
closed form, from the un-relabeled built-in algebras through the cobar
oracle (hopfcalc.homology.cobar_complex with the coadjoint comodule, which
is the coefficient comodule of the bare K complex).

    python3 verdictbench/tables.py          # rewrite tables.json
    python3 verdictbench/tables.py --check  # exit 1 if tables.json differs
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from hopfcalc.homology import cobar_complex, homology_dims  # noqa: E402
from hopfcalc.modules import coadjoint_comodule  # noqa: E402

from workloads import COTOR_CASES, TABLES, named_algebra, oracle, table_key  # noqa: E402


def make() -> dict:
    out = {}
    for name, field, calc, coeffs, D, _ in COTOR_CASES:
        H = named_algebra(name, field)
        if coeffs is not None or oracle.homology_closed_form(
                name.partition(":")[0], coeffs, D, H.dim, H.field.char) is not None:
            continue
        if calc != "k":
            raise ValueError("the cobar oracle here matches the K complex only")
        cx = cobar_complex(H, coadjoint_comodule(H), D)
        out[table_key(name, field, calc, D)] = homology_dims(cx, D).dims()
        print(table_key(name, field, calc, D), out[table_key(name, field, calc, D)],
              file=sys.stderr)
    return out


def main(argv) -> int:
    tables = make()
    if "--check" in argv:
        with open(TABLES) as fh:
            return 0 if json.load(fh) == tables else 1
    with open(TABLES, "w") as fh:
        fh.write("{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                                     for k, v in sorted(tables.items())) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
