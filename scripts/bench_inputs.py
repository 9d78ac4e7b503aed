"""Write round 0 of every benchmark workload's inputs for one seed.

    python scripts/bench_inputs.py SEED OUT

For each workload of ``verdictbench/workloads.py`` (dga_certify,
module_corpus, cotor_homology), a fresh ``workloads.Builder`` writes the
input files of round 0 under OUT/<workload>/, as a benchmark run with that
seed does, and ``verdicts.json`` beside them lists each verdict's argv
(its file paths relative to that folder), expected outcome and label.

The files come from the built-in algebras, their seeded relabelings
(``permute_basis``) and the module corpus, the coadjoint comodule among
them.  So two checkouts whose trees for the same seed differ
(``diff -r``) would feed the benchmark different inputs, and a change to
any of those builders shows here.  ``workloads`` is imported, never
changed; nothing is written outside OUT, and no bytecode is written.
"""
import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("dga_certify", "module_corpus", "cotor_homology")


def write_round(workloads, name: str, seed: int, out: str) -> int:
    """Write round 0 of workload ``name`` under ``out``/``name``; return
    its number of verdicts."""
    folder = os.path.join(out, name)
    os.makedirs(folder, exist_ok=True)
    verdicts = workloads.Builder(folder, seed).round(name, 0)
    prefix = folder + os.sep
    listed = [{"argv": [a[len(prefix):] if a.startswith(prefix) else a for a in v.argv],
               "expect": v.expect, "label": v.label} for v in verdicts]
    with open(os.path.join(folder, "verdicts.json"), "w") as fh:
        json.dump(listed, fh, indent=1)
        fh.write("\n")
    return len(verdicts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "verdictbench")]
    import workloads
    for name in WORKLOADS:
        count = write_round(workloads, name, args.seed, os.path.abspath(args.out))
        print(f"{name}: {count} verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
