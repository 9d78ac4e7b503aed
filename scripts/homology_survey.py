"""Homology tables of the Hopf calculi and of cobar complexes.

For every built-in algebra, prints dim H_n of the bare calculus complex
and of the cobar complex with trivial coefficients, cross-checked against
each other where the identification applies.
"""
import argparse
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

from hopfcalc.calculus import Calculus
from hopfcalc.fields import Field
from hopfcalc.homology import cobar_complex, compare_cotor, homology_dims
from hopfcalc.hopf import (build_dual_group_algebra, build_group_algebra,
                           build_sweedler, build_taft, cyclic_table, symmetric_table)
from hopfcalc.modules import BimoduleCoalgebra, trivial_modcomod


@dataclass
class SurveyConfig:
    max_degree: int = 3
    only: Optional[str] = None


def builtins():
    yield "k[Z/2] over Q", build_group_algebra(cyclic_table(2))
    yield "k[Z/2] over F2", build_group_algebra(cyclic_table(2), Field(2))
    yield "k[Z/3] over Q", build_group_algebra(cyclic_table(3))
    yield "k[Z/3] over F3", build_group_algebra(cyclic_table(3), Field(3))
    table, names = symmetric_table(3)
    yield "k[S3] over Q", build_group_algebra(table, names=names)
    yield "k^{Z/2} over Q", build_dual_group_algebra(cyclic_table(2))
    yield "k^{Z/2} over F2", build_dual_group_algebra(cyclic_table(2), Field(2))
    yield "Sweedler H4", build_sweedler()
    yield "Taft(3,2,F7)", build_taft(3, 2, Field(7))


def run(cfg: SurveyConfig) -> int:
    bad = 0
    for name, H in builtins():
        if cfg.only and cfg.only not in name:
            continue
        t0 = time.time()
        calc = Calculus.khat(H, cfg.max_degree)
        rep, table = compare_cotor(calc, None, cfg.max_degree)
        bare = table.dims()
        C = BimoduleCoalgebra.from_hopf(H)
        cx = cobar_complex(C, trivial_modcomod(H), cfg.max_degree)
        triv = homology_dims(cx).dims()
        agree = "ok" if rep.passed else "MISMATCH vs cobar"
        bad += not rep.passed
        print(f"{name:18s} K* complex {bare}  cotor(trivial) {triv}  "
              f"{agree}  ({time.time() - t0:.1f}s)")
    return 1 if bad else 0


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=int, default=3)
    ap.add_argument("--only", help="substring filter on the algebra name")
    args = ap.parse_args(argv)
    return run(SurveyConfig(max_degree=args.max_degree, only=args.only))


if __name__ == "__main__":
    sys.exit(main())
