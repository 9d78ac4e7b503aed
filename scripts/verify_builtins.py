"""Sweep the built-in Hopf algebras through every structural check.

For each algebra: Hopf axioms, the bimodule coalgebra and the two
morphisms the generalized calculus is built from, and the DGA axioms of
the three calculi.
Prints one line per check family and exits nonzero on any failure.
"""
import argparse
import sys
import time
from dataclasses import dataclass
from typing import List

from hopfcalc.calculus import Calculus, verify_dga
from hopfcalc.fields import Field
from hopfcalc.hopf import (BialgebraMorphism, build_dual_group_algebra,
                           build_group_algebra, build_sweedler, build_taft,
                           cyclic_table, symmetric_table, verify_axioms, verify_morphism)
from hopfcalc.modules import BimoduleCoalgebra, verify_bimodule_coalgebra


@dataclass
class SurveyConfig:
    max_degree: int = 3


def builtins():
    yield "k[Z/2]", build_group_algebra(cyclic_table(2))
    yield "k[Z/3]", build_group_algebra(cyclic_table(3))
    yield "k[Z/4]", build_group_algebra(cyclic_table(4))
    table, names = symmetric_table(3)
    yield "k[S3]", build_group_algebra(table, names=names)
    yield "k^{Z/2}", build_dual_group_algebra(cyclic_table(2))
    yield "k^{Z/2} over F2", build_dual_group_algebra(cyclic_table(2), Field(2))
    yield "Sweedler H4", build_sweedler()
    yield "Taft(3, 2, F7)", build_taft(3, 2, Field(7))


def run(cfg: SurveyConfig) -> int:
    failures = 0
    for name, H in builtins():
        t0 = time.time()
        rep = verify_axioms(H)
        line = [f"hopf axioms {'ok' if rep.passed else 'FAIL'}"]
        failures += not rep.passed

        calcs = [("Khat", Calculus.khat(H, cfg.max_degree))]
        if H.antipode_inverse() is not None:
            calcs.append(("K", Calculus.k(H, cfg.max_degree)))
        C = BimoduleCoalgebra.from_hopf(H)
        alpha, beta = BialgebraMorphism.identity(H), BialgebraMorphism.antipode(H)
        ok = all(rep.passed for rep in (verify_bimodule_coalgebra(C), verify_morphism(alpha),
                                         verify_morphism(beta)))
        line.append(f"(C, id, S) {'ok' if ok else 'FAIL'}")
        failures += not ok
        calcs.append(("General(id,S)", Calculus.general(C, alpha, beta, cfg.max_degree)))
        for cname, calc in calcs:
            rep = verify_dga(calc, cfg.max_degree)
            line.append(f"{cname} {'ok' if rep.passed else 'FAIL'}")
            failures += not rep.passed
        print(f"{name:20s} {'  '.join(line)}  ({time.time() - t0:.1f}s)")
    return 1 if failures else 0


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=int, default=3)
    args = ap.parse_args(argv)
    return run(SurveyConfig(max_degree=args.max_degree))


if __name__ == "__main__":
    sys.exit(main())
