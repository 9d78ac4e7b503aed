"""The three workloads: which verdicts a round runs and what each must say.

A round is a fixed list of ``hopfcalc`` command lines.  Every verdict gets
input files of its own: the algebra is a ``--hopf`` file whose basis is a
fresh seeded random relabeling (``permute_basis``) of a named algebra, and
a module is relabeled to match (and its own basis permuted as well).  So
no two verdicts of a run read the same input, and an in-process cache can
only help where a one-verdict-per-process user would be helped too.

The expected outcome of each verdict is fixed here, from ``oracle`` (which
does not use hopfcalc) or from ``tables.json`` (bare complexes without a
closed form, made by ``tables.py`` through the cobar oracle).  hopfcalc is
used only to build the named algebras and the module corpus.
"""
from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from hopfcalc import cli
from hopfcalc.fields import Field
from hopfcalc.hopf import HopfAlgebra, permute_basis
from hopfcalc.modules import (ModComod, enumerate_characters, enumerate_grouplikes,
                              one_dim_modcomod, regular_modcomod, trivial_modcomod)

import oracle

# A run makes max(1, round(seconds / ROUND_SECONDS)) whole rounds.  The
# count depends on --seconds only, never on how fast this commit is, so
# two commits always do the same work.
ROUND_SECONDS = 30

# (algebra, field, calculus, degree).  Group algebras have one coproduct
# leg per basis element, dual group algebras |G| legs, Sweedler and Taft
# a few; together they span the shapes Calculus._build_product meets.
# Seven verdicts take under 0.7 s, five ~1 s (the 6-dimensional group
# algebras) and seven more, so the median verdict sits in the middle of
# five of equal cost instead of on the edge between two groups.
DGA_CASES = [
    ("group:S3", "Q", "k", 3), ("group:S3", "Q", "khat", 3),
    ("group:S3", "Q", "general", 3), ("group:Z6", "Q", "k", 3),
    ("group:Z6", "Q", "khat", 3), ("group:Z5", "Q", "k", 4),
    ("sweedler", "Q", "k", 4), ("sweedler", "Q", "khat", 4),
    ("sweedler", "Q", "general", 4),
    ("taft:3:2", "F7", "k", 2), ("taft:3:2", "F7", "general", 2),
    ("taft:3:2", "F7", "khat", 3),
    ("group:S3", "F5", "k", 3), ("sweedler", "F3", "khat", 3),
    ("group:Z3", "F3", "k", 3), ("group:Z2", "F2", "khat", 4),
    ("dualgroup:Z3", "Q", "k", 3), ("dualgroup:Z4", "Q", "khat", 3),
    ("dualgroup:S3", "Q", "k", 2),
]

MODULE_ALGEBRAS = [("group:Z2", "Q"), ("group:Z3", "Q"), ("group:S3", "Q"),
                   ("dualgroup:Z2", "Q"), ("sweedler", "Q"), ("taft:3:2", "F7")]
MODULE_CONDITIONS = ("ayd", "yd", "connection-k", "connection-khat", "flat")
MUTATIONS_PER_ALGEBRA = 32
TENSOR_ALGEBRAS = [("group:S3", "Q"), ("sweedler", "Q"), ("group:Z3", "Q"),
                   ("taft:3:2", "F7")]
TENSOR_MAX_DIM = 9

# (algebra, field, calculus, coefficients, degree, --compare-cotor);
# coefficients None is the bare calculus complex.
COTOR_CASES = [
    ("group:Z3", "Q", "khat", "trivial", 5, True),
    ("dualgroup:Z3", "Q", "k", "trivial", 4, True),
    ("sweedler", "Q", "k", "trivial", 5, True),
    ("sweedler", "Q", "khat", "trivial", 5, True),
    ("group:S3", "Q", "khat", "trivial", 5, True),
    ("taft:3:2", "F7", "k", "trivial", 5, True),
    ("sweedler", "Q", "k", "regular", 5, True),
    ("group:S3", "Q", "khat", "regular", 4, True),
    ("dualgroup:Z3", "Q", "general", "regular", 5, True),
    ("taft:3:2", "F7", "k", "regular", 3, True),
    ("group:Z4", "Q", "khat", "coadjoint", 4, True),
    ("group:Z5", "Q", "k", "coadjoint", 5, True),
    ("group:S3", "Q", "k", "coadjoint", 5, True),
    ("group:S3", "Q", "general", None, 5, False),
    ("group:Z4", "Q", "general", None, 6, False),
    ("sweedler", "Q", "k", None, 7, False),
    ("taft:3:2", "F7", "k", None, 5, False),
]

TABLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tables.json")


# ---------------------------------------------------------------------------
# named algebras and their JSON form


def named_algebra(name: str, field: str) -> HopfAlgebra:
    """A built-in algebra, named as on the hopfcalc command line."""
    return cli.builtin_hopf(name, Field.parse(field))


def _scalar(c):
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return int(c)


def hopf_doc(H: HopfAlgebra) -> dict:
    """The ``--hopf`` file schema of ``hopfcalc.cli.load_hopf_file``."""
    d = H.dim
    return {
        "field": str(H.field), "dim": d, "basis": list(H.basis),
        "mul": [[i, j, k, _scalar(c)] for (i, j), v in sorted(H.mul.items())
                for k, c in sorted(v.items())],
        "unit": [[i, _scalar(c)] for i, c in sorted(H.unit.items())],
        "comul": [[i, fl // d, fl % d, _scalar(c)] for i in range(d)
                  for fl, c in sorted(H.comul[i].items())],
        "counit": [[i, _scalar(c)] for i, c in sorted(H.counit.items())],
        "antipode": [[j, i, _scalar(c)] for (i, j), c in sorted(H.antipode.data.items())],
    }


def module_doc(X: ModComod, perm: List[int], xperm: List[int]) -> dict:
    """The module file schema of ``load_module_file``, with the algebra's
    basis relabeled by ``perm`` (new e_a = old e_perm[a]) and the module's
    own basis by ``xperm``."""
    inv = {p: a for a, p in enumerate(perm)}
    xinv = {p: a for a, p in enumerate(xperm)}
    n = X.dim
    action = [[inv[i], xinv[a], xinv[b], _scalar(c)]
              for (i, a), v in sorted(X.action.items()) for b, c in sorted(v.items())]
    coaction = [[xinv[a], inv[fl // n], xinv[fl % n], _scalar(c)]
                for a in range(n) for fl, c in sorted(X.coaction[a].items())]
    return {"dim": n, "action": sorted(action), "coaction": sorted(coaction)}


# ---------------------------------------------------------------------------
# the corpus of module-comodules over one algebra


def base_corpus(H: HopfAlgebra) -> List[ModComod]:
    """Trivial, every one-dimensional (character, grouplike) pair, the
    coadjoint comodule with the regular action, and the regular module."""
    out = [trivial_modcomod(H)]
    for delta in enumerate_characters(H):
        for sigma in enumerate_grouplikes(H):
            out.append(one_dim_modcomod(H, delta, sigma))
    return out + [coadjoint_module(H), regular_modcomod(H)]


def mutate(X: ModComod, rng: random.Random) -> ModComod:
    """Add 1 to one seeded entry of the coaction tensor."""
    f = X.field
    Y = X.copy_with(label=X.label + "+mut")
    a = rng.randrange(X.dim)
    fl = rng.randrange(X.codim * X.dim)
    val = f.add(Y.coaction[a].get(fl, f.zero()), f.one())
    if f.is_zero(val):
        del Y.coaction[a][fl]
    else:
        Y.coaction[a][fl] = val
    return Y


# The malformed-input slice.  Each file must be rejected with exit 2; the
# content is fixed, independent of the seed.  Over kZ2 = span{1, g}:
_KZ2 = {"field": "Q", "dim": 2, "basis": ["1", "g"],
        "mul": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
        "unit": [[0, 1]], "comul": [[0, 0, 0, 1], [1, 1, 1, 1]],
        "counit": [[0, 1], [1, 1]], "antipode": [[0, 0, 1], [1, 1, 1]]}
_TRIVIAL = {"dim": 1, "action": [[0, 0, 0, 1], [1, 0, 0, 1]], "coaction": [[0, 0, 0, 1]]}
# coaction entry [a, i, b, c] with b = 1 >= dim = 1: load_module_file folds
# it into i*dim + b without a bound check
_BAD_COACTION = {"dim": 1, "action": [[0, 0, 0, 1], [1, 0, 0, 1]],
                 "coaction": [[0, 0, 1, 1]]}
# mul entry [5, 5, 0, 1] outside range(dim): load_hopf_file keeps it
_STRAY_MUL = dict(_KZ2, mul=_KZ2["mul"] + [[5, 5, 0, 1]])
MALFORMED = [
    ("module coaction index b >= dim", _KZ2, _BAD_COACTION, "yd"),
    ("module coaction index b >= dim", _KZ2, _BAD_COACTION, "flat"),
    ("stray mul entry outside range(dim)", _STRAY_MUL, _TRIVIAL, "ayd"),
    ("stray mul entry outside range(dim)", _STRAY_MUL, _TRIVIAL, "flat"),
]


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class Verdict:
    """One command line and what its report must say.

    ``expect`` is one of
      {"dga": D}
      {"module": True|False}                  check-module pass or fail
      {"tensor": dim}                         tensor passes, result of this dim
      {"homology": [dims], "compare": bool}
      {"malformed": reason}                   must exit 2
    """

    argv: List[str]
    expect: dict
    label: str


class Builder:
    """Writes the input files of one run and lists its verdicts."""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.count = 0
        self._algebras: Dict[Tuple[str, str], HopfAlgebra] = {}
        self._corpora: Dict[Tuple[str, str], List[ModComod]] = {}
        self._tensor_pairs: Dict[Tuple[str, str], list] = {}

    def algebra(self, name: str, field: str) -> HopfAlgebra:
        key = (name, field)
        if key not in self._algebras:
            self._algebras[key] = named_algebra(name, field)
        return self._algebras[key]

    def corpus(self, name: str, field: str) -> List[ModComod]:
        key = (name, field)
        if key not in self._corpora:
            self._corpora[key] = base_corpus(self.algebra(name, field))
        return self._corpora[key]

    def _write(self, doc: dict, stem: str) -> str:
        path = os.path.join(self.workdir, f"{self.count:05d}-{stem}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def relabeled(self, name: str, field: str, rng: random.Random):
        """A fresh relabeling of a named algebra: (permutation, doc, path)."""
        H = self.algebra(name, field)
        perm = rng.sample(range(H.dim), H.dim)
        doc = hopf_doc(permute_basis(H, perm))
        return perm, doc, self._write(doc, "hopf")

    def round(self, workload: str, r: int) -> List[Verdict]:
        rng = random.Random(f"{workload}/{self.seed}/{r}")
        return getattr(self, "_" + workload)(rng)

    # -- dga_certify ---------------------------------------------------------

    def _dga_certify(self, rng: random.Random) -> List[Verdict]:
        out = []
        for name, field, calc, D in DGA_CASES:
            self.count += 1
            _, _, path = self.relabeled(name, field, rng)
            out.append(Verdict(["verify-dga", "--hopf", path, "--calculus", calc,
                                "--max-degree", str(D)],
                               {"dga": D}, f"{name}/{field} {calc} D={D}"))
        return out

    # -- module_corpus -------------------------------------------------------

    def _module_verdict(self, name, field, X, condition, rng) -> Verdict:
        self.count += 1
        perm, hdoc, hpath = self.relabeled(name, field, rng)
        mdoc = module_doc(X, perm, rng.sample(range(X.dim), X.dim))
        mpath = self._write(mdoc, "module")
        cond, _, calc = condition.partition("-")
        argv = ["check-module", "--hopf", hpath, "--module", mpath,
                "--condition", cond, "--calculus", calc or "k", "--max-degree", "2"]
        return Verdict(argv, {"module": oracle.module_verdict(hdoc, mdoc, condition)},
                       f"{name}/{field} {X.label} {condition}")

    def tensor_pairs(self, name: str, field: str) -> list:
        """(YD-flat, AYD-flat) pairs of base modules, judged by the oracle."""
        key = (name, field)
        if key not in self._tensor_pairs:
            H = self.algebra(name, field)
            A = oracle.Algebra(hopf_doc(H))
            ident = list(range(H.dim))
            flat = []
            for X in self.corpus(name, field):
                M = oracle.Module(module_doc(X, ident, list(range(X.dim))), A)
                if M.coassociative():
                    flat.append((X, M))
            self._tensor_pairs[key] = [
                (Y, Z) for Y, MY in flat if MY.yd() for Z, MZ in flat if MZ.ayd()
                if Y.dim * Z.dim <= TENSOR_MAX_DIM]
        return self._tensor_pairs[key]

    def _tensor_verdicts(self, name, field, rng) -> List[Verdict]:
        """The first pair and the pair with the largest product, the same in
        every run; only their relabelings come from the seed."""
        pairs = self.tensor_pairs(name, field)
        out = []
        for Y, A in (pairs[0], max(pairs, key=lambda p: p[0].dim * p[1].dim)):
            self.count += 1
            perm, _, hpath = self.relabeled(name, field, rng)
            ypath = self._write(module_doc(Y, perm, rng.sample(range(Y.dim), Y.dim)), "yd")
            apath = self._write(module_doc(A, perm, rng.sample(range(A.dim), A.dim)), "ayd")
            out.append(Verdict(["tensor", "--hopf", hpath, "--yd-module", ypath,
                                "--ayd-module", apath, "--max-degree", "2"],
                               {"tensor": Y.dim * A.dim},
                               f"{name}/{field} tensor {Y.label} x {A.label}"))
        return out

    def _module_corpus(self, rng: random.Random) -> List[Verdict]:
        out = []
        for name, field in MODULE_ALGEBRAS:
            base = self.corpus(name, field)
            modules = base + [mutate(base[k % len(base)], rng)
                              for k in range(MUTATIONS_PER_ALGEBRA)]
            for X in modules:
                for cond in MODULE_CONDITIONS:
                    out.append(self._module_verdict(name, field, X, cond, rng))
        for name, field in TENSOR_ALGEBRAS:
            out.extend(self._tensor_verdicts(name, field, rng))
        for reason, hdoc, mdoc, cond in MALFORMED:
            self.count += 1
            argv = ["check-module", "--hopf", self._write(hdoc, "bad-hopf"),
                    "--module", self._write(mdoc, "bad-module"), "--condition", cond,
                    "--max-degree", "2"]
            out.append(Verdict(argv, {"malformed": reason}, f"malformed: {reason} {cond}"))
        return out

    # -- cotor_homology ------------------------------------------------------

    def _cotor_homology(self, rng: random.Random) -> List[Verdict]:
        with open(TABLES) as fh:
            tables = json.load(fh)
        out = []
        for name, field, calc, coeffs, D, compare in COTOR_CASES:
            self.count += 1
            perm, _, hpath = self.relabeled(name, field, rng)
            argv = ["homology", "--hopf", hpath, "--calculus", calc, "--max-degree", str(D)]
            if coeffs is not None:
                X = {"trivial": trivial_modcomod, "regular": regular_modcomod,
                     "coadjoint": coadjoint_module}[coeffs](self.algebra(name, field))
                argv += ["--module", self._write(
                    module_doc(X, perm, rng.sample(range(X.dim), X.dim)), coeffs)]
            if compare:
                argv.append("--compare-cotor")
            H = self.algebra(name, field)
            table = oracle.homology_closed_form(name.partition(":")[0], coeffs, D,
                                                H.dim, H.field.char)
            if table is None:
                table = tables[table_key(name, field, calc, D)]
            out.append(Verdict(argv, {"homology": table, "compare": compare},
                               f"{name}/{field} {calc} {coeffs or 'bare'} D={D}"))
        return out


def coadjoint_module(H: HopfAlgebra) -> ModComod:
    """The coadjoint comodule with the regular action, as the CLI builds it."""
    return cli.resolve_module(argparse.Namespace(module="coadjoint"), H)


def table_key(name: str, field: str, calc: str, D: int) -> str:
    return f"{name}/{field}/{calc}/{D}"
