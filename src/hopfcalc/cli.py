"""Batch command line front end.

Subcommands:

    verify-hopf    axioms of a Hopf algebra (built-in or JSON file)
    verify-dga     DGA axioms of one of the three calculi
    check-module   compatibility conditions of a module-comodule
    homology       homology tables, optionally against the cobar oracle
    tensor         tensor product of a YD-flat and an AYD-flat connection

Exit codes: 0 all checks pass, 1 a mathematical check failed (witness in
the report), 2 malformed input or usage error, 3 internal error (an
invariant of hopfcalc itself failed, a RuntimeError; the message names
the exception type).  Reports are JSON on stdout and deterministic for
identical inputs; wall time is carried in a separate "timing_ms" field
that is not part of the canonical body.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import time
from typing import Dict, List, Optional, Tuple

from .calculus import Calculus, verify_dga
from .fields import Field
from .hopf import (BialgebraMorphism, HopfAlgebra, build_dual_group_algebra,
                   build_group_algebra, build_sweedler, build_taft, cyclic_table,
                   symmetric_table, verify_axioms)
from .linalg import Matrix, Vec
from .modules import (BimoduleCoalgebra, ModComod, check_ayd, check_equivariant,
                      check_module_axioms, check_stable, check_yd, coadjoint_comodule,
                      regular_modcomod, trivial_modcomod, one_dim_modcomod)
from .reports import Report
from .homology import compare_cotor, homology_dims, quotient_complex


class CliError(Exception):
    """Usage or input error; surfaces as exit code 2."""


def _max_degree(text: str) -> int:
    """A degree cutoff, from ``--max-degree`` or ``HOPFCALC_MAX_DEGREE``:
    an integer >= 1."""
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _max_degree_of(args) -> int:
    """``--max-degree``, else ``HOPFCALC_MAX_DEGREE``, else 3."""
    if args.max_degree:
        return args.max_degree
    env = os.environ.get("HOPFCALC_MAX_DEGREE")
    if env is None:
        return 3
    try:
        return _max_degree(env)
    except argparse.ArgumentTypeError as e:
        raise CliError(f"HOPFCALC_MAX_DEGREE: {e}")


def parse_field(s: str) -> Field:
    try:
        return Field.parse(s)
    except ValueError as e:
        raise CliError(f"bad field descriptor {s!r}: {e}")


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"{path} is not valid JSON: {e}")


def _load_cayley(path: str) -> Tuple[List[List[int]], Optional[List[str]]]:
    doc = _read_json(path)
    table = doc.get("table") if isinstance(doc, dict) else doc
    if not (type(table) is list and all(type(row) is list and all(type(x) is int for x in row)
                                        for row in table)):
        raise CliError(f"{path}: expected a Cayley table")
    names = doc.get("names") if isinstance(doc, dict) else None
    # basis names key the "character" and "grouplike" objects of a report
    if names is not None and not (type(names) is list and len(names) == len(table)
                                  and all(isinstance(n, str) for n in names)):
        raise CliError(f"{path}: names must be a list of {len(table)} strings")
    return table, names


def builtin_hopf(name: str, field: Field) -> HopfAlgebra:
    kind, _, rest = name.partition(":")
    try:
        if kind in ("group", "dualgroup"):
            if rest.startswith("Z"):
                table, names = cyclic_table(int(rest[1:])), None
            elif rest == "S3":
                table, names = symmetric_table(3)
            elif rest:
                table, names = _load_cayley(rest)
            else:
                raise CliError(f"builtin {name!r} needs a group (Z<n>, S3 or a file)")
            build = build_group_algebra if kind == "group" else build_dual_group_algebra
            return build(table, field, names=names)
        if kind == "sweedler":
            return build_sweedler(field)
        if kind == "taft":
            parts = rest.split(":")
            if len(parts) != 2:
                raise CliError("taft builtin is taft:<n>:<q>")
            return build_taft(int(parts[0]), field.of(parts[1]), field)
    except CliError:
        raise
    except (ValueError, IndexError) as e:
        raise CliError(f"cannot build builtin {name!r}: {e}")
    raise CliError(f"unknown builtin {name!r}")


def _scalar(field: Field, v) -> object:
    """A scalar of an input file, an int or a "p/q" string, in the field.  A
    float or a bool is refused: ``Field.of`` would truncate 1.5 to 1 over
    F_p, take 0.1 as its binary fraction over Q and ``true`` as 1."""
    if type(v) not in (int, str):
        raise CliError(f"bad scalar literal {v!r}: expected an int or a 'p/q' string")
    try:
        return field.of(v)
    except (ValueError, ZeroDivisionError, TypeError) as e:
        raise CliError(f"bad scalar literal {v!r}: {e}")


def _entries(doc: dict, key: str, bounds: Tuple[int, ...], field: Field):
    """The entries ``[i_1, ..., i_r, c]`` of ``doc[key]`` as tuples with ``c``
    parsed.  Each index must be an int in ``range(bound)``, and no index tuple
    may appear twice: a stray or repeated entry would otherwise be folded
    silently into a different coefficient."""
    seen = set()
    for entry in doc[key]:
        *idx, c = entry
        if len(idx) != len(bounds):
            raise ValueError(f"{key} entry {entry!r} needs {len(bounds)} indices")
        for i, bound in zip(idx, bounds):
            if type(i) is not int or not 0 <= i < bound:
                raise ValueError(f"{key} index {i!r} outside range({bound})")
        idx = tuple(idx)
        if idx in seen:
            raise ValueError(f"repeated {key} entry for {list(idx)}")
        seen.add(idx)
        yield idx + (_scalar(field, c),)


def _dim(doc: dict) -> int:
    dim = doc["dim"]
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dim {dim!r} must be a positive int")
    return dim


def load_hopf_file(path: str) -> HopfAlgebra:
    """Parse a Hopf algebra from sparse structure constants.

    Schema: {"field": "Q"|"F<p>", "dim": n, "basis": [...],
             "mul":      [[i, j, k, c], ...]   e_i e_j has coefficient c on e_k
             "unit":     [[i, c], ...],
             "comul":    [[i, j, k, c], ...]   Delta(e_i) has c on e_j (x) e_k
             "counit":   [[i, c], ...],
             "antipode": [[i, j, c], ...]}     S(e_i) has c on e_j
    Rationals are "p/q" strings; prime-field scalars plain integers.  Every
    index must lie in range(dim), and no coefficient may be given twice;
    "dim" is an int and "basis", when given, a list of exactly dim strings.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise CliError(f"{path}: top level must be an object")
    try:
        if not isinstance(doc["field"], str):
            raise TypeError(f"field {doc['field']!r} is not a string")
        f = parse_field(doc["field"])
        dim = _dim(doc)
        names = doc.get("basis", [f"e{i}" for i in range(dim)])
        if type(names) is not list or len(names) != dim or not all(
                isinstance(n, str) for n in names):
            raise ValueError(f"basis must be a list of {dim} strings")
        mul: Dict[Tuple[int, int], Vec] = {}
        for i, j, k, c in _entries(doc, "mul", (dim, dim, dim), f):
            mul.setdefault((i, j), {})[k] = c
        unit: Vec = {i: c for i, c in _entries(doc, "unit", (dim,), f)}
        comul: List[Vec] = [dict() for _ in range(dim)]
        for i, j, k, c in _entries(doc, "comul", (dim, dim, dim), f):
            comul[i][j * dim + k] = c
        counit = {i: c for i, c in _entries(doc, "counit", (dim,), f)}
        s: List[Vec] = [dict() for _ in range(dim)]
        for i, j, c in _entries(doc, "antipode", (dim, dim), f):
            s[i][j] = c
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise CliError(f"{path}: malformed Hopf spec ({e!r})")
    return HopfAlgebra(f, dim, names, mul, unit, comul, counit,
                       Matrix.from_columns(s, dim, f))


def resolve_hopf(args) -> HopfAlgebra:
    field = parse_field(getattr(args, "field", "Q") or "Q")
    if getattr(args, "builtin", None):
        return builtin_hopf(args.builtin, field)
    if getattr(args, "hopf", None):
        return load_hopf_file(args.hopf)
    raise CliError("need --builtin or --hopf")


def _checked_hopf(args) -> HopfAlgebra:
    """The input algebra, which must pass the Hopf axioms."""
    H = resolve_hopf(args)
    hrep = verify_axioms(H)
    if not hrep.passed:
        raise CliError(f"input fails Hopf axiom {hrep.failures()[0].name}")
    return H


def resolve_module(args, H: HopfAlgebra, name_attr: str = "module") -> ModComod:
    name = getattr(args, name_attr, None)
    if not name:
        raise CliError(f"need --{name_attr.replace('_', '-')}")
    if name == "trivial":
        return trivial_modcomod(H)
    if name == "regular":
        return regular_modcomod(H)
    if name == "coadjoint":
        X = coadjoint_comodule(H)
        X.action = {k: dict(v) for k, v in H.mul.items()}
        return X
    return load_module_file(name, H)


def load_module_file(path: str, H: HopfAlgebra) -> ModComod:
    """Sparse module-comodule file; either explicit tensors or the
    one-dimensional (delta, sigma) shorthand.

    Schema: {"dim": n,
             "action":   [[i, a, b, c], ...]   e_i . x_a has c on x_b
             "coaction": [[a, i, b, c], ...]   rho(x_a) has c on e_i (x) x_b
             "delta": [[i, c], ...], "sigma": [[i, c], ...]}
    Indices i range over the algebra's basis and a, b over the module's;
    every command needs both tensors, and no coefficient may be given twice.
    The action must be associative and unital (``check_module_axioms``):
    a module is checked on loading, as an algebra is against the Hopf
    axioms.
    """
    doc = _read_json(path)
    f = H.field
    try:
        if "delta" in doc or "sigma" in doc:
            delta = {i: c for i, c in _entries(doc, "delta", (H.dim,), f)}
            sigma = {i: c for i, c in _entries(doc, "sigma", (H.dim,), f)}
            X = one_dim_modcomod(H, delta, sigma, check=False)
        else:
            dim = _dim(doc)
            action = {(i, a): {} for i in range(H.dim) for a in range(dim)}
            for i, a, b, c in _entries(doc, "action", (H.dim, dim, dim), f):
                action[(i, a)][b] = c
            coaction = [dict() for _ in range(dim)]
            for a, i, b, c in _entries(doc, "coaction", (dim, H.dim, dim), f):
                coaction[a][i * dim + b] = c
            X = ModComod(H, dim, action, coaction, label=os.path.basename(path))
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise CliError(f"{path}: malformed module spec ({e!r})")
    rep = check_module_axioms(X)
    if not rep.passed:
        raise CliError(f"{path}: module action fails {rep.failures()[0].name}")
    return X


def _morphism(H: HopfAlgebra, name: str) -> BialgebraMorphism:
    if name == "id":
        return BialgebraMorphism.identity(H)
    if name in ("s", "antipode"):
        return BialgebraMorphism.antipode(H)
    if name in ("sinv", "antipode-inverse"):
        if H.antipode_inverse() is None:
            raise CliError("antipode is not invertible")
        return BialgebraMorphism.antipode_inverse(H)
    raise CliError(f"unknown morphism {name!r} (expected id, s or sinv)")


def build_cli_calculus(args, H: HopfAlgebra, max_degree: int) -> Calculus:
    kind = args.calculus
    try:
        if kind == "k":
            return Calculus.k(H, max_degree)
        if kind == "khat":
            return Calculus.khat(H, max_degree)
        if kind == "general":
            if getattr(args, "coalgebra", "regular") != "regular":
                raise CliError("only the regular bimodule coalgebra is supported here")
            C = BimoduleCoalgebra.from_hopf(H)
            alpha = _morphism(H, getattr(args, "alpha", "id") or "id")
            beta = _morphism(H, getattr(args, "beta", "s") or "s")
            return Calculus.general(C, alpha, beta, max_degree)
    except CliError:
        raise
    except ValueError as e:
        raise CliError(str(e))
    raise CliError(f"unknown calculus {kind!r}")


def _emit(command: List[str], body: dict, ok: bool, started: float) -> int:
    # every key of a body is a string, so timing_ms sorts in among them
    body = {"command": command, "status": "pass" if ok else "fail", **body,
            "timing_ms": int((time.time() - started) * 1000)}
    print(json.dumps(body, indent=2, sort_keys=True, default=str))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_hopf(args, started: float) -> int:
    H = resolve_hopf(args)
    rep = verify_axioms(H)
    return _emit(["verify-hopf"], {"checks": rep.to_json()}, rep.passed, started)


def cmd_verify_dga(args, started: float) -> int:
    H = _checked_hopf(args)
    max_degree = _max_degree_of(args)
    if max_degree < 2:
        raise CliError("verify-dga needs --max-degree >= 2 to see the DGA axioms")
    calc = build_cli_calculus(args, H, max_degree)
    rep = verify_dga(calc, max_degree)
    return _emit(["verify-dga", args.calculus], {"checks": rep.to_json()},
                 rep.passed, started)


def cmd_check_module(args, started: float) -> int:
    from .connections import check_connection, connection_from_coaction, curvature

    H = _checked_hopf(args)
    X = resolve_module(args, H)
    cond = args.condition
    checks = Report()
    if cond == "ayd":
        d = check_ayd(X)
        checks.add("ayd", d.passed, d.witness())
    elif cond == "yd":
        d = check_yd(X)
        checks.add("yd", d.passed, d.witness())
    elif cond == "stable":
        checks.add("stable", check_stable(X))
    elif cond == "equivariant":
        C = BimoduleCoalgebra.from_hopf(H)
        alpha = _morphism(H, args.alpha or "id")
        beta = _morphism(H, args.beta or "s")
        d = check_equivariant(X, C, alpha, beta)
        checks.add("equivariant", d.passed, d.witness())
    elif cond in ("connection", "flat"):
        max_degree = _max_degree_of(args)
        calc = build_cli_calculus(args, H, max_degree)
        conn = connection_from_coaction(calc, X)
        if cond == "connection":
            d = check_connection(conn)
            checks.add("connection", d.passed, d.witness())
        else:
            w = curvature(conn).witness()
            checks.add("flat", w is None, w)
    else:
        raise CliError(f"unknown condition {cond!r}")
    return _emit(["check-module", cond], {"checks": checks.to_json()},
                 checks.passed, started)


def cmd_homology(args, started: float) -> int:
    H = _checked_hopf(args)
    max_degree = _max_degree_of(args)
    calc = build_cli_calculus(args, H, max_degree)
    X = resolve_module(args, H) if args.module else None
    body: dict = {}
    ok = True
    if args.compare_cotor:
        rep, table = compare_cotor(calc, X, max_degree)
        body["checks"] = rep.to_json()
        ok = rep.passed
    else:
        # the calculus caches D_0..D_2 of a bare complex and D_0 of a
        # coefficient complex: with it dropped, the quotient complex is all
        # that holds its differentials, and it is handed over unnamed, so
        # that homology_dims lets each one go
        held = [quotient_complex(calc, X, max_degree)]
        del calc
        table = homology_dims(held.pop(), max_degree)
    body["homology"] = {f"H_{n}": d for n, d in table.entries}
    return _emit(["homology"], body, ok, started)


def cmd_tensor(args, started: float) -> int:
    from .connections import (check_connection, connection_from_coaction, is_flat,
                              tensor_connection)

    H = _checked_hopf(args)
    max_degree = _max_degree_of(args)
    try:
        ck = Calculus.k(H, max_degree)
    except ValueError as e:
        raise CliError(str(e))
    ckhat = Calculus.khat(H, max_degree)
    Xyd = resolve_module(args, H, "yd_module")
    Xayd = resolve_module(args, H, "ayd_module")
    try:
        conn = tensor_connection(connection_from_coaction(ckhat, Xyd),
                                 connection_from_coaction(ck, Xayd))
    except ValueError as e:
        raise CliError(str(e))
    rep = Report()
    d = check_connection(conn)
    rep.add("tensor_connection", d.passed, d.witness())
    rep.add("tensor_flat", is_flat(conn))
    d = check_ayd(conn.X, conn.calc)
    rep.add("tensor_ayd", d.passed, d.witness())
    body: dict = {"checks": rep.to_json(), "result_dim": conn.X.dim}
    if conn.X.dim == 1:
        f = H.field
        body["character"] = {H.basis[i]: f.to_str(v.get(0, f.zero()))
                             for (i, _), v in sorted(conn.X.action.items()) if v}
        body["grouplike"] = {H.basis[i]: f.to_str(c)
                             for i, c in sorted(conn.X.coaction[0].items())}
    return _emit(["tensor"], body, rep.passed, started)


# ---------------------------------------------------------------------------


def _add_hopf_args(p):
    p.add_argument("--builtin", help="group:Z<n>|group:S3|group:<file>, dualgroup:..., "
                                     "sweedler, taft:<n>:<q>")
    p.add_argument("--hopf", help="path to a Hopf spec JSON file")
    p.add_argument("--field", default="Q", help="Q or F<p> (built-ins only)")


def _add_calculus_args(p):
    p.add_argument("--calculus", default="k", choices=["k", "khat", "general"])
    p.add_argument("--max-degree", type=_max_degree)
    p.add_argument("--coalgebra", default="regular")
    p.add_argument("--alpha", default="id")
    p.add_argument("--beta", default="s")


# the subcommands, in the order the full parser lists them
SUBCOMMANDS = ("verify-hopf", "verify-dga", "check-module", "homology", "tensor")


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The command line parser.  With ``only``, one of ``SUBCOMMANDS``, it
    is the parser of that subcommand alone, ``hopfcalc <only>``, built as
    the full parser's ``add_parser`` builds it: it parses the words after
    the subcommand with the same help and errors, and no other
    subcommand's arguments are built.  Words it leaves over are reported
    by the full parser (``main``), whose error names the whole command.
    Each build reads the terminal width once, for every help formatter it
    makes; argparse would read it again for each of them."""
    fmt = functools.partial(argparse.HelpFormatter,
                            width=shutil.get_terminal_size().columns - 2)
    if only is None:
        ap = argparse.ArgumentParser(prog="hopfcalc", formatter_class=fmt,
                                     description="exact checks for differential calculi "
                                                 "over finite-dimensional Hopf algebras")
        sub = ap.add_subparsers(dest="cmd", required=True)
    wanted = SUBCOMMANDS if only is None else (only,)

    def subcommand(name: str, text: str) -> argparse.ArgumentParser:
        if only is None:
            return sub.add_parser(name, help=text, formatter_class=fmt)
        return argparse.ArgumentParser(prog=f"hopfcalc {name}", formatter_class=fmt)

    if "verify-hopf" in wanted:
        p = subcommand("verify-hopf", "verify the Hopf algebra axioms")
        _add_hopf_args(p)
        p.set_defaults(fn=cmd_verify_hopf)

    if "verify-dga" in wanted:
        p = subcommand("verify-dga", "verify d^2, Leibniz and associativity")
        _add_hopf_args(p)
        _add_calculus_args(p)
        p.set_defaults(fn=cmd_verify_dga)

    if "check-module" in wanted:
        p = subcommand("check-module", "compatibility conditions of a module")
        _add_hopf_args(p)
        p.add_argument("--module", required=True,
                       help="trivial|regular|coadjoint or a module spec file")
        p.add_argument("--condition", required=True,
                       choices=["ayd", "yd", "stable", "equivariant", "connection", "flat"])
        _add_calculus_args(p)
        p.set_defaults(fn=cmd_check_module)

    if "homology" in wanted:
        p = subcommand("homology", "homology dimensions, optionally vs the cobar oracle")
        _add_hopf_args(p)
        p.add_argument("--module", help="trivial|regular|coadjoint or a module spec file")
        _add_calculus_args(p)
        p.add_argument("--compare-cotor", action="store_true")
        p.set_defaults(fn=cmd_homology)

    if "tensor" in wanted:
        p = subcommand("tensor", "tensor a YD-flat with an AYD-flat connection")
        _add_hopf_args(p)
        p.add_argument("--yd-module", required=True)
        p.add_argument("--ayd-module", required=True)
        p.add_argument("--max-degree", type=_max_degree)
        p.set_defaults(fn=cmd_tensor)
    return ap if only is None else p


def main(argv: Optional[List[str]] = None) -> int:
    started = time.time()
    # a line that names its subcommand first is parsed by that subcommand's
    # parser alone; any other line (no arguments, -h, an unknown word, an
    # option first) by the full one, whose usage and errors list every
    # subcommand; words left over are reported by the full one as well
    words = sys.argv[1:] if argv is None else argv
    only = words[0] if words and words[0] in SUBCOMMANDS else None
    try:
        args, rest = build_parser(only).parse_known_args(words[1:] if only else words)
        if rest:
            build_parser().parse_args(words)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args, started)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:       # an internal invariant failed, not the input
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except Exception as e:          # malformed input must never crash the tool
        print(f"error: unexpected failure: {e!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
