"""Span recorder for the traced runs.

``install`` wraps hopfcalc's public entry points, from outside the package:
each call records one span (name, start, end, parent span, verdict id, and
the shape and nnz of a returned Matrix).  For ``Calculus.product`` and
``Calculus.differential`` the wrapped functions are the builders behind
their caches, ``_build_product`` and ``_build_differential``: a cached
look-up costs nothing to time, and ``product_apply`` makes many of them.

``layer_metrics`` sums the spans of a run into the per-layer metrics: self
time (a span's duration minus its children's) in ms, and counts that
repeat exactly from run to run.  ``fields`` and ``reports`` are not
wrapped: their calls are too fine-grained, so their cost shows in their
callers' self time.
"""
from __future__ import annotations

import functools
import sys
import time
from typing import Dict, List

# (span name, module[:class] holding the entry point, attribute name)
ENTRY_POINTS = [
    ("cli.main", "hopfcalc.cli", "main"),
    ("cli.build_parser", "hopfcalc.cli", "build_parser"),
    ("cli.load_hopf_file", "hopfcalc.cli", "load_hopf_file"),
    ("cli.load_module_file", "hopfcalc.cli", "load_module_file"),
    ("hopf.verify_axioms", "hopfcalc.hopf", "verify_axioms"),
    ("calculus.product", "hopfcalc.calculus:Calculus", "_build_product"),
    ("calculus.differential", "hopfcalc.calculus:Calculus", "_build_differential"),
    ("calculus.verify_dga", "hopfcalc.calculus", "verify_dga"),
    ("linalg.identity_defect", "hopfcalc.linalg", "identity_defect_witness"),
    ("linalg.matmul", "hopfcalc.linalg:Matrix", "__matmul__"),
    ("linalg.rank", "hopfcalc.linalg:Matrix", "rank"),
    ("modules.compat", "hopfcalc.modules", "check_ayd"),
    ("modules.compat", "hopfcalc.modules", "check_yd"),
    ("modules.compat", "hopfcalc.modules", "check_equivariant"),
    ("modules.coassoc", "hopfcalc.modules", "coassociativity_defects"),
    ("connections.check_connection", "hopfcalc.connections", "check_connection"),
    ("connections.curvature", "hopfcalc.connections", "curvature"),
    ("connections.tensor", "hopfcalc.connections", "tensor_connection"),
    ("connections.coefficient_complex", "hopfcalc.connections", "coefficient_complex"),
    ("homology.cobar_complex", "hopfcalc.homology", "cobar_complex"),
    ("homology.chain_complex", "hopfcalc.homology:ChainComplex", "__post_init__"),
    ("homology.homology_dims", "hopfcalc.homology", "homology_dims"),
    ("homology.compare_cotor", "hopfcalc.homology", "compare_cotor"),
]

# per-layer metric -> (unit, span names, what is summed)
LAYER_METRICS = {
    "cli.parser_ms": ("ms", ["cli.build_parser"], "self"),
    "cli.load_ms": ("ms", ["cli.load_hopf_file", "cli.load_module_file"], "self"),
    "cli.self_ms": ("ms", ["cli.main"], "self"),
    "hopf.verify_axioms_ms": ("ms", ["hopf.verify_axioms"], "self"),
    "calculus.product_ms": ("ms", ["calculus.product"], "self"),
    "calculus.product_nnz": ("count", ["calculus.product"], "nnz"),
    "calculus.differential_ms": ("ms", ["calculus.differential"], "self"),
    "calculus.differential_nnz": ("count", ["calculus.differential"], "nnz"),
    "calculus.verify_dga_self_ms": ("ms", ["calculus.verify_dga"], "self"),
    "linalg.identity_defect_ms": ("ms", ["linalg.identity_defect"], "self"),
    "linalg.matmul_ms": ("ms", ["linalg.matmul"], "self"),
    "linalg.matmul_calls": ("count", ["linalg.matmul"], "calls"),
    "linalg.rank_ms": ("ms", ["linalg.rank"], "self"),
    "linalg.rank_cols": ("count", ["linalg.rank"], "cols"),
    "modules.compat_ms": ("ms", ["modules.compat"], "self"),
    "modules.coassoc_ms": ("ms", ["modules.coassoc"], "self"),
    "connections.check_connection_ms": ("ms", ["connections.check_connection"], "self"),
    "connections.curvature_ms": ("ms", ["connections.curvature"], "self"),
    "connections.tensor_ms": ("ms", ["connections.tensor"], "self"),
    "connections.coefficient_complex_ms": ("ms", ["connections.coefficient_complex"], "self"),
    "homology.cobar_complex_ms": ("ms", ["homology.cobar_complex"], "self"),
    "homology.chain_complex_ms": ("ms", ["homology.chain_complex"], "self"),
    "homology.homology_dims_ms": ("ms", ["homology.homology_dims"], "self"),
    "homology.compare_cotor_self_ms": ("ms", ["homology.compare_cotor"], "self"),
}

# span fields, in the order a span list holds them
NAME, START, END, PARENT, VERDICT, ROWS, COLS, NNZ = range(8)


class Recorder:
    """Spans of one run, kept in memory as lists (see the field indices)."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.verdict = -1

    def call(self, name, fn, args, kwargs):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.verdict,
                None, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self.stack.pop()
        data = getattr(out, "data", None)
        if isinstance(data, dict) and hasattr(out, "rows"):
            span[ROWS], span[COLS], span[NNZ] = out.rows, out.cols, len(data)
        elif name == "linalg.rank":
            span[COLS] = args[0].cols
        return out


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every entry point in ENTRY_POINTS, rebinding each function in
    every hopfcalc module that imported it."""
    import hopfcalc  # noqa: F401  (loads every submodule)

    modules = [m for k, m in sys.modules.items()
               if k == "hopfcalc" or k.startswith("hopfcalc.")]
    for name, owner, attr in ENTRY_POINTS:
        modname, _, cls = owner.partition(":")
        holder = getattr(sys.modules[modname], cls) if cls else sys.modules[modname]
        orig = getattr(holder, attr)
        wrapped = _wrap(rec, name, orig)
        if cls:
            setattr(holder, attr, wrapped)
            continue
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)


def layer_metrics(spans: List[list], scale: List[float]) -> Dict[str, float]:
    """Sum a run's spans into LAYER_METRICS (self ms, nnz, calls, cols),
    each self time multiplied by its verdict's ``scale``."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    by_name: Dict[str, Dict[str, float]] = {}
    for k, s in enumerate(spans):
        agg = by_name.setdefault(s[NAME], {"self": 0.0, "nnz": 0, "calls": 0, "cols": 0})
        agg["self"] += (s[END] - s[START] - child[k]) * 1000 * scale[s[VERDICT]]
        agg["nnz"] += s[NNZ] or 0
        agg["calls"] += 1
        agg["cols"] += s[COLS] or 0
    out = {}
    for metric, (_, names, what) in LAYER_METRICS.items():
        out[metric] = sum(by_name.get(n, {}).get(what, 0) for n in names)
    return out
