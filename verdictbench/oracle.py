"""Independent answers for the verdicts the benchmark runs.

Nothing here imports hopfcalc.  Every check reads the same sparse JSON
documents that the verdict reads (the relabeled structure-constant
tensors) and evaluates the defining equations directly, in exact
arithmetic over Q or F_p:

* the sandwich compatibility rho(h.x) = h_(1) x_(-1) c(h_(3)) (x) h_(2) x_(0)
  with c = S^-1 (anti-Yetter-Drinfeld) or c = S (Yetter-Drinfeld);
* coassociativity (Delta (x) id) rho = (id (x) rho) rho.

The paper's correspondences then fix the expected verdict of every
``check-module`` condition: a connection over K is Leibniz iff the module
is AYD, over Khat iff it is YD, and it is flat iff the coaction is
coassociative.  DGA reports are checked for their exact set of checks, and
homology tables against closed forms (see ``homology_closed_form``).
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Tuple


class Scalars:
    """Exact arithmetic for the field named in a Hopf document."""

    def __init__(self, desc: str):
        if desc == "Q":
            self.p = 0
        elif desc.startswith("F"):
            self.p = int(desc[1:])
        else:
            raise ValueError(f"unknown field {desc!r}")

    def of(self, v):
        v = Fraction(v)
        if not self.p:
            return v
        return v.numerator * pow(v.denominator, -1, self.p) % self.p

    def norm(self, v):
        return v % self.p if self.p else v

    def inv(self, v):
        return pow(v, -1, self.p) if self.p else 1 / Fraction(v)


Vec = Dict[int, object]


def _acc(sc: Scalars, dst: dict, key, val) -> None:
    v = sc.norm(dst.get(key, 0) + val)
    if v:
        dst[key] = v
    else:
        dst.pop(key, None)


class Algebra:
    """The structure tensors of one Hopf JSON document, as sparse dicts."""

    def __init__(self, doc: dict):
        sc = self.sc = Scalars(doc["field"])
        d = self.dim = doc["dim"]
        self.mul: Dict[Tuple[int, int], Vec] = {}
        for i, j, k, c in doc["mul"]:
            _acc(sc, self.mul.setdefault((i, j), {}), k, sc.of(c))
        self.comul: List[List[Tuple[int, int, object]]] = [[] for _ in range(d)]
        for i, j, k, c in doc["comul"]:
            self.comul[i].append((j, k, sc.of(c)))
        self.antipode: List[Vec] = [{} for _ in range(d)]
        for i, j, c in doc["antipode"]:
            _acc(sc, self.antipode[i], j, sc.of(c))
        self.antipode_inv = self._invert(self.antipode)
        self._delta2: Dict[int, List[Tuple[int, int, int, object]]] = {}

    def _invert(self, cols: List[Vec]) -> List[Vec]:
        """Columns of the inverse of the matrix whose i-th column is cols[i]."""
        sc, d = self.sc, self.dim
        a = [[cols[j].get(i, 0) for j in range(d)] + [int(i == k) for k in range(d)]
             for i in range(d)]
        for col in range(d):
            piv = next(r for r in range(col, d) if sc.norm(a[r][col]))
            a[col], a[piv] = a[piv], a[col]
            s = sc.inv(a[col][col])
            a[col] = [sc.norm(s * x) for x in a[col]]
            for r in range(d):
                if r != col and a[r][col]:
                    c = a[r][col]
                    a[r] = [sc.norm(x - c * y) for x, y in zip(a[r], a[col])]
        return [{i: a[i][d + j] for i in range(d) if a[i][d + j]} for j in range(d)]

    def times(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, ci in u.items():
            for j, cj in v.items():
                for k, ck in self.mul.get((i, j), {}).items():
                    _acc(self.sc, out, k, ci * cj * ck)
        return out

    def delta2(self, i: int) -> List[Tuple[int, int, int, object]]:
        """The legs h_(1) (x) h_(2) (x) h_(3) of e_i as (h1, h2, h3, coeff)."""
        legs = self._delta2.get(i)
        if legs is None:
            acc: dict = {}
            for j, k, c in self.comul[i]:
                for a, b, c2 in self.comul[j]:
                    _acc(self.sc, acc, (a, b, k), c * c2)
            legs = self._delta2[i] = [(a, b, k, c) for (a, b, k), c in acc.items()]
        return legs


class Module:
    """Action and coaction tensors of one module JSON document."""

    def __init__(self, doc: dict, H: Algebra):
        sc = H.sc
        self.H = H
        self.dim = doc["dim"]
        self.action: Dict[Tuple[int, int], Vec] = {}
        for i, a, b, c in doc["action"]:
            _acc(sc, self.action.setdefault((i, a), {}), b, sc.of(c))
        self.coaction: List[Dict[Tuple[int, int], object]] = [{} for _ in range(self.dim)]
        for a, i, b, c in doc["coaction"]:
            _acc(sc, self.coaction[a], (i, b), sc.of(c))

    def act(self, i: int, x: Vec) -> Vec:
        out: Vec = {}
        for a, ca in x.items():
            for b, cb in self.action.get((i, a), {}).items():
                _acc(self.H.sc, out, b, ca * cb)
        return out

    def sandwich_compatible(self, conj: List[Vec]) -> bool:
        """rho(h.x) == h_(1) x_(-1) conj(h_(3)) (x) h_(2) x_(0) on all basis pairs."""
        H, sc = self.H, self.H.sc
        for i in range(H.dim):
            legs = H.delta2(i)
            for a in range(self.dim):
                lhs: dict = {}
                for b, cb in self.action.get((i, a), {}).items():
                    for key, c in self.coaction[b].items():
                        _acc(sc, lhs, key, cb * c)
                rhs: dict = {}
                for h1, h2, h3, c in legs:
                    for (xm, x0), c2 in self.coaction[a].items():
                        left = H.times(H.times({h1: 1}, {xm: 1}), conj[h3])
                        right = self.act(h2, {x0: 1})
                        for k, ck in left.items():
                            for y, cy in right.items():
                                _acc(sc, rhs, (k, y), c * c2 * ck * cy)
                if lhs != rhs:
                    return False
        return True

    def ayd(self) -> bool:
        return self.sandwich_compatible(self.H.antipode_inv)

    def yd(self) -> bool:
        return self.sandwich_compatible(self.H.antipode)

    def coassociative(self) -> bool:
        H, sc = self.H, self.H.sc
        for a in range(self.dim):
            lhs: dict = {}
            rhs: dict = {}
            for (i, b), c in self.coaction[a].items():
                for j, k, c2 in H.comul[i]:
                    _acc(sc, lhs, (j, k, b), c * c2)
                for (k, y), c2 in self.coaction[b].items():
                    _acc(sc, rhs, (i, k, y), c * c2)
            if lhs != rhs:
                return False
        return True


def module_verdict(hopf_doc: dict, module_doc: dict, condition: str) -> bool:
    """Expected pass/fail of ``check-module`` for one condition.

    ``condition`` is ``ayd``, ``yd``, ``connection-k``, ``connection-khat``
    or ``flat``."""
    X = Module(module_doc, Algebra(hopf_doc))
    if condition in ("ayd", "connection-k"):
        return X.ayd()
    if condition in ("yd", "connection-khat"):
        return X.yd()
    if condition == "flat":
        return X.coassociative()
    raise ValueError(condition)


# ---------------------------------------------------------------------------
# report checks


def dga_report_error(checks: List[dict], D: int) -> Optional[str]:
    """Why a ``verify-dga --max-degree D`` report is wrong, or None.

    A DGA verdict must pass and hold exactly D + D(D+1)/2 + C(D+3,3) + 1
    checks: d^2 = 0 per degree, Leibniz per pair and associativity per
    triple of degrees, and the graded unit."""
    names = [f"d_squared_zero[{n}]" for n in range(D)]
    names += [f"leibniz[{n},{m}]" for n in range(D) for m in range(D - n)]
    names += [f"associativity[{n},{m},{l}]" for n in range(D + 1)
              for m in range(D + 1 - n) for l in range(D + 1 - n - m)]
    names.append("graded_unit")
    expected = D + D * (D + 1) // 2 + comb(D + 3, 3) + 1
    if len(checks) != expected:
        return f"{len(checks)} checks, expected {expected}"
    if sorted(c["name"] for c in checks) != sorted(names):
        return "check names differ from the DGA axioms at this degree"
    failed = [c["name"] for c in checks if c["status"] != "pass"]
    return f"checks failed: {failed}" if failed else None


def homology_closed_form(kind: str, coefficients: Optional[str], D: int,
                         group_order: int, char: int) -> Optional[List[int]]:
    """dim H_0 .. H_{D-1} where a closed form is known, else None.

    ``kind`` is ``group`` (k[G]), ``dualgroup`` (k^G), ``sweedler`` or
    ``taft``; ``coefficients`` is ``regular``, ``trivial``, ``coadjoint``
    or None for the bare calculus complex."""
    zeros = [0] * (D - 1)
    if coefficients == "regular":
        return [1] + zeros            # cofree comodules are injective
    if coefficients == "trivial":
        if kind == "group" or (kind == "dualgroup" and char == 0):
            return [1] + zeros
        if kind in ("sweedler", "taft"):
            return [1 - n % 2 for n in range(D)]
    if coefficients in (None, "coadjoint") and kind == "group":
        return [group_order] + zeros
    return None
