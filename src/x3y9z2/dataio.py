"""Loading and shape-checking of the trusted data files.

Three files ship with the package: the descent-class generators, the
Mordell-Weil generators of the six quartic-field curves, and the printed
tables/claims that the pipeline re-verifies.  Content hashes are quoted
in reports so the trusted/verified boundary stays auditable.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .arith.numberfield import EtaleAlgebra, FieldIso, NfElem, NumberField
from .arith.poly import UPoly
from .descent import SelmerSetSpec
from .ec.weierstrass import WeierstrassCurve


_DATA_DIR_OVERRIDE = None
_SELMER, _MW = "selmer_generators.json", "mw_generators.json"


class TrustedDataError(ValueError):
    """A trusted data file is missing, unreadable or not JSON, does not
    have its shape, or disagrees with what the package builds itself."""


def set_data_dir(path):
    """Point the loaders at an alternative data directory (CLI --data-dir)."""
    global _DATA_DIR_OVERRIDE
    _DATA_DIR_OVERRIDE = path
    for loader in (load_descent_data, load_mw_data, load_tables):
        loader.cache_clear()


def _data_text(name: str) -> str:
    path = (Path(_DATA_DIR_OVERRIDE) if _DATA_DIR_OVERRIDE
            else resources.files("x3y9z2.data")).joinpath(name)
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise TrustedDataError(f"cannot read {path}: {type(exc).__name__}") from None


def _fraction(s):
    """s as a Fraction, or None unless s is a string that parses as one."""
    try:
        return Fraction(s) if isinstance(s, str) else None
    except (ValueError, ZeroDivisionError):
        return None


# The shape of each trusted file: every entry that a reader indexes.
# {key: shape} is an object with at least those keys, [shape] a list of
# items of that shape and [shape] * n a list of exactly n, a set one of
# its values, a tuple all of its shapes, a type a leaf of exactly that
# type (true is no int), and a predicate one for which it holds: _RAT a
# Fraction string, _NONZERO a nonzero one, and _ST one of those or "oo".
_RAT = lambda s: _fraction(s) is not None
_NONZERO = lambda s: bool(_fraction(s))
_ST = lambda s: s == "oo" or _RAT(s)
_VEC = [_RAT] * 4
_DELTA = (_VEC, lambda v: any(map(_fraction, v)))   # not all zero
_EQ = {"S": [{2, 3}], "C": _NONZERO, "defining": [_RAT] * 5}
_FAMILY_ROW = {"s": int, "t": int, "x": int, "v": int, "z": int, "printed": str}
_SHAPES = {
    _SELMER: {"schema": {1}, "eq5": {**_EQ, "generators": [_VEC]},
              "K": {"minpoly": [_RAT] * 5, "generators": [_VEC]},
              "eq1": {**_EQ, "theta_in_alpha": _VEC}, "eq2": {**_EQ, "theta_in_alpha": _VEC}},
    _MW: {"schema": {1},
          "curves": [{"i": set(range(1, 7)), "c": _VEC, "points": [{"x": _VEC, "y": _VEC}]}]},
    "paper_tables.json": {
        "schema": {1},
        "rank_table": {"rows": [{"delta": _DELTA, "c1": _NONZERO, "c2": _NONZERO,
                                 "rk1": int, "rk2": int}]},
        "quotient_claims": {
            "E1_printed_rhs": str, "E1_base_point_printed": [_RAT] * 3,
            "E2_base_point_printed": [_RAT] * 3,
            "torsion": [{"curve": {"E1", "E2"}, "c": _NONZERO, "structure": str,
                         "points_printed": [[_RAT] * 3]}]},
        "quartic_field_table": {
            eq: {"rows": [{"delta": _DELTA, "st_p0": _ST, "i": set(range(1, 7))}]}
            for eq in ("eq1", "eq2")},
        "value_sets": {"eq5": [_ST], "eq6": [_ST], "eq1": [_ST], "eq2": [_ST],
                       "eq2_printed": str},
        "chabauty_claims": {
            "flex_point": {"delta": _VEC, "eq": {1, 2}, "point_ust": [_VEC] * 3},
            "psi_formula": {"a": _VEC, "b": _VEC, "d": _VEC}},
        "final_assembly": {"family3_rows": [_FAMILY_ROW], "family1_rows": [_FAMILY_ROW],
                           "theorem1_printed": [[int] * 3]}},
}


def _check_shape(name, node, shape, at):
    """TrustedDataError naming the entry (at) of the file name that does
    not have its shape."""
    if isinstance(shape, tuple):
        for part in shape:
            _check_shape(name, node, part, at)
    elif isinstance(shape, dict) and isinstance(node, dict):
        for key, inner in shape.items():
            if key not in node:
                raise TrustedDataError(f"{name} has a malformed entry: {at} has no key {key!r}")
            _check_shape(name, node[key], inner, f"{at}.{key}")
    elif isinstance(shape, list) and isinstance(node, list) and len(shape) in (1, len(node)):
        for i, item in enumerate(node):
            _check_shape(name, item, shape[0], f"{at}[{i}]")
    elif not (node in shape if isinstance(shape, set) and type(node) in (int, str)
              else type(node) is shape if isinstance(shape, type)
              else callable(shape) and shape(node)):
        raise TrustedDataError(f"{name} has a malformed entry: {at} is {node!r}")


def _built(make, name, at, *args):
    """make(*args), whose refusal (a ValueError) is a TrustedDataError
    naming the entry (at) of the file name that it was made from."""
    try:
        return make(*args)
    except ValueError as exc:
        raise TrustedDataError(f"{name} has a malformed entry: {at} is refused: {exc}") from None


def _data_json(name: str):
    try:
        data = json.loads(_data_text(name))
    except json.JSONDecodeError as exc:
        raise TrustedDataError(f"{name} is not JSON: {exc}") from None
    _check_shape(name, data, _SHAPES[name], "the file")
    return data


def data_hashes() -> dict:
    return {name: hashlib.sha256(_data_text(name).encode()).hexdigest() for name in _SHAPES}


def _upoly(strs) -> UPoly:
    return UPoly([Fraction(c) for c in strs])


@lru_cache(maxsize=1)
def quartic_field() -> NumberField:
    """K = Q[alpha]/(alpha^4 - 2 alpha^3 - 2 alpha + 1)."""
    return NumberField(UPoly([1, -2, 0, -2, 1]), "alpha")


def nf(coords, field=None) -> NfElem:
    return (field or quartic_field())([Fraction(c) for c in coords])


class DescentData:
    """Parsed selmer_generators.json: per-equation algebras and specs."""

    def __init__(self, raw):
        self.K = K = quartic_field()
        kd = raw["K"]
        if _upoly(kd["minpoly"]) != K.minpoly:
            raise TrustedDataError("trusted minimal polynomial of K differs from the built-in one")
        self.k_generators = [nf(c, K) for c in kd["generators"]]

        self.specs, self.theta, self.iso = {}, {}, {}
        for eq in (5, 1, 2):
            ed = raw[f"eq{eq}"]
            alg = _built(EtaleAlgebra, _SELMER, f"the file.eq{eq}.defining",
                         _upoly(ed["defining"]), "theta")
            if eq == 5:
                if (n := sum(F.degree == 1 for F in alg.components)) < 2:
                    raise TrustedDataError(f"{_SELMER} has a malformed entry: the file.eq5"
                                           f".defining has {n} rational roots, fewer than 2")
                gens = [alg([Fraction(c) for c in g]).scale_to_integral()
                        for g in ed["generators"]]
            elif alg.n_components != 1:
                raise TrustedDataError(f"eq{eq}: quartic-field equations have irreducible algebras")
            else:
                self.theta[eq] = nf(ed["theta_in_alpha"], K)
                self.iso[eq] = _built(FieldIso, _SELMER, f"the file.eq{eq}.theta_in_alpha",
                                      alg.components[0], K, self.theta[eq])
                gens = [alg(list(self.iso[eq].inverse_apply(g).coords)).scale_to_integral()
                        for g in self.k_generators]
            self.specs[eq] = SelmerSetSpec(algebra=alg, S=tuple(ed["S"]), generators=gens,
                                           leading_coeff=Fraction(ed["C"]))
        # verify.quotient_torsion's results by (label, c), and the torsion
        # of their integral models by (a, b): they depend on the eq-5
        # algebra and constant, so they live as long as this data.
        self.quotient_torsion = {}
        self.model_torsion = {}

    def verify(self):
        return [f"eq{eq}: {p}" for eq, spec in self.specs.items() for p in spec.verify()]


@lru_cache(maxsize=1)
def load_descent_data() -> DescentData:
    return DescentData(_data_json(_SELMER))


class MwData:
    """Parsed mw_generators.json: the curves E_i: y^2 = x^3 + c over K,
    each of i = 1..6 once (TrustedDataError otherwise), with their trusted
    independent points."""

    def __init__(self, raw):
        self.K = K = quartic_field()
        ids = [entry["i"] for entry in raw["curves"]]
        if wrong := [f"curve {i} {ids.count(i)} times" for i in range(1, 7) if ids.count(i) != 1]:
            raise TrustedDataError(f"{_MW} must hold each curve 1-6 once, not {', '.join(wrong)}")
        self.curves = {}
        for k, entry in enumerate(raw["curves"]):
            c = nf(entry["c"], K)
            E = _built(WeierstrassCurve, _MW, f"the file.curves[{k}].c", K.zero(), c)
            pts = [(nf(pt["x"], K), nf(pt["y"], K)) for pt in entry["points"]]
            self.curves[entry["i"]] = (E, pts)

    def curve(self, i):
        return self.curves[i][0]

    def points(self, i):
        E, pts = self.curves[i]
        return [E.point(x, y) for x, y in pts]

    def on_curve_report(self):
        return [(f"E{i} point {j + 1} on curve", not (y * y - x * x * x - E.b))
                for i, (E, pts) in sorted(self.curves.items()) for j, (x, y) in enumerate(pts)]


@lru_cache(maxsize=1)
def load_mw_data() -> MwData:
    return MwData(_data_json(_MW))


@lru_cache(maxsize=1)
def load_tables() -> dict:
    return _data_json("paper_tables.json")
