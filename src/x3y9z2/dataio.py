"""Loading and schema-validation of the trusted data files.

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


class TrustedDataError(ValueError):
    """A trusted data file is missing, unreadable or not JSON, or disagrees
    with what the package builds itself."""


def set_data_dir(path):
    """Point the loaders at an alternative data directory (CLI --data-dir)."""
    global _DATA_DIR_OVERRIDE
    _DATA_DIR_OVERRIDE = path
    load_descent_data.cache_clear()
    load_mw_data.cache_clear()
    load_tables.cache_clear()


def _data_text(name: str) -> str:
    path = (Path(_DATA_DIR_OVERRIDE) if _DATA_DIR_OVERRIDE
            else resources.files("x3y9z2.data")).joinpath(name)
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise TrustedDataError(f"cannot read {path}: {type(exc).__name__}") from None


def _data_json(name: str):
    try:
        return json.loads(_data_text(name))
    except json.JSONDecodeError as exc:
        raise TrustedDataError(f"{name} is not JSON: {exc}") from None


def data_hashes() -> dict:
    out = {}
    for name in ("selmer_generators.json", "mw_generators.json", "paper_tables.json"):
        out[name] = hashlib.sha256(_data_text(name).encode()).hexdigest()
    return out


def _upoly(strs) -> UPoly:
    return UPoly([Fraction(c) for c in strs])


@lru_cache(maxsize=1)
def quartic_field() -> NumberField:
    """K = Q[alpha]/(alpha^4 - 2 alpha^3 - 2 alpha + 1)."""
    return NumberField(UPoly([1, -2, 0, -2, 1]), "alpha")


def nf(coords, field=None) -> NfElem:
    field = field or quartic_field()
    return field([Fraction(c) for c in coords])


class DescentData:
    """Parsed selmer_generators.json: per-equation algebras and specs."""

    def __init__(self, raw):
        K = quartic_field()
        self.K = K
        kd = raw["K"]
        if _upoly(kd["minpoly"]) != K.minpoly:
            raise TrustedDataError("trusted minimal polynomial of K differs from the built-in one")
        self.k_generators = [nf(c, K) for c in kd["generators"]]

        e5 = raw["eq5"]
        alg5 = EtaleAlgebra(_upoly(e5["defining"]), "theta")
        gens5 = [alg5([Fraction(c) for c in g]).scale_to_integral() for g in e5["generators"]]
        self.specs = {5: SelmerSetSpec(algebra=alg5, S=tuple(e5["S"]), generators=gens5,
                                       leading_coeff=Fraction(e5["C"]))}
        self.theta = {}
        self.iso = {}
        for eq in (1, 2):
            ed = raw[f"eq{eq}"]
            alg = EtaleAlgebra(_upoly(ed["defining"]), "theta")
            if alg.n_components != 1:
                raise TrustedDataError(f"eq{eq}: quartic-field equations have irreducible algebras")
            afield = alg.components[0]
            theta_in_alpha = nf(ed["theta_in_alpha"], K)
            iso = FieldIso(afield, K, theta_in_alpha)
            gens = []
            for g in self.k_generators:
                coords = iso.inverse_apply(g).coords
                gens.append(alg(list(coords)).scale_to_integral())
            self.specs[eq] = SelmerSetSpec(algebra=alg, S=tuple(ed["S"]), generators=gens,
                                           leading_coeff=Fraction(ed["C"]))
            self.theta[eq] = theta_in_alpha
            self.iso[eq] = iso
        # verify.quotient_torsion's results by (label, c), and the torsion
        # of their integral models by (a, b): they depend on the eq-5
        # algebra and constant, so they live as long as this data.
        self.quotient_torsion = {}
        self.model_torsion = {}

    def verify(self):
        problems = []
        for eq, spec in self.specs.items():
            problems += [f"eq{eq}: {p}" for p in spec.verify()]
        return problems


@lru_cache(maxsize=1)
def load_descent_data() -> DescentData:
    return DescentData(_data_json("selmer_generators.json"))


class MwData:
    """Parsed mw_generators.json: the curves E_i: y^2 = x^3 + c over K
    with their trusted independent points."""

    def __init__(self, raw):
        K = quartic_field()
        self.K = K
        self.curves = {}
        for entry in raw["curves"]:
            c = nf(entry["c"], K)
            E = WeierstrassCurve(K.zero(), c)
            pts = [(nf(pt["x"], K), nf(pt["y"], K)) for pt in entry["points"]]
            self.curves[entry["i"]] = (E, pts)

    def curve(self, i):
        return self.curves[i][0]

    def points(self, i):
        E, pts = self.curves[i]
        return [E.point(x, y) for x, y in pts]

    def on_curve_report(self):
        out = []
        for i, (E, pts) in sorted(self.curves.items()):
            for j, (x, y) in enumerate(pts):
                lhs = y * y
                rhs = x * x * x + E.b
                out.append((f"E{i} point {j + 1} on curve", not (lhs - rhs)))
        return out


@lru_cache(maxsize=1)
def load_mw_data() -> MwData:
    return MwData(_data_json("mw_generators.json"))


@lru_cache(maxsize=1)
def load_tables() -> dict:
    return _data_json("paper_tables.json")
