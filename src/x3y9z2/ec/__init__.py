"""Elliptic curves over Q, number fields, finite fields and p-adic rings:
group law, plane-cubic-to-Weierstrass conversion at a flex, torsion over Q,
reduction maps and divisibility sieves."""

from .weierstrass import EcPoint, WeierstrassCurve
from .cubic import PlaneCubicWithFlex, flex_to_weierstrass
from .torsion import torsion_over_Q
from .reduction import BadPrime, curve_order_fq, non_divisibility_sieve

__all__ = [
    "EcPoint", "WeierstrassCurve",
    "PlaneCubicWithFlex", "flex_to_weierstrass",
    "torsion_over_Q",
    "BadPrime", "curve_order_fq", "non_divisibility_sieve",
]
