"""JSON wire formats for points, observables, and potentials.

Everything is digit-exact: scalars are (valuation, digits) pairs, balls add
a radius exponent, coefficients are [re, im] pairs or bare reals.  These
documents are the CLI's input schema and are also convenient in tests.
"""

from __future__ import annotations

from typing import Any

from .adelic import AdelicPoint
from .errors import ConfigError
from .padic import Ball, PAdicScalar
from .schwartz import SBFunction, SimpleAdelicSB, SimplePotential


def scalar_from_json(p: int, doc: dict[str, Any]) -> PAdicScalar:
    digits = doc.get("digits", [])
    if doc.get("zero") or not digits:
        return PAdicScalar.zero(p)
    return PAdicScalar.from_digits(p, int(doc.get("valuation", 0)), digits)


def _coeff_from_json(c) -> complex:
    if isinstance(c, (int, float)):
        return complex(c)
    if isinstance(c, (list, tuple)) and len(c) == 2:
        return complex(c[0], c[1])
    raise ConfigError(f"cannot parse coefficient {c!r}")


def sb_from_json(doc: dict[str, Any]) -> SBFunction:
    p = int(doc["prime"])
    terms = []
    for term in doc.get("terms", []):
        center = scalar_from_json(p, term)
        ball = Ball(center, int(term["radius_exp"]))
        terms.append((ball, _coeff_from_json(term.get("coeff", 1.0))))
    return SBFunction(p, tuple(terms))


def observable_from_json(doc: dict[str, Any]) -> SimpleAdelicSB:
    factors = {}
    for fdoc in doc.get("factors", []):
        f = sb_from_json(fdoc)
        factors[f.prime] = f
    return SimpleAdelicSB.of(factors)


def potential_from_json(doc: dict[str, Any]) -> SimplePotential:
    comps = {}
    for cdoc in doc.get("components", []):
        f = sb_from_json(cdoc)
        comps[f.prime] = (float(cdoc.get("tau", 1.0)), f)
    return SimplePotential.of(comps)


def point_from_json(doc: dict[str, Any]) -> AdelicPoint:
    comps = {}
    for cdoc in doc.get("components", []):
        p = int(cdoc["prime"])
        comps[p] = scalar_from_json(p, cdoc)
    return AdelicPoint.of(comps)
