"""Fenchel-Nielsen twists along handle curves and the length/twist duality.

Twisting along a handle generator rewrites only its partner generator
(b1 -> b1 exp(t hat(b)) for the a1 twist, b the axis vector of a1, and
symmetrically), which preserves the relator exactly because exp(t hat(b))
commutes with the twist curve's image.  The infinitesimal earthquake cocycle
is closed form: alpha(partner) = weight sigma(partner) b, zero on the other
generators.  The duality d(length) = 1/2 dw(d xi) is checked with both sides
computed independently (central finite differences on the exact twist
family vs the measure-cocycle pairing).

Positive twist translates in the +b direction fixed by axis_generator; only
relative signs are asserted anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import Cocycle
from .fuchsian import GENERATOR_NAMES, SurfaceGroupRep, axis_generator, translation_length
from .lamination import WeightedMulticurve, length, pair, standard_measure
from .lorentz import exp_axis

# curve -> the generator rewritten by its twist
TWIST_PARTNER = {"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2"}

REL_ERR_FLOOR = 1e-12


@dataclass
class TwistSpec:
    """A signed twist distance along one of the four handle curves."""

    curve: str
    amount: float

    def __post_init__(self):
        if self.curve not in TWIST_PARTNER:
            raise ValueError(f"unsupported twist curve {self.curve!r}")


def twist(rep: SurfaceGroupRep, spec: TwistSpec) -> SurfaceGroupRep:
    """Fenchel-Nielsen deformation of rep along a handle curve: twist(rep, TwistSpec("a1", t))."""
    # extended precision keeps the exactly-preserved relator at its residual:
    # the even codes of the letter table are the longdouble generators
    b = axis_generator(rep.generator_ld(spec.curve))
    partner = TWIST_PARTNER[spec.curve]
    gens = rep.letter_table[0::2].copy()
    idx = GENERATOR_NAMES.index(partner)
    gens[idx] = gens[idx] @ exp_axis(b, spec.amount)
    return SurfaceGroupRep(gens, label=f"{rep.label}+twist({spec.curve},{spec.amount:g})")


def earthquake_cocycle(rep: SurfaceGroupRep, curve: str, weight: float) -> Cocycle:
    """Closed-form infinitesimal earthquake at rep along a weighted curve.

    alpha(partner) = weight * sigma(partner) b, b the curve's axis vector,
    other values zero; exactly tangent to the relator (the twist family
    preserves it exactly).
    """
    if curve not in TWIST_PARTNER:
        raise ValueError(f"unsupported twist curve {curve!r}")
    partner = TWIST_PARTNER[curve]
    vals = np.zeros((4, 3), dtype=np.longdouble)
    b = axis_generator(rep.generator_ld(curve))
    vals[GENERATOR_NAMES.index(partner)] = np.longdouble(weight) * (rep.generator_ld(partner) @ b)
    return Cocycle(rep, vals)


def length_derivative(mc: WeightedMulticurve, xi: Cocycle) -> float:
    """d(length_mc)_sigma([xi]) = 1/2 dw(d xi) for the standard measure of mc over its rep."""
    return 0.5 * pair(standard_measure(mc), xi)


def _twist_derivative(rep: SurfaceGroupRep, curve: str, weight: float, step: float, f) -> float:
    """Central difference in t of f(twist(rep, TwistSpec(curve, weight * t))) at t = 0."""
    fp, fm = (f(twist(rep, TwistSpec(curve, weight * t))) for t in (step, -step))
    return (fp - fm) / (2.0 * step)


def _rel_err(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale < REL_ERR_FLOOR:
        return abs(lhs - rhs)
    return abs(lhs - rhs) / scale


@dataclass
class DualityReport:
    lhs: float
    rhs: float
    rel_err: float
    config: dict

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "rel_err": self.rel_err, "config": self.config}


def duality_check(
    rep: SurfaceGroupRep,
    mc: WeightedMulticurve,
    curve: str,
    weight: float,
    step: float,
) -> DualityReport:
    """d(length)/dt vs 1/2 dw(d xi) for the twist along `curve`.

    lhs: central finite difference of length(mc, twist(rep, curve, weight*t)).
    rhs: length_derivative with the closed-form earthquake cocycle.
    """
    lhs = _twist_derivative(rep, curve, weight, step, lambda r: length(mc, r))
    rhs = length_derivative(mc, earthquake_cocycle(rep, curve, weight))
    return DualityReport(
        lhs=lhs,
        rhs=rhs,
        rel_err=_rel_err(lhs, rhs),
        config={"curve": curve, "weight": weight, "step": step, "mc": mc.to_json()},
    )


def wolpert_reciprocity(rep: SurfaceGroupRep, curve1: str, curve2: str, step: float) -> DualityReport:
    """FD check that twist derivatives of lengths are symmetric in the curves."""
    lhs = _twist_derivative(rep, curve2, 1.0, step, lambda r: translation_length(r.generator(curve1)))
    rhs = _twist_derivative(rep, curve1, 1.0, step, lambda r: translation_length(r.generator(curve2)))
    return DualityReport(
        lhs=lhs,
        rhs=rhs,
        rel_err=_rel_err(lhs, rhs),
        config={"curve1": curve1, "curve2": curve2, "step": step},
    )
