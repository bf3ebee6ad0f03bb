"""Weighted multicurves as measured laminations and their Lie-valued measures.

A weighted multicurve {(gamma_i, b_i)} with b_i > 0 induces the standard
Lie-algebra-valued transverse measure dw = sum_i b_i B_i delta_i, where B_i is
the geodesic-flow generator of sigma(gamma_i), stored as its unit spacelike
axis vector ((B_i, B_i)# = 1, so its Killing norm 2 (B_i, B_i)# is 2).  Mass
uses the sqrt2 operator-norm convention (admissible test forms have largest
singular value <= sqrt2), under which mass(dw) = 2 * length.

Each atom's B_i is axis_generator of its curve's image, which is unit and
Ad-invariant by construction; the tests' oracles check both properties.
Simplicity and disjointness of the curve words are NOT verified: the intended
inputs are the curated handle curves and short simple words, and the formulas
are evaluated on whatever data the caller supplies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import Cocycle, check_same_rep, evaluate_cocycle
from .fuchsian import SurfaceGroupRep, as_word, axis_generator, translation_length
from .lorentz import mink_dot


@dataclass
class WeightedMulticurve:
    """(word, weight) pairs over a base rep; weights strictly positive."""

    rep: SurfaceGroupRep
    items: list  # [(Word, float), ...]

    def __post_init__(self):
        items = []
        for word, weight in self.items:
            w = as_word(word)
            if not weight > 0:
                raise ValueError(f"weight of {w} must be strictly positive")
            translation_length(self.rep.evaluate(w))  # raises if not hyperbolic
            items.append((w, float(weight)))
        # reject literally repeated curves (same free-homotopy class up to
        # rotation/inversion); equal traces alone are allowed, distinct curves
        # may share a length
        for i, (wi, _) in enumerate(items):
            variants = set(wi.cyclically_reduced().cyclic_variants())
            for wj, _ in items[i + 1:]:
                if wj.cyclically_reduced().letters in variants:
                    raise ValueError(f"curves {wi} and {wj} are conjugate")
        self.items = items

    @classmethod
    def from_json(cls, rep: SurfaceGroupRep, data: list) -> "WeightedMulticurve":
        return cls(rep, [(d["word"], d["weight"]) for d in data])

    def to_json(self) -> list:
        return [{"word": str(w), "weight": b} for w, b in self.items]


@dataclass
class MeasureAtom:
    word: object
    weight: float
    length: float
    generator: np.ndarray  # (3,) unit spacelike axis vector B_i


@dataclass
class LieValuedMeasure:
    """Atoms (B_i, b_i, l_i) of dw = sum b_i B_i delta_i over a base rep."""

    rep: SurfaceGroupRep
    atoms: list


def standard_measure(mc: WeightedMulticurve) -> LieValuedMeasure:
    """One atom per curve: B_i = axis vector, l_i = translation length."""
    atoms = []
    for w, b in mc.items:
        g = mc.rep.evaluate(w)
        atoms.append(
            MeasureAtom(
                word=w,
                weight=b,
                length=translation_length(g),
                generator=axis_generator(g),
            )
        )
    return LieValuedMeasure(mc.rep, atoms)


def mass(m: LieValuedMeasure) -> float:
    """Total variation 2 sum b_i l_i: mass equals twice the length."""
    return 2.0 * sum(at.weight * at.length for at in m.atoms)


def mass_by_duality(m: LieValuedMeasure) -> float:
    """dw(phi) at the admissible test form that attains the sup: phi = B_i.

    Admissible forms have largest singular value <= sqrt2, which the
    killing-normalized B_i has along gamma_i (the proof's sum psi_i B_i
    alpha_i), so dw(phi) = sum b_i l_i 2 (B_i, B_i)# = mass.
    """
    return float(sum(at.weight * at.length * 2.0 * mink_dot(at.generator, at.generator) for at in m.atoms))


def length(mc: WeightedMulticurve, rep: SurfaceGroupRep) -> float:
    """sum b_i l(rep(gamma_i)), the multicurve's length in `rep`."""
    return sum(b * translation_length(rep.evaluate(w)) for w, b in mc.items)


def pair(m: LieValuedMeasure, xi: Cocycle) -> float:
    """dw(d xi) = sum b_i 2 (B_i, alpha(gamma_i))#, the Killing pairing of
    each axis with the cocycle; vanishes on coboundaries."""
    check_same_rep(m.rep, xi.rep)
    return sum(at.weight * 2.0 * mink_dot(at.generator, evaluate_cocycle(xi, at.word)) for at in m.atoms)
