"""Twisted 1-cocycles alpha: pi_1 -> so(2,1) over Ad(sigma).

A cocycle is stored by its values on the four generators and extended lazily
by the cocycle rule alpha(g1 g2) = Ad(sigma(g1)) alpha(g2) + alpha(g1); it is
a tangent vector to the representation variety at sigma exactly when it
vanishes on the relator.  Cohomology classes are never materialized: class
equality is always tested by pairing against multicurve measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fuchsian import GENERATOR_NAMES, RELATOR, SurfaceGroupRep, as_word
from .lorentz import group_inv, sharp_adj

RELATOR_TANGENCY_TOL = 1e-8
FD_STEP = 1e-4


@dataclass
class Cocycle:
    """Generator values of a 1-cocycle twisted by Ad(sigma)."""

    rep: SurfaceGroupRep
    values: np.ndarray  # (4, 3, 3), ordered a1, b1, a2, b2

    def __post_init__(self):
        # dtype preserved: closed-form cocycles are built in extended
        # precision so relator tangency can be certified at 1e-12
        self.values = np.asarray(self.values)
        if self.values.shape != (4, 3, 3):
            raise ValueError("expected four 3x3 generator values")

    def __add__(self, other: "Cocycle") -> "Cocycle":
        _check_same_rep(self.rep, other.rep)
        return Cocycle(self.rep, self.values + other.values)

    def __sub__(self, other: "Cocycle") -> "Cocycle":
        _check_same_rep(self.rep, other.rep)
        return Cocycle(self.rep, self.values - other.values)

    def __mul__(self, c: float) -> "Cocycle":
        return Cocycle(self.rep, c * self.values)

    __rmul__ = __mul__

    def validate(self, tol: float = RELATOR_TANGENCY_TOL) -> "Cocycle":
        res = relator_tangency(self)
        if res > tol:
            raise ValueError(f"relator tangency {res:.3e} exceeds {tol:.1e}")
        return self

    def to_json(self) -> dict:
        """Generator values as 3x3 arrays, with the base rep inline."""
        return {"values": [v.tolist() for v in self.values.astype(float)], "rep": self.rep.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "Cocycle":
        return cls(SurfaceGroupRep.from_json(data["rep"]), np.array(data["values"], dtype=float))


class RepMismatchError(ValueError):
    """Raised when cocycles/measures over different base reps are combined."""


def _check_same_rep(a: SurfaceGroupRep, b: SurfaceGroupRep):
    if a is b:
        return
    if float(np.abs(a.generators - b.generators).max()) > 1e-12:
        raise RepMismatchError("objects live over different base representations")


def zero_cocycle(rep: SurfaceGroupRep) -> Cocycle:
    return Cocycle(rep, np.zeros((4, 3, 3)))


def compose(letters, incr: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The cocycle rule over letter indices: the sum of Ad(prefix) incr[k],
    prefix the product of mats over the letters before k, in the tables' dtype."""
    total = np.zeros((3, 3), dtype=incr.dtype)
    prefix = np.eye(3, dtype=mats.dtype)
    for k in letters:
        total = total + prefix @ incr[k] @ group_inv(prefix)
        prefix = prefix @ mats[k]
    return total


def _evaluate_cocycle_ld(alpha: Cocycle, word) -> np.ndarray:
    mats = alpha.rep.letter_table
    v = alpha.values.astype(np.longdouble)
    # alpha(g^-1) = -Ad(g^-1) alpha(g) at the odd codes
    incr = np.stack([v, -(mats[1::2] @ v @ mats[::2])], axis=1).reshape(8, 3, 3)
    return compose(as_word(word).letters, incr, mats)


def evaluate_cocycle(alpha: Cocycle, word) -> np.ndarray:
    """alpha(word) via the cocycle rule, accumulated in extended precision.

    For an inverse letter, alpha(g^-1) = -Ad(sigma(g)^-1) alpha(g).  The
    extended accumulation matters only for tangency-style cancellations
    (the Ad factors reach operator norm ~1e3 on relator prefixes).  The
    result dtype follows the stored values (longdouble passes through).
    """
    out = _evaluate_cocycle_ld(alpha, word)
    if alpha.values.dtype == np.longdouble:
        return out
    return out.astype(float)


def coboundary(A0: np.ndarray, rep: SurfaceGroupRep) -> Cocycle:
    """alpha(g) = A0 - Ad(sigma(g)) A0; the zero class in H^1."""
    A0 = np.asarray(A0).astype(np.longdouble)
    vals = np.array(
        [A0 - rep.generator_ld(n) @ A0 @ group_inv(rep.generator_ld(n)) for n in GENERATOR_NAMES]
    )
    return Cocycle(rep, vals)


def relator_tangency(alpha: Cocycle) -> float:
    """Frobenius norm of alpha(relator); <= tol iff alpha is a valid cocycle.

    The extended-precision evaluation floors around 1e-11 * scale(alpha) on
    this surface (Ad factors over relator prefixes reach operator norm ~2e5),
    so algebraically exact cocycles report tangencies of that size, not 0.
    """
    r = _evaluate_cocycle_ld(alpha, RELATOR)
    return float(np.sqrt((r * r).sum()))


def differentiate_family(
    family,
    rep: SurfaceGroupRep | None = None,
    step: float = FD_STEP,
    s0: float = 0.0,
) -> Cocycle:
    """Central-difference cocycle of a representation family s -> rep.

    alpha(g) = (d/ds sigma_s(g)) sigma(g)^-1 at s = s0; the result is
    projected onto so(2,1) and satisfies relator tangency up to the
    finite-difference floor (~1e-6 for the default step).  The sampled
    family members must satisfy the rep invariants.
    """
    if rep is None:
        rep = family(s0)
    plus = family(s0 + step).validate()
    minus = family(s0 - step).validate()
    vals = []
    for n in GENERATOR_NAMES:
        d = (plus.generator(n) - minus.generator(n)) / (2.0 * step)
        a = d @ group_inv(rep.generator(n))
        a = 0.5 * (a - sharp_adj(a))  # project to so(2,1)
        vals.append(a - np.trace(a) / 3.0 * np.eye(3))
    return Cocycle(rep, np.array(vals))
