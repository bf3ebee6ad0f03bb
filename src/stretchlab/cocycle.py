"""Twisted 1-cocycles alpha: pi_1 -> so(2,1) over Ad(sigma).

A cocycle is stored by its values on the four generators, each an R^{2,1}
vector (Ad(g) hat(w) = hat(g w), see lorentz), and extended lazily by the
cocycle rule alpha(g1 g2) = sigma(g1) alpha(g2) + alpha(g1); it is
a tangent vector to the representation variety at sigma exactly when it
vanishes on the relator.  No command measures that relator tangency; the
tests' oracles do.  Cohomology classes are never materialized: class
equality is always tested by pairing against multicurve measures, over one
base rep (check_same_rep).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fuchsian import SurfaceGroupRep, as_word


@dataclass
class Cocycle:
    """Generator values of a 1-cocycle twisted by Ad(sigma)."""

    rep: SurfaceGroupRep
    values: np.ndarray  # (4, 3), ordered a1, b1, a2, b2

    def __post_init__(self):
        # dtype preserved: closed-form cocycles are built in extended
        # precision so relator tangency can be certified at 1e-12
        self.values = np.asarray(self.values)
        if self.values.shape != (4, 3):
            raise ValueError("expected four R^{2,1} generator values")


class RepMismatchError(ValueError):
    """Raised when cocycles/measures over different base reps are combined."""


def check_same_rep(a: SurfaceGroupRep, b: SurfaceGroupRep):
    """Raise RepMismatchError unless a and b have the same generators to 1e-12."""
    if a is b:
        return
    if float(np.abs(a.generators - b.generators).max()) > 1e-12:
        raise RepMismatchError("objects live over different base representations")


def compose(letters, incr: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The cocycle rule over letter indices: the sum of prefix incr[k],
    prefix the product of mats over the letters before k, in the tables' dtype."""
    total = np.zeros(3, dtype=incr.dtype)
    prefix = np.eye(3, dtype=mats.dtype)
    for k in letters:
        total = total + prefix @ incr[k]
        prefix = prefix @ mats[k]
    return total


def evaluate_cocycle(alpha: Cocycle, word) -> np.ndarray:
    """alpha(word) via the cocycle rule, accumulated in extended precision.

    For an inverse letter, alpha(g^-1) = -sigma(g)^-1 alpha(g).  The
    extended accumulation matters only for tangency-style cancellations
    (the prefixes reach operator norm ~1e3 on the relator).  The
    result dtype follows the stored values (longdouble passes through).
    """
    mats = alpha.rep.letter_table
    v = alpha.values.astype(np.longdouble)
    # alpha(g^-1) = -g^-1 alpha(g) at the odd codes
    incr = np.stack([v, -np.einsum("kij,kj->ki", mats[1::2], v)], axis=1).reshape(8, 3)
    out = compose(as_word(word).letters, incr, mats)
    return out if alpha.values.dtype == np.longdouble else out.astype(float)

