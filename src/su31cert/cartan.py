"""Cartan angular invariant of boundary triples and the line/Lagrangian predicates.

The invariant is the principal argument of the negated triple Hermitian
product of lifts; it is lift-independent, lands in [-pi/2, pi/2], and equals
+-pi/2 exactly on complex-line triples and 0 exactly on Lagrangian triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import BoundaryPoint, herm_inner

COMPLEX_LINE = "complex_line"
LAGRANGIAN = "lagrangian"
GENERIC = "generic"

DEFAULT_TOL_DEG = 1e-10
DEFAULT_TOL_ANGLE = 1e-8


class DegenerateTriple(ValueError):
    """Coincident or J-orthogonal pair inside the triple."""


@dataclass(frozen=True)
class BoundaryTriple:
    x1: BoundaryPoint
    x2: BoundaryPoint
    x3: BoundaryPoint

    @property
    def lifts(self):
        return (self.x1.lift, self.x2.lift, self.x3.lift)


def _pairwise_products(t: BoundaryTriple, tol_deg: float):
    v1, v2, v3 = t.lifts
    prods = (herm_inner(v1, v2), herm_inner(v2, v3), herm_inner(v3, v1))
    norms = [float(np.linalg.norm(v)) for v in (v1, v2, v3)]
    scales = (norms[0] * norms[1], norms[1] * norms[2], norms[2] * norms[0])
    for p, s in zip(prods, scales):
        if abs(p) <= tol_deg * s:
            raise DegenerateTriple(
                f"pairwise inner product {abs(p):.3e} below {tol_deg:.1e} * norms"
            )
    return prods


def cartan_invariant(t: BoundaryTriple, tol_deg: float = DEFAULT_TOL_DEG) -> float:
    """arg(-<x1,x2><x2,x3><x3,x1>) in (-pi, pi], lift-independent, in [-pi/2, pi/2]."""
    p12, p23, p31 = _pairwise_products(t, tol_deg)
    return float(np.angle(-p12 * p23 * p31))


def triple_geometry(
    t: BoundaryTriple,
    tol_angle: float = DEFAULT_TOL_ANGLE,
    tol_deg: float = DEFAULT_TOL_DEG,
) -> str:
    ang = abs(cartan_invariant(t, tol_deg))
    if ang >= np.pi / 2 - tol_angle:
        return COMPLEX_LINE
    if ang <= tol_angle:
        return LAGRANGIAN
    return GENERIC
