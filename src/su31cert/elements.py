"""Spectral analysis of single SU(3,1) elements.

Eigenvalues come from the monic quartic characteristic polynomial.  For
real-trace elements the polynomial is self-dual (coefficients real and
palindromic), so the substitution s = t + 1/t splits it into two quadratics
and the spectrum pairs up as {u, 1/u, e^{i theta}, e^{-i theta}}.  That
structure drives both the loxodromic/parabolic/elliptic classification and
the diagonal normal form used by the conjugation engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .config import AnalysisConfig
from .hermitian import (
    J,
    BoundaryPoint,
    GroupElement,
    herm_inner,
    matrix_of,
    norm_max,
    su31_inverse,
)

LOXODROMIC = "loxodromic"
PARABOLIC = "parabolic"
ELLIPTIC = "elliptic"

CLUSTER_TOL = 1e-5         # polished simple roots are far closer than this: only repeats merge
COARSE_CLUSTER_TOL = 1e-3  # a multiple root is only good to ~eps^(1/4) ~ 1e-4; this re-merges it
PIVOT_TOL = 1e-9           # smaller relative pivots are rounding in a singular A - lambda I
COLLISION_TOL = 1e-6       # nearer middle eigenvalues are theta in {0, pi}; vectors unreliable


class IllConditioned(RuntimeError):
    """No eigenvector met the requested residual bound."""


class NotLoxodromic(ValueError):
    pass


class NotRealTrace(ValueError):
    pass


class AmbiguousClassification(RuntimeError):
    """Eigenvalue moduli straddle the unit-modulus tolerance band."""


@dataclass(frozen=True)
class CharPoly:
    """Monic quartic chi(t) = t^4 + c3 t^3 + c2 t^2 + c1 t + c0 stored highest-first."""

    coefficients: tuple  # (1, c3, c2, c1, c0)

    def __call__(self, t: complex) -> complex:
        return complex(np.polyval(np.asarray(self.coefficients, dtype=complex), t))

    @property
    def c3(self): return self.coefficients[1]

    @property
    def c2(self): return self.coefficients[2]

    @property
    def c1(self): return self.coefficients[3]

    @property
    def c0(self): return self.coefficients[4]


def char_poly(a) -> CharPoly:
    """Characteristic polynomial via Newton's identities on tr(A^k)."""
    m = matrix_of(a)
    p1 = np.trace(m)
    m2 = m @ m
    p2 = np.trace(m2)
    p3 = np.trace(m2 @ m)
    p4 = np.trace(m2 @ m2)
    e1 = p1
    e2 = (e1 * p1 - p2) / 2
    e3 = (e2 * p1 - e1 * p2 + p3) / 3
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4
    return CharPoly((1.0 + 0j, complex(-e1), complex(e2), complex(-e3), complex(e4)))


def is_selfdual(p: CharPoly, tol: float = 1e-9) -> bool:
    """t^4 conj(chi(1/conj(t))) = chi(t): c0 = 1, c1 = conj(c3), all coefficients real."""
    scale = 1.0 + max(abs(c) for c in p.coefficients)
    return (
        abs(p.c0 - 1.0) <= tol * scale
        and abs(p.c1 - np.conj(p.c3)) <= tol * scale
        and abs(np.imag(p.c1)) <= tol * scale
        and abs(np.imag(p.c2)) <= tol * scale
        and abs(np.imag(p.c3)) <= tol * scale
    )


def _quartic_roots(p: CharPoly) -> np.ndarray:
    coeffs = np.asarray(p.coefficients, dtype=complex)
    if is_selfdual(p, tol=1e-10):
        # chi(t)/t^2 = s^2 + c3 s + (c2 - 2) with s = t + 1/t
        s_roots = np.roots([1.0, p.c3.real, p.c2.real - 2.0])
        roots = []
        for s in s_roots:
            roots.extend(np.roots([1.0, -s, 1.0]))
        roots = np.asarray(roots, dtype=complex)
    else:
        roots = np.roots(coeffs)
    # Newton polish on the quartic; skipped near multiple roots
    dcoeffs = np.polyder(coeffs)
    for _ in range(3):
        vals = np.polyval(coeffs, roots)
        dvals = np.polyval(dcoeffs, roots)
        safe = np.abs(dvals) > 1e-8 * (1.0 + np.abs(roots)) ** 3
        roots = np.where(safe, roots - vals / np.where(safe, dvals, 1.0), roots)
    return roots


def _cluster(roots: np.ndarray, tol: float) -> List[np.ndarray]:
    order = np.lexsort((roots.imag, roots.real))
    groups: List[list] = []
    for idx in order:
        z = roots[idx]
        placed = False
        for g in groups:
            if abs(z - np.mean(g)) <= tol * (1.0 + abs(z)):
                g.append(z)
                placed = True
                break
        if not placed:
            groups.append([z])
    return [np.asarray(g) for g in groups]


def complete_pivot_rank(m, pivot_tol: float) -> int:
    """Rank by Gaussian elimination with complete pivoting; deterministic."""
    work = np.array(m, dtype=complex)
    nrows, ncols = work.shape
    rank = 0
    for step in range(min(nrows, ncols)):
        sub = np.abs(work[step:, step:])
        if sub.size == 0 or sub.max() <= pivot_tol:
            break
        i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        i += step
        j += step
        work[[step, i]] = work[[i, step]]
        work[:, [step, j]] = work[:, [j, step]]
        rank += 1
        piv = work[step, step]
        for row in range(step + 1, nrows):
            work[row, step:] -= (work[row, step] / piv) * work[step, step:]
    return rank


def _null_space(m, dim: int) -> np.ndarray:
    """The ``dim`` right singular vectors of smallest singular value (unit columns)."""
    _, _, vh = np.linalg.svd(m)
    return vh.conj().T[:, -dim:][:, ::-1]


@dataclass(frozen=True)
class EigenPair:
    value: complex
    vector: np.ndarray
    residual: float


@dataclass(frozen=True)
class EigenDecomposition:
    pairs: List[EigenPair]
    defective: bool

    @property
    def values(self) -> np.ndarray:
        return np.asarray([p.value for p in self.pairs])


def eigen_solve(a, tol: float = 1e-8) -> EigenDecomposition:
    """Eigenpairs of a 4x4 J-isometry from its quartic characteristic polynomial.

    Roots are clustered; each cluster contributes its geometric multiplicity
    worth of eigenvectors (null space of A - lambda I, rank decided by
    complete-pivot elimination).  ``defective`` flags geometric < algebraic
    anywhere in the spectrum.
    """
    m = matrix_of(a)
    scale = max(norm_max(m), 1.0)
    roots = _quartic_roots(char_poly(m))
    best = None
    # A tight clustering can split a multiple root and poison the null spaces.
    # Try a coarser clustering too and keep whichever basis fits the matrix
    # best; merging genuinely distinct eigenvalues always loses this contest
    # because the forced one-dimensional null space has O(gap) residual.
    for ctol in (CLUSTER_TOL, COARSE_CLUSTER_TOL):
        pairs: List[EigenPair] = []
        defective = False
        for group in _cluster(roots, ctol):
            lam = complex(np.mean(group))
            shifted = m - lam * np.eye(4)
            geo = 4 - complete_pivot_rank(shifted, pivot_tol=PIVOT_TOL * scale)
            geo = max(1, min(geo, len(group)))
            if geo < len(group):
                defective = True
            for vec in _null_space(shifted, geo).T:
                # Rayleigh refinement helps clustered-but-simple spectra
                lam_r = complex(np.vdot(vec, m @ vec))
                res = float(np.linalg.norm(m @ vec - lam_r * vec))
                pairs.append(EigenPair(lam_r, vec, res))
        worst = max(p.residual for p in pairs)
        if best is None or worst < best[0]:
            best = (worst, pairs, defective)
    worst, pairs, defective = best
    if worst > tol * scale:
        raise IllConditioned(
            f"eigenvector residual {worst:.3e} exceeds {tol:.3e} * ||A||"
        )
    pairs.sort(key=lambda p: (-abs(p.value), -p.value.real, -p.value.imag))
    return EigenDecomposition(pairs, defective)


@dataclass(frozen=True)
class ElementType:
    tag: str
    fixed_points: List[BoundaryPoint]
    interior_witness: Optional[np.ndarray] = None


def _gram_eigh(vectors: np.ndarray):
    """Eigenvalues and eigenvectors (coefficients on ``vectors``) of V* J V."""
    gram = vectors.conj().T @ J @ vectors
    return np.linalg.eigh(0.5 * (gram + gram.conj().T))


def classify(a, tol: float = AnalysisConfig.tol_spec) -> ElementType:
    """Loxodromic / parabolic / elliptic per the boundary fixed-point trichotomy."""
    m = matrix_of(a)
    eig = eigen_solve(m)
    moduli = np.abs(eig.values)
    if moduli.max() > 1.0 + tol:
        attract = eig.pairs[0]
        repel = min(eig.pairs, key=lambda p: abs(p.value))
        fixed = [
            BoundaryPoint.from_vector(attract.vector),
            BoundaryPoint.from_vector(repel.vector),
        ]
        return ElementType(LOXODROMIC, fixed)
    if moduli.min() < 1.0 - tol:
        raise AmbiguousClassification(
            f"moduli in [{moduli.min():.9f}, {moduli.max():.9f}] straddle the unit band"
        )
    vectors = np.column_stack([p.vector for p in eig.pairs])
    vals, vecs = _gram_eigh(vectors)
    if eig.defective or len(eig.pairs) < 4:
        null_vec = vectors @ vecs[:, int(np.argmin(np.abs(vals)))]
        return ElementType(PARABOLIC, [BoundaryPoint.from_vector(null_vec)])
    if vals.min() >= -tol:
        raise IllConditioned("unit-modulus diagonalizable element with no negative direction")
    witness = vectors @ vecs[:, int(np.argmin(vals))]
    return ElementType(ELLIPTIC, [], interior_witness=witness)


@dataclass(frozen=True)
class LoxodromicNormalForm:
    u: float
    theta: float
    conjugator: GroupElement

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(
            [self.u, np.exp(1j * self.theta), np.exp(-1j * self.theta), 1.0 / self.u]
        ).astype(complex)


def _j_orthonormalize_positive(vectors: np.ndarray) -> np.ndarray:
    """Gram-Schmidt with herm_inner on a J-positive-definite span."""
    out = []
    for v in vectors.T:
        w = v.copy()
        for u in out:
            w = w - herm_inner(w, u) * u
        nrm = herm_inner(w, w).real
        if nrm <= 0:
            raise IllConditioned("expected J-positive eigenspace")
        out.append(w / np.sqrt(nrm))
    return np.column_stack(out)


def normalize_loxodromic(a, tol: float = 1e-8) -> LoxodromicNormalForm:
    """Conjugate a real-trace loxodromic to diag(u, e^{i theta}, e^{-i theta}, 1/u).

    Columns of the conjugator C: attracting null eigenvector, two J-unit
    positive eigenvectors, repelling null eigenvector with <c1, c4> = 1, the
    whole matrix phase-scaled to det 1.  Raises NotRealTrace / NotLoxodromic
    when the preconditions fail and handles the theta in {0, pi} eigenvalue
    collision by J-orthonormalizing the two-dimensional positive eigenspace.
    """
    m = matrix_of(a)
    tr = np.trace(m)
    if abs(tr.imag) > tol * (1.0 + abs(tr)):
        raise NotRealTrace(f"Im tr = {tr.imag:.3e}")
    eig = eigen_solve(m)
    moduli = np.abs(eig.values)
    if moduli.max() <= 1.0 + tol:
        raise NotLoxodromic("no eigenvalue off the unit circle")
    attract = eig.pairs[0]
    repel = min(eig.pairs, key=lambda p: abs(p.value))
    if abs(attract.value.imag) > tol * abs(attract.value):
        raise NotRealTrace(f"leading eigenvalue {attract.value} is not real")
    u = float(attract.value.real)
    unit_pairs = [p for p in eig.pairs if p is not attract and p is not repel]
    collided = len(unit_pairs) == 1 or (
        abs(unit_pairs[0].value - unit_pairs[1].value) <= COLLISION_TOL
    )
    if collided:
        # theta in {0, pi}: degenerate middle eigenspace, take any J-orthonormal basis
        lam = complex(np.mean([p.value for p in unit_pairs]))
        shifted = m - lam * np.eye(4)
        basis = _null_space(shifted, 2)
        c_mid = _j_orthonormalize_positive(basis)
        theta = 0.0 if lam.real > 0 else float(np.pi)
    else:
        p_pos = max(unit_pairs, key=lambda p: p.value.imag)
        p_neg = min(unit_pairs, key=lambda p: p.value.imag)
        theta = float(np.angle(p_pos.value))
        c2 = p_pos.vector
        c3 = p_neg.vector
        n2 = herm_inner(c2, c2).real
        n3 = herm_inner(c3, c3).real
        if n2 <= 0 or n3 <= 0:
            raise IllConditioned("middle eigenvectors are not J-positive")
        c_mid = np.column_stack([c2 / np.sqrt(n2), c3 / np.sqrt(n3)])
    c1 = attract.vector
    c4 = repel.vector
    pairing = herm_inner(c1, c4)
    if abs(pairing) < 1e-12:
        raise IllConditioned("degenerate pairing between the null eigenvectors")
    c4 = c4 / np.conj(pairing)
    C = np.column_stack([c1, c_mid[:, 0], c_mid[:, 1], c4])
    detC = np.linalg.det(C)
    C = C * np.exp(-1j * np.angle(detC) / 4.0)
    conj = GroupElement.certify(C, tol=max(tol, 1e-8))
    diag = np.diag([u, np.exp(1j * theta), np.exp(-1j * theta), 1.0 / u])
    resid = norm_max(su31_inverse(C) @ m @ C - diag)
    if resid > max(tol, 1e-8) * max(1.0, norm_max(m)):
        raise IllConditioned(f"normal-form residual {resid:.3e}")
    return LoxodromicNormalForm(u, theta, conj)
