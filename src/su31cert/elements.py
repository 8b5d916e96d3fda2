"""Spectral analysis of single SU(3,1) elements.

Eigenvalues come from the monic quartic characteristic polynomial.  For
real-trace elements the polynomial is self-dual (coefficients real and
palindromic), so the substitution s = t + 1/t splits it into two quadratics
and the spectrum pairs up as {u, 1/u, e^{i theta}, e^{-i theta}}.  That
structure drives both the loxodromic/parabolic/elliptic classification and
the diagonal normal form used by the conjugation engine.

The quartic is kept over np.linalg.eigvals for the parabolic tagging: eigvals
splits the 3x3 Jordan block of a conjugated horizontal Heisenberg translation
by ~eps^(1/3) and tags 19 of 50 such parabolics loxodromic; the quartic tags
all 50.  Close middle eigenvalues cost their eigenvectors J-orthogonality;
normalize_loxodromic restores it in the J-complement of the null pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .hermitian import (
    J,
    BoundaryPoint,
    GroupElement,
    herm_inner,
    j_gram,
    matrix_of,
    norm_max,
    su31_inverse,
)

LOXODROMIC = "loxodromic"
PARABOLIC = "parabolic"
ELLIPTIC = "elliptic"

SPEC_TOL = 1e-7            # unit-modulus band of classify and is_loxodromic
CLUSTER_TOL = 1e-5         # polished simple roots are far closer than this: only repeats merge
COARSE_CLUSTER_TOL = 1e-3  # a multiple root is only good to ~eps^(1/4) ~ 1e-4; this re-merges it
PIVOT_TOL = 1e-9           # smaller relative pivots are rounding in a singular A - lambda I
COLLISION_TOL = 1e-6       # nearer middle eigenvalues are theta in {0, pi}; vectors unreliable
SELFDUAL_TOL = 1e-10       # the s = t + 1/t split is exact only on a truly palindromic quartic
EIGEN_TOL = 1e-8           # relative eigenvector residual beyond which no basis is trusted
NORMAL_FORM_TOL = 1e-8     # normalize_loxodromic: real trace, off-circle, conjugator, normal form
PAIRING_FLOOR = 1e-12      # smaller <c1, c4>: the two null eigenvectors are one boundary point


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


def is_selfdual(p: CharPoly, tol: float = SELFDUAL_TOL) -> bool:
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
    if is_selfdual(p):
        # chi(t)/t^2 = s^2 + c3 s + (c2 - 2) with s = t + 1/t; each s gives t^2 - s t + 1,
        # whose companion matrices [[s, -1], [1, 0]] are solved in one stacked call
        s_roots = np.roots([1.0, p.c3.real, p.c2.real - 2.0])
        companions = np.array([[[s, -1.0], [1.0, 0.0]] for s in s_roots], dtype=s_roots.dtype)
        roots = np.linalg.eigvals(companions).ravel().astype(complex)
    else:
        roots = np.roots(coeffs)
    # Newton polish on the quartic (Horner, as np.polyval); skipped near multiple roots
    dcoeffs = np.polyder(coeffs)
    for _ in range(3):
        vals = np.zeros_like(roots)
        for c in coeffs:
            vals = vals * roots + c
        dvals = np.zeros_like(roots)
        for c in dcoeffs:
            dvals = dvals * roots + c
        safe = np.abs(dvals) > 1e-8 * (1.0 + np.abs(roots)) ** 3
        roots = np.where(safe, roots - vals / np.where(safe, dvals, 1.0), roots)
    return roots


def _centre(group: list) -> complex:
    """The mean of a cluster of roots; a single root is its own mean."""
    return group[0] if len(group) == 1 else complex(np.mean(group))


def _cluster(roots: np.ndarray, tol: float) -> List[list]:
    """Roots in (real, imag) order, grouped within ``tol`` of a group's mean."""
    values = roots.tolist()
    groups: List[list] = []
    for idx in np.lexsort((roots.imag, roots.real)):
        z = values[idx]
        for g in groups:
            if abs(z - _centre(g)) <= tol * (1.0 + abs(z)):
                g.append(z)
                break
        else:
            groups.append([z])
    return groups


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
    """The ``dim`` right singular vectors of smallest singular value (unit columns),
    smallest first; ``m`` may be a stack of matrices, one basis per matrix."""
    _, _, vh = np.linalg.svd(m)
    return np.swapaxes(vh.conj(), -1, -2)[..., -dim:][..., ::-1]


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


def _cluster_pairs(m: np.ndarray, groups: List[list], scale: float):
    """(worst residual, eigenpairs, defective) with one null-space basis per cluster.

    Every cluster's basis comes from one SVD of the stacked shifted matrices
    m - lambda_k I.  A simple root has a one-dimensional eigenspace; a repeated
    root takes its geometric multiplicity from complete-pivot elimination.
    """
    lams = np.asarray([_centre(g) for g in groups])
    shifted = m - lams[:, None, None] * np.eye(4)
    bases = _null_space(shifted, 4)
    pairs: List[EigenPair] = []
    defective = False
    for group, basis, sm in zip(groups, bases, shifted):
        geo = 1
        if len(group) > 1:
            geo = max(1, min(4 - complete_pivot_rank(sm, PIVOT_TOL * scale), len(group)))
            defective = defective or geo < len(group)
        for vec in basis[:, :geo].T:
            # Rayleigh refinement helps clustered-but-simple spectra
            mv = m @ vec
            lam_r = complex(np.vdot(vec, mv))
            pairs.append(EigenPair(lam_r, vec, float(np.linalg.norm(mv - lam_r * vec))))
    return max(p.residual for p in pairs), pairs, defective


def eigen_solve(a) -> EigenDecomposition:
    """Eigenpairs of a 4x4 J-isometry from its quartic characteristic polynomial.

    Roots are clustered; each cluster contributes its geometric multiplicity
    worth of eigenvectors (null space of A - lambda I): one for a simple root,
    and for a repeated root as decided by complete-pivot elimination.  The
    null spaces of all clusters come from one SVD of the stacked matrices
    A - lambda_k I; each eigenvector then gets its own Rayleigh quotient.
    ``defective`` flags geometric < algebraic anywhere in the spectrum.

    A tight clustering can split a multiple root and poison the null spaces.
    When clustering at COARSE_CLUSTER_TOL gives another partition, that one is
    solved too and kept if its worst residual is smaller; merging genuinely
    distinct eigenvalues always loses because the forced one-dimensional null
    space has O(gap) residual.
    """
    m = matrix_of(a)
    scale = max(norm_max(m), 1.0)
    roots = _quartic_roots(char_poly(m))
    fine = _cluster(roots, CLUSTER_TOL)
    coarse = _cluster(roots, COARSE_CLUSTER_TOL)
    worst, pairs, defective = _cluster_pairs(m, fine, scale)
    if coarse != fine:
        trial = _cluster_pairs(m, coarse, scale)
        if trial[0] < worst:
            worst, pairs, defective = trial
    if worst > EIGEN_TOL * scale:
        raise IllConditioned(
            f"eigenvector residual {worst:.3e} exceeds {EIGEN_TOL:.3e} * ||A||"
        )
    pairs.sort(key=lambda p: (-abs(p.value), -p.value.real, -p.value.imag))
    return EigenDecomposition(pairs, defective)


@dataclass(frozen=True)
class ElementType:
    tag: str
    fixed_points: List[BoundaryPoint]
    interior_witness: Optional[np.ndarray] = None


def classify(a) -> ElementType:
    """Loxodromic / parabolic / elliptic per the boundary fixed-point trichotomy."""
    m = matrix_of(a)
    eig = eigen_solve(m)
    moduli = np.abs(eig.values)
    if moduli.max() > 1.0 + SPEC_TOL:
        attract = eig.pairs[0]
        repel = min(eig.pairs, key=lambda p: abs(p.value))
        fixed = [
            BoundaryPoint.from_vector(attract.vector),
            BoundaryPoint.from_vector(repel.vector),
        ]
        return ElementType(LOXODROMIC, fixed)
    if moduli.min() < 1.0 - SPEC_TOL:
        raise AmbiguousClassification(
            f"moduli in [{moduli.min():.9f}, {moduli.max():.9f}] straddle the unit band"
        )
    vectors = np.column_stack([p.vector for p in eig.pairs])
    vals, vecs = np.linalg.eigh(j_gram(vectors))
    if vals.min() < -SPEC_TOL:
        witness = vectors @ vecs[:, int(np.argmin(vals))]
        return ElementType(ELLIPTIC, [], interior_witness=witness)
    if eig.defective or len(eig.pairs) < 4:
        null_vec = vectors @ vecs[:, int(np.argmin(np.abs(vals)))]
        return ElementType(PARABOLIC, [BoundaryPoint.from_vector(null_vec)])
    raise IllConditioned("unit-modulus diagonalizable element with no negative direction")


def is_loxodromic(a) -> bool:
    """classify's loxodromic rule alone, with no fixed points built; False if ill-conditioned."""
    try:
        return bool(np.abs(eigen_solve(a).values).max() > 1.0 + SPEC_TOL)
    except IllConditioned:
        return False


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
    """Gram-Schmidt in J on a J-positive-definite span: V L^{-*} for the Cholesky L L* = V* J V."""
    try:
        factor = np.linalg.cholesky(j_gram(vectors))
    except np.linalg.LinAlgError:
        raise IllConditioned("expected J-positive eigenspace") from None
    return vectors @ np.linalg.inv(factor).conj().T


def normalize_loxodromic(a) -> LoxodromicNormalForm:
    """Conjugate a real-trace loxodromic to diag(u, e^{i theta}, e^{-i theta}, 1/u).

    Columns of the conjugator C: attracting null eigenvector, a J-orthonormal
    basis of the middle plane, repelling null eigenvector with <c1, c4> = 1,
    the whole matrix phase-scaled to det 1.  The middle plane is spanned by the
    two unit-modulus eigenvectors, or by the null space of A - lambda I at a
    theta in {0, pi} collision, projected onto the J-complement of the null pair.
    Raises NotRealTrace / NotLoxodromic when the preconditions fail.
    """
    m = matrix_of(a)
    tr = np.trace(m)
    if abs(tr.imag) > NORMAL_FORM_TOL * (1.0 + abs(tr)):
        raise NotRealTrace(f"Im tr = {tr.imag:.3e}")
    eig = eigen_solve(m)
    moduli = np.abs(eig.values)
    if moduli.max() <= 1.0 + NORMAL_FORM_TOL:
        raise NotLoxodromic("no eigenvalue off the unit circle")
    attract = eig.pairs[0]
    repel = min(eig.pairs, key=lambda p: abs(p.value))
    if abs(attract.value.imag) > NORMAL_FORM_TOL * abs(attract.value):
        raise NotRealTrace(f"leading eigenvalue {attract.value} is not real")
    u = float(attract.value.real)
    unit_pairs = [p for p in eig.pairs if p is not attract and p is not repel]
    collided = len(unit_pairs) == 1 or (
        abs(unit_pairs[0].value - unit_pairs[1].value) <= COLLISION_TOL
    )
    if collided:
        # theta in {0, pi}: the middle eigenspace is the null space of A - lambda I
        lam = complex(np.mean([p.value for p in unit_pairs]))
        basis = _null_space(m - lam * np.eye(4), 2)
        theta = 0.0 if lam.real > 0 else float(np.pi)
    else:
        p_pos = max(unit_pairs, key=lambda p: p.value.imag)
        p_neg = min(unit_pairs, key=lambda p: p.value.imag)
        basis = np.column_stack([p_pos.vector, p_neg.vector])
        theta = float(np.angle(p_pos.value))
    c1 = attract.vector
    c4 = repel.vector
    pairing = herm_inner(c1, c4)
    if abs(pairing) < PAIRING_FLOOR:
        raise IllConditioned("degenerate pairing between the null eigenvectors")
    c4 = c4 / np.conj(pairing)
    basis = basis - np.outer(c1, c4.conj() @ J @ basis) - np.outer(c4, c1.conj() @ J @ basis)
    c_mid = _j_orthonormalize_positive(basis)
    C = np.column_stack([c1, c_mid[:, 0], c_mid[:, 1], c4])
    detC = np.linalg.det(C)
    C = C * np.exp(-1j * np.angle(detC) / 4.0)
    # Rounding in C* J C and in (J C* J) A C grows with the square of C's entries
    bound = NORMAL_FORM_TOL * max(1.0, norm_max(C)) ** 2
    conj = GroupElement.certify(C, tol=bound)
    nf = LoxodromicNormalForm(u, theta, conj)
    resid = norm_max(su31_inverse(C) @ m @ C - nf.diagonal)
    if resid > bound * max(1.0, norm_max(m)):
        raise IllConditioned(f"normal-form residual {resid:.3e}")
    return nf
