"""Group-level certification pipeline.

Stages: trace-reality scan -> find a loxodromic -> diagonalize it (move its
axis to the standard one) -> find a second loxodromic whose corner product
d*q is structurally nonzero -> branch on whether d, q are purely imaginary
(block SU(1,1)xSU(2) case) or real (totally real span / SO(3,1) case) ->
construct and certify the conjugator.  Every failure is encoded in the
verdict; the pipeline never claims more than its residuals certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .config import AnalysisConfig
from .hermitian import (
    J,
    GroupElement,
    NotInGroup,
    herm_inner,
    matrix_to_json,
    norm_max,
    su31_inverse,
    su31_residual,
)
from .elements import (
    LOXODROMIC,
    AmbiguousClassification,
    IllConditioned,
    NotLoxodromic,
    NotRealTrace,
    classify,
    normalize_loxodromic,
)
from .tracefield import (
    ALL_REAL,
    IMAGINARY_PAIR,
    REAL_PAIR,
    BudgetExceeded,
    enumerate_words,
    lemma22_branch,
    trace_reality_report,
)

REAL_FORM = "real_form"
COMPACT_PRODUCT_FORM = "compact_product_form"
NOT_REAL_TRACE = "not_real_trace"
INCONCLUSIVE = "inconclusive"

CASE_I = "case_i"
CASE_II = "case_ii"
CASE_AMBIGUOUS = "ambiguous"

SPAN_IMAG_TOL = 1e-7   # |Im <v_i, v_j>| / scale^2 above this is no rounding of a Gram entry
SPAN_RANK_TOL = 1e-9   # singular-value ratios below this are rounding, not a new direction
CONJUGATOR_TOL = 1e-8  # D's membership bound; Gram eigenvalues nearer 0 make D ill-conditioned

# index pairs outside the corner + middle block pattern
_OFF_BLOCK = [
    (i, j)
    for i in range(4)
    for j in range(4)
    if (i, j) not in {(0, 0), (0, 3), (3, 0), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2)}
]
_SWAP2 = np.array([[0, 1], [1, 0]], dtype=complex)


class StageFailure(RuntimeError):
    """Raised by a pipeline stage; classify_group converts it into Inconclusive."""

    def __init__(self, stage: str, reason: str):
        self.stage = stage
        self.reason = reason
        super().__init__(f"{stage}: {reason}")


class BlockViolation(StageFailure):
    def __init__(self, word, residual):
        self.word = word
        self.residual = residual
        super().__init__(
            "case1_certify",
            f"word {list(word)} breaks the block form (residual {residual:.3e})",
        )


class RankDeficient(StageFailure):
    def __init__(self, dim, basis):
        self.dim = dim
        self.basis = basis
        super().__init__(
            "case2_build_real_span",
            f"real span has dimension {dim} < 4; no full-flag conjugator is constructed",
        )


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str
    conjugator: Optional[GroupElement] = None
    certificate: float = float("nan")
    witness: Optional[tuple] = None
    reason: str = ""
    stages: List[dict] = field(default_factory=list)

    def to_json(self, config: Optional[AnalysisConfig] = None) -> dict:
        out = {
            "verdict": self.verdict,
            "conjugator": (
                matrix_to_json(self.conjugator.entries) if self.conjugator else None
            ),
            "certificate": None if np.isnan(self.certificate) else self.certificate,
            "witness_word": list(self.witness) if self.witness is not None else None,
            "reason": self.reason,
            "stages": self.stages,
        }
        if config is not None:
            out["config"] = config.to_json()
        return out


@dataclass(frozen=True)
class RealSpanBasis:
    """Real-linearly independent images of e4 spanning a totally real subspace."""

    vectors: List[np.ndarray]
    gram: np.ndarray
    dim: int


def find_loxodromic(
    gens: Sequence[GroupElement],
    max_length: int,
    tol: float = AnalysisConfig.tol_spec,
    budget: int = AnalysisConfig.budget,
) -> GroupElement:
    """First word (enumeration order) classified loxodromic."""
    for element in enumerate_words(gens, max_length, budget):
        try:
            if classify(element, tol).tag == LOXODROMIC:
                return element
        except (AmbiguousClassification, IllConditioned):
            continue
    raise StageFailure("find_loxodromic", "no loxodromic word within the budget")


def normalize_group(gens: Sequence[GroupElement], a_lox: GroupElement):
    """Conjugate so a_lox becomes diagonal with fixed points 0 and infinity."""
    nf = normalize_loxodromic(a_lox)
    c = nf.conjugator.entries
    c_inv = su31_inverse(c)
    new_gens = [
        GroupElement(c_inv @ g.entries @ c, g.word, su31_residual(c_inv @ g.entries @ c))
        for g in gens
    ]
    return new_gens, nf


def find_branch_witness(
    gens: Sequence[GroupElement],
    max_length: int,
    tol_corner: float = AnalysisConfig.tol_corner,
    tol_spec: float = AnalysisConfig.tol_spec,
    budget: int = AnalysisConfig.budget,
) -> GroupElement:
    """First loxodromic word with |d q| above the structural-zero threshold.

    Works in normalized coordinates; d and q are the (1,4) and (4,1) entries.
    Absence means every loxodromic found shares an axis endpoint with the
    normalized diagonal, which the caller reports as Inconclusive.
    """
    for element in enumerate_words(gens, max_length, budget):
        m = element.entries
        if abs(m[0, 3] * m[3, 0]) <= tol_corner * norm_max(m):
            continue
        try:
            if classify(element, tol_spec).tag == LOXODROMIC:
                return element
        except (AmbiguousClassification, IllConditioned):
            continue
    raise StageFailure(
        "find_branch_witness",
        "no loxodromic word with structurally nonzero corner entries; "
        "the group may be elementary or the word budget too small",
    )


def detect_case(b0: GroupElement, tol_rel: float = AnalysisConfig.tol_rel) -> str:
    """Case I for purely imaginary corners d, q; Case II for real ones (Lemma 2.2)."""
    branch = lemma22_branch(b0.entries[0, 3], b0.entries[3, 0], tol=tol_rel)
    return {IMAGINARY_PAIR: CASE_I, REAL_PAIR: CASE_II}.get(branch, CASE_AMBIGUOUS)


def _case1_word_residual(m: np.ndarray) -> float:
    off = max(abs(m[i, j]) for i, j in _OFF_BLOCK)
    corner = np.array([[m[0, 0], m[0, 3]], [m[3, 0], m[3, 3]]])
    middle = m[1:3, 1:3]
    corner_form = norm_max(corner.conj().T @ _SWAP2 @ corner - _SWAP2)
    corner_det = abs(np.linalg.det(corner) - 1.0)
    middle_unitary = norm_max(middle.conj().T @ middle - np.eye(2))
    middle_det = abs(np.linalg.det(middle) - 1.0)
    return max(off, corner_form, corner_det, middle_unitary, middle_det)


def case1_certify(words: Sequence[GroupElement], tol: float = AnalysisConfig.tol_cert) -> float:
    """Max block-form residual over the words; raises BlockViolation above tol."""
    certificate = 0.0
    for element in words:
        res = _case1_word_residual(element.entries)
        if res > tol:
            raise BlockViolation(element.word, res)
        certificate = max(certificate, res)
    return certificate


def _real_coords(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


def case2_build_real_span(words: Sequence[GroupElement]) -> RealSpanBasis:
    """Maximal R-independent subset of {B e4}, certified totally real.

    The identity's image e4 is always included.  Raises StageFailure naming
    the offending pair if some Gram entry has an imaginary part above
    SPAN_IMAG_TOL * scale^2, RankDeficient when fewer than four independent
    directions appear.
    """
    basis: List[np.ndarray] = [np.array([0, 0, 0, 1], dtype=complex)]
    rows = [_real_coords(basis[0])]
    for element in words:
        if len(basis) == 4:
            break
        v = element.entries[:, 3].copy()
        stacked = np.vstack(rows + [_real_coords(v)])
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[-1] > SPAN_RANK_TOL * sv[0]:
            basis.append(v)
            rows.append(_real_coords(v))
    scale = max(float(np.linalg.norm(v)) for v in basis)
    gram_c = np.array([[herm_inner(vj, vi) for vj in basis] for vi in basis])
    worst = (0, 0)
    worst_im = 0.0
    for i in range(len(basis)):
        for j in range(len(basis)):
            im = abs(gram_c[i, j].imag)
            if im > worst_im:
                worst_im = im
                worst = (i, j)
    if worst_im > SPAN_IMAG_TOL * scale**2:
        reason = f"Im<v_i, v_j> = {worst_im:.3e} for basis pair {worst}"
        raise StageFailure("case2_build_real_span", reason)
    if len(basis) < 4:
        raise RankDeficient(len(basis), basis)
    return RealSpanBasis(basis, gram_c.real, len(basis))


def case2_conjugator(basis: RealSpanBasis) -> GroupElement:
    """D with D M D^{-1} real for every group element M stabilizing the span.

    W holds the basis as columns; W* J W is real symmetric of signature
    (3,1).  A real congruence R with (WR)* J (WR) = J is assembled from the
    symmetric eigendecomposition, and D = (WR)^{-1} phase-scaled to det 1.
    """
    if basis.dim != 4:
        raise RankDeficient(basis.dim, basis.vectors)
    w = np.column_stack(basis.vectors)
    gram = w.conj().T @ J @ w
    gram = 0.5 * (gram + gram.conj().T).real
    vals, q = np.linalg.eigh(gram)
    scale = float(np.max(np.abs(vals)))
    tol = CONJUGATOR_TOL * scale
    if vals[0] > -tol or vals[1] < tol or (vals[1:] <= 0).any():
        reason = f"Gram eigenvalues {np.round(vals, 6).tolist()} are not signature (3,1)"
        raise StageFailure("case2_conjugator", reason)
    r0 = q @ np.diag(1.0 / np.sqrt(np.abs(vals)))
    # r0^T gram r0 = diag(-1, 1, 1, 1); map that to J via a null-cone basis
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    p = np.array(
        [
            [inv_sqrt2, 0, 0, -inv_sqrt2],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [inv_sqrt2, 0, 0, inv_sqrt2],
        ]
    )
    wr = w @ (r0 @ p)
    det = np.linalg.det(wr)
    wr = wr * np.exp(-1j * np.angle(det) / 4.0)
    d = su31_inverse(wr)
    return GroupElement.certify(d, tol=CONJUGATOR_TOL)


def _imag_residual_after(d: GroupElement, words: Sequence[GroupElement]) -> float:
    d_mat = d.entries
    d_inv = su31_inverse(d_mat)
    worst = 0.0
    for element in words:
        conj = d_mat @ element.entries @ d_inv
        worst = max(worst, float(np.max(np.abs(conj.imag))))
    return worst


def classify_group(
    gens: Sequence[GroupElement],
    max_length: int = AnalysisConfig.max_word_length,
    config: Optional[AnalysisConfig] = None,
) -> ClassificationResult:
    """Full pipeline; every failure path yields an Inconclusive verdict.

    Word length, tolerances and budget come from ``config`` alone; ``max_length``
    only builds the default config when none is passed.
    """
    cfg = config or AnalysisConfig(max_word_length=max_length)
    stages: List[dict] = []

    def stage(name, status, residual=None):
        stages.append({"name": name, "status": status, "residual": residual})

    try:
        report = trace_reality_report(gens, cfg.max_word_length, cfg.tol_real, cfg.budget)
        stage("trace_reality", report.verdict, report.max_im_trace)
        if report.verdict != ALL_REAL:
            return ClassificationResult(
                NOT_REAL_TRACE,
                certificate=report.max_im_trace,
                witness=report.witness_word,
                reason="a word has non-real trace",
                stages=stages,
            )

        a_lox = find_loxodromic(gens, cfg.max_word_length, cfg.tol_spec, cfg.budget)
        stage("find_loxodromic", "found", None)

        norm_gens, nf = normalize_group(gens, a_lox)
        stage("normalize_group", "ok", float(nf.conjugator.membership_residual))

        b0 = find_branch_witness(
            norm_gens, cfg.max_word_length, cfg.tol_corner, cfg.tol_spec, cfg.budget
        )
        stage("find_branch_witness", "found", None)

        case = detect_case(b0, cfg.tol_rel)
        stage("detect_case", case, None)
        if case == CASE_AMBIGUOUS:
            return ClassificationResult(
                INCONCLUSIVE,
                reason="corner entries of the branch witness are neither real "
                "nor purely imaginary",
                stages=stages,
            )

        words = list(enumerate_words(norm_gens, cfg.max_word_length, cfg.budget))
        c_inv = nf.conjugator.inverse()

        if case == CASE_I:
            certificate = case1_certify(words, cfg.tol_cert)
            stage("case1_certify", "ok", certificate)
            return ClassificationResult(
                COMPACT_PRODUCT_FORM,
                conjugator=c_inv,
                certificate=certificate,
                stages=stages,
            )

        basis = case2_build_real_span(words)
        stage("case2_build_real_span", f"dim {basis.dim}", None)
        d = case2_conjugator(basis)
        certificate = _imag_residual_after(d, words)
        stage("case2_conjugator", "ok", certificate)
        if certificate > cfg.tol_cert:
            return ClassificationResult(
                INCONCLUSIVE,
                reason=f"real-form certificate {certificate:.3e} above the "
                f"configured bound {cfg.tol_cert:.1e}",
                stages=stages,
            )
        d_total = d @ c_inv
        return ClassificationResult(
            REAL_FORM, conjugator=d_total, certificate=certificate, stages=stages
        )

    except BudgetExceeded as exc:
        stage("enumeration", "budget_exceeded", None)
        return ClassificationResult(INCONCLUSIVE, reason=str(exc), stages=stages)
    except StageFailure as exc:
        stage(exc.stage, "failed", None)
        return ClassificationResult(INCONCLUSIVE, reason=exc.reason, stages=stages)
    except (
        AmbiguousClassification, IllConditioned, NotInGroup, NotLoxodromic, NotRealTrace
    ) as exc:
        stage("spectral", "failed", None)
        return ClassificationResult(INCONCLUSIVE, reason=str(exc), stages=stages)
