"""Group-level certification pipeline.

Stages: find a loxodromic -> diagonalize it (move its axis to the standard
one) -> find a second loxodromic whose corner product d*q is structurally
nonzero -> branch on whether d, q are purely imaginary (block
SU(1,1)xSU(2) case) or real (totally real span / SO(3,1) case) -> construct
the conjugator D -> certify it at the input generators.  A certified D ends
the call: every trace of a group conjugate into either real form is real, so
the word tree is not walked to confirm it.

The certificate is the largest target-shape residual of D g D^{-1} over each
input generator g and its inverse: the block-form residual for
compact_product_form, max |Im entry| for real_form.  It can be re-checked
from the input and the emitted D alone, and neither it nor a positive
verdict depends on the word length.  Its bound is tol_real * CERT_SHARE relative to
each matrix's entry scale, so one tolerance decides both verdicts.  A
positive verdict is a statement about the generators: words amplify a
deviation from the target form.  The bound is set from the measured
amplification so that words up to length 4 stay within tol_real, but a
group within the bound yet not exactly real can have longer words with
|Im tr| above tol_real.

Only when the construction fails (a stage failure, a spectral exception, an
ambiguous case or a certificate over its bound) are the reduced words up to
the length bound scanned, stopping at the first one with |Im tr| > tol_real.
That word is the not_real_trace witness and |Im tr| of it is the
certificate, re-checkable from the generators and the word alone.  Without a
witness the verdict is Inconclusive with the construction's reason; the
pipeline never claims more than its residuals certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    IllConditioned,
    NotLoxodromic,
    NotRealTrace,
    classify,  # noqa: F401  (perfbench's traced run wraps engine.classify)
    is_loxodromic,
    normalize_loxodromic,
)
from .tracefield import (
    IMAGINARY_PAIR,
    NOT_REAL,
    REAL_PAIR,
    BudgetExceeded,
    enumerate_words,
    lemma22_branch,
    trace_reality_report,  # noqa: F401  (perfbench's traced run wraps engine.trace_reality_report)
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
# The certificate bound is tol_real * CERT_SHARE, relative to max(1, |D g D^-1|_max).
# A relative deviation of the generators from the target form reaches |Im tr|
# of some word of length <= 4 up to 414 times larger (the largest ratio over
# real_form/product_form seeds 0-49 with three perturbations each, and over
# scripts/sweep_near_real.py), so a bound of tol_real / 414 keeps a certified
# group within tol_real up to length 4; CERT_SHARE is that with a 20% margin.
# The clean side is narrow: over seeds 0-1199 the largest relative
# certificate is 3.6e-12 except real_form corpus 600 at 2.1e-11, whose
# ill-conditioned D lifts the rounding above the bound (inconclusive).
CERT_SHARE = 2e-3

# True on the corner + middle block pattern of SU(1,1)xSU(2)
_BLOCK = np.zeros((4, 4), dtype=bool)
_BLOCK[np.ix_([0, 3], [0, 3])] = _BLOCK[1:3, 1:3] = True
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
        if is_loxodromic(element, tol):
            return element
    raise StageFailure("find_loxodromic", "no loxodromic word within the budget")


def normalize_group(gens: Sequence[GroupElement], a_lox: GroupElement):
    """Conjugate so a_lox becomes diagonal with fixed points 0 and infinity."""
    nf = normalize_loxodromic(a_lox)
    c = nf.conjugator.entries
    c_inv = su31_inverse(c)
    return [GroupElement(c_inv @ g.entries @ c, g.word) for g in gens], nf


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
        if abs(m[0, 3] * m[3, 0]) > tol_corner * norm_max(m) and is_loxodromic(element, tol_spec):
            return element
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
    off = norm_max(m[~_BLOCK])
    corner = m[np.ix_([0, 3], [0, 3])]
    middle = m[1:3, 1:3]
    corner_form = norm_max(corner.conj().T @ _SWAP2 @ corner - _SWAP2)
    corner_det = abs(np.linalg.det(corner) - 1.0)
    middle_unitary = norm_max(middle.conj().T @ middle - np.eye(2))
    middle_det = abs(np.linalg.det(middle) - 1.0)
    return max(off, corner_form, corner_det, middle_unitary, middle_det)


def _scaled(residual: float, m: np.ndarray) -> float:
    """A residual of m relative to its entry scale max(1, |m|_max)."""
    return residual / max(1.0, norm_max(m))


def certificate_bound(tol_real: float = AnalysisConfig.tol_real) -> float:
    """The bound on each relative certificate: tol_real * CERT_SHARE."""
    return tol_real * CERT_SHARE


def case1_certify(words: Sequence[GroupElement], tol: Optional[float] = None) -> float:
    """Max block-form residual over the words; raises BlockViolation above tol * max(1, |m|_max).

    tol defaults to certificate_bound().
    """
    tol = certificate_bound() if tol is None else tol
    certificate = 0.0
    for element in words:
        res = _case1_word_residual(element.entries)
        if _scaled(res, element.entries) > tol:
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
    for element in words:
        if len(basis) == 4:
            break
        v = element.entries[:, 3].copy()
        stacked = np.array([_real_coords(b) for b in basis + [v]])
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[-1] > SPAN_RANK_TOL * sv[0]:
            basis.append(v)
    scale = max(float(np.linalg.norm(v)) for v in basis)
    gram_c = np.array([[herm_inner(vj, vi) for vj in basis] for vi in basis])
    im = np.abs(gram_c.imag)
    worst = divmod(int(np.argmax(im)), len(basis))
    worst_im = float(im[worst])
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


def conjugated_generators(d: GroupElement, gens: Sequence[GroupElement]) -> List[GroupElement]:
    """D g D^{-1} for each generator g and its inverse, labelled as the words (i,) and (-i,)."""
    d_mat = d.entries
    d_inv = su31_inverse(d_mat)
    return [
        GroupElement(d_mat @ m @ d_inv, (sign * i,))
        for i, g in enumerate(gens, 1)
        for sign, m in ((1, g.entries), (-1, su31_inverse(g.entries)))
    ]


def relative_certificate(verdict: str, letters: Sequence[GroupElement]) -> float:
    """Largest target-shape residual of the conjugated generators, each relative to max(1, |m|_max).

    letters is conjugated_generators(D, gens); this is the quantity
    certificate_bound() limits for a positive verdict.
    """
    def shape(m):
        return _case1_word_residual(m) if verdict == COMPACT_PRODUCT_FORM else norm_max(m.imag)

    return max(_scaled(shape(e.entries), e.entries) for e in letters)


def find_trace_witness(
    gens: Sequence[GroupElement],
    max_length: int,
    tol_real: float = AnalysisConfig.tol_real,
    budget: int = AnalysisConfig.budget,
) -> Optional[GroupElement]:
    """First word (enumeration order) with |Im tr| above tol_real, or None.

    This is the word trace_reality_report names on a NotReal verdict; the walk
    stops there instead of scanning the rest of the tree.
    """
    for element in enumerate_words(gens, max_length, budget):
        if abs(element.trace.imag) > tol_real:
            return element
    return None


def _construct(gens: Sequence[GroupElement], cfg: AnalysisConfig, stage) -> ClassificationResult:
    """The conjugator and its certificate, or Inconclusive with the reason it failed.

    BudgetExceeded propagates: the witness scan would exceed the same budget.
    """
    bound = certificate_bound(cfg.tol_real)
    try:
        a_lox = find_loxodromic(gens, cfg.max_word_length, cfg.tol_spec, cfg.budget)
        stage("find_loxodromic", "found", None)

        norm_gens, nf = normalize_group(gens, a_lox)
        stage("normalize_group", "ok", float(su31_residual(nf.conjugator.entries)))

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
            )

        c_inv = nf.conjugator.inverse()
        if case == CASE_I:
            verdict, conjugator = COMPACT_PRODUCT_FORM, c_inv
            certificate = case1_certify(conjugated_generators(conjugator, gens), bound)
            stage("case1_certify", "ok", certificate)
        else:
            basis = case2_build_real_span(
                enumerate_words(norm_gens, cfg.max_word_length, cfg.budget)
            )
            stage("case2_build_real_span", f"dim {basis.dim}", None)
            verdict, conjugator = REAL_FORM, case2_conjugator(basis) @ c_inv
            letters = conjugated_generators(conjugator, gens)
            certificate = max(norm_max(e.entries.imag) for e in letters)
            stage("case2_conjugator", "ok", certificate)
            if relative_certificate(verdict, letters) > bound:
                return ClassificationResult(
                    INCONCLUSIVE,
                    reason=f"real-form certificate {certificate:.3e} above the bound "
                    f"{bound:.1e} relative to the conjugated generators",
                )
        return ClassificationResult(verdict, conjugator=conjugator, certificate=certificate)

    except StageFailure as exc:
        stage(exc.stage, "failed", None)
        return ClassificationResult(INCONCLUSIVE, reason=exc.reason)
    except (IllConditioned, NotInGroup, NotLoxodromic, NotRealTrace) as exc:
        stage("spectral", "failed", None)
        return ClassificationResult(INCONCLUSIVE, reason=str(exc))


def classify_group(
    gens: Sequence[GroupElement],
    max_length: int = AnalysisConfig.max_word_length,
    config: Optional[AnalysisConfig] = None,
) -> ClassificationResult:
    """Full pipeline; every failure path yields an Inconclusive verdict.

    Construction first: a certified conjugator ends the call, having drawn only
    the few words its stages need from the word tree, so a positive verdict does
    not depend on the length bound.  Only when the construction fails does the trace scan
    look for a witness word; without one the verdict is Inconclusive with the
    construction's reason, and the failed stage is the last record.

    Word length, tolerances and budget come from ``config`` alone; ``max_length``
    only builds the default config when none is passed.
    """
    cfg = config or AnalysisConfig(max_word_length=max_length)
    stages: List[dict] = []

    def stage(name, status, residual=None):
        stages.append({"name": name, "status": status, "residual": residual})

    try:
        built = _construct(gens, cfg, stage)
    except BudgetExceeded as exc:
        stage("enumeration", "budget_exceeded", None)
        return ClassificationResult(INCONCLUSIVE, reason=str(exc), stages=stages)
    if built.verdict == INCONCLUSIVE:
        witness = find_trace_witness(gens, cfg.max_word_length, cfg.tol_real, cfg.budget)
        if witness is not None:
            im_trace = abs(witness.trace.imag)
            stage("trace_reality", NOT_REAL, im_trace)
            return ClassificationResult(
                NOT_REAL_TRACE,
                certificate=im_trace,
                witness=witness.word,
                reason="a word has non-real trace",
                stages=stages,
            )
    return replace(built, stages=stages)
