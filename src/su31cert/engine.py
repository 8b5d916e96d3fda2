"""Group-level certification pipeline.

classify_group takes the steps below in one function, in the order given.
Past the word budget, the cheapest proof comes first: a generator with
|Im tr| > tol_real is a not_real_trace witness of length 1, the first
violator in enumeration order, so the call ends there with no conjugator
built.  Only groups whose generators all have real traces go on to the null
spaces.

If D g D^{-1} is real for every generator g, then M = conj(D)^{-1} D solves
conj(g) M = M g; if the group lies in a conjugate of SU(1,1)xSU(2), the
projections onto its two invariant planes commute with it.  Both are null
spaces of linear systems in the 16 entries of M over the generators and
their inverses, so no word, loxodromic or word length enters.  Their
dimensions (antilinear, commutant) pick the shape: antilinear dimension 1 is
the real form, D from D0 = I + mu M and a real congruence of D0's form to J;
(2, 2) with planes of J-signature (1,1) and (2,0) is the product form, D from
J-orthonormal frames of the planes; a commutant above dimension 2 (a group
fixing a complex line pointwise) is the product form on the two-dimensional
center of the commutant algebra.  (0, 1) is neither real form at NULL_TOL:
the trace scan runs first, and only without a witness are the nearest shapes
tried, the smallest antilinear vector as a real form and the two smallest
commutant vectors as a product form.

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

When no D is certified, the reduced words up to the length bound are scanned,
stopping at the first one with |Im tr| > tol_real.  That word is the
not_real_trace witness and |Im tr| of it is the certificate, re-checkable from
the generators and the word alone.  Without a witness the verdict is
Inconclusive; the pipeline never claims more than its residuals certify.

The paper's construction stays as library code with no caller here: find a
loxodromic (find_loxodromic), diagonalize it (normalize_group), find a second
loxodromic whose corner product d*q is structurally nonzero
(find_branch_witness), branch on whether d, q are purely imaginary or real
(detect_case), then certify the block form (case1_certify) or span a totally
real subspace and build its conjugator (case2_build_real_span,
case2_conjugator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import AnalysisConfig
from .hermitian import (
    GroupElement,
    NotInGroup,
    j_gram,
    matrix_to_json,
    norm_max,
    su31_inverse,
    su31_residual,
)
from .elements import (
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
    reduced_word_count,
    trace_reality_report,  # noqa: F401  (perfbench's traced run wraps engine.trace_reality_report)
)

REAL_FORM = "real_form"
COMPACT_PRODUCT_FORM = "compact_product_form"
NOT_REAL_TRACE = "not_real_trace"
INCONCLUSIVE = "inconclusive"

CASE_I = "case_i"
CASE_II = "case_ii"
CASE_AMBIGUOUS = "ambiguous"

CORNER_TOL = 1e-6      # find_branch_witness: |d q| below this share of |m|_max is a structural zero
BRANCH_TOL = 1e-6      # detect_case: relative tolerance of the real-vs-imaginary dichotomy
SPAN_IMAG_TOL = 1e-7   # |Im <v_i, v_j>| / scale^2 above this is no rounding of a Gram entry
SPAN_RANK_TOL = 1e-9   # singular-value ratios below this are rounding, not a new direction
NULL_TOL = 1e-9        # singular values of a system below this share of the largest are null
SHAPE_TOL = 1e-6       # M conj(M) or C^2 further than this from a scalar leaves the shape undecided
CONJUGATOR_TOL = 1e-8  # D's membership bound; Gram eigenvalues nearer 0 make D ill-conditioned
# The certificate bound is tol_real * CERT_SHARE, relative to max(1, |D g D^-1|_max).
# A relative deviation of the generators from the target form reaches |Im tr|
# of some word of length <= 4 up to 525 times larger (the largest ratio in
# scripts/sweep_near_real.txt, at the null-space step's conjugators), so a
# bound of tol_real / 525 keeps a certified group within tol_real up to
# length 4; CERT_SHARE is that with a 20% margin (1/630), rounded down.
# Clean inputs sit far below it: over seeds 0-1199 of both kinds the largest
# relative certificate is 1.1e-14.
CERT_SHARE = 1.5e-3

# True on the corner + middle block pattern of SU(1,1)xSU(2)
_BLOCK = np.zeros((4, 4), dtype=bool)
_BLOCK[np.ix_([0, 3], [0, 3])] = _BLOCK[1:3, 1:3] = True
_SWAP2 = np.array([[0, 1], [1, 0]], dtype=complex)
# The unit factors mu tried in D0 = I + mu M
_UNIT_MU = np.exp(0.5j * np.pi * np.arange(4))
# Takes diag(-1, 1, 1, 1) to J: columns 1 and 4 are a null pair with <e1, e4> = 1
_NULL_CONE = np.array(
    [[1, 0, 0, -1], [0, np.sqrt(2), 0, 0], [0, 0, np.sqrt(2), 0], [1, 0, 0, 1]]
) / np.sqrt(2)


class StageFailure(RuntimeError):
    """Raised by a stage of the paper's construction, or by a conjugator that cannot be built."""

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


def find_loxodromic(gens: Sequence[GroupElement], max_length: int) -> GroupElement:
    """First word (enumeration order) classified loxodromic."""
    for element in enumerate_words(gens, max_length):
        if is_loxodromic(element):
            return element
    raise StageFailure("find_loxodromic", "no loxodromic word within the budget")


def normalize_group(gens: Sequence[GroupElement], a_lox: GroupElement):
    """Conjugate so a_lox becomes diagonal with fixed points 0 and infinity."""
    nf = normalize_loxodromic(a_lox)
    c = nf.conjugator.entries
    c_inv = su31_inverse(c)
    return [GroupElement(c_inv @ g.entries @ c, g.word) for g in gens], nf


def find_branch_witness(gens: Sequence[GroupElement], max_length: int) -> GroupElement:
    """First loxodromic word with |d q| above the structural-zero threshold.

    Works in normalized coordinates; d and q are the (1,4) and (4,1) entries.
    Absence means every loxodromic found shares an axis endpoint with the
    normalized diagonal, which the caller reports as Inconclusive.
    """
    for element in enumerate_words(gens, max_length):
        m = element.entries
        if abs(m[0, 3] * m[3, 0]) > CORNER_TOL * norm_max(m) and is_loxodromic(element):
            return element
    raise StageFailure(
        "find_branch_witness",
        "no loxodromic word with structurally nonzero corner entries; "
        "the group may be elementary or the word budget too small",
    )


def detect_case(b0: GroupElement) -> str:
    """Case I for purely imaginary corners d, q; Case II for real ones (Lemma 2.2)."""
    branch = lemma22_branch(b0.entries[0, 3], b0.entries[3, 0], tol=BRANCH_TOL)
    return {IMAGINARY_PAIR: CASE_I, REAL_PAIR: CASE_II}.get(branch, CASE_AMBIGUOUS)


def _case1_word_residual(m: np.ndarray):
    """Block-form residual of m, or of each matrix of a stack m[..., 4, 4]."""
    def entry_max(x):
        return np.abs(x).max(axis=(-2, -1))

    def adjoint(x):
        return np.swapaxes(x.conj(), -1, -2)

    corner = m[..., [0, 3], :][..., [0, 3]]
    middle = m[..., 1:3, 1:3]
    return np.max(
        [
            entry_max(np.where(_BLOCK, 0, m)),
            entry_max(adjoint(corner) @ _SWAP2 @ corner - _SWAP2),
            np.abs(np.linalg.det(corner) - 1.0),
            entry_max(adjoint(middle) @ middle - np.eye(2)),
            np.abs(np.linalg.det(middle) - 1.0),
        ],
        axis=0,
    )


def certificate_bound(tol_real: float = AnalysisConfig.tol_real) -> float:
    """The bound on each relative certificate: tol_real * CERT_SHARE."""
    return tol_real * CERT_SHARE


def case1_certify(words: Sequence[GroupElement]) -> float:
    """Max block-form residual over the words; raises BlockViolation above
    certificate_bound() * max(1, |m|_max)."""
    bound = certificate_bound()
    certificate = 0.0
    for element in words:
        res = _case1_word_residual(element.entries)
        if res / max(1.0, norm_max(element.entries)) > bound:
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
    gram_c = j_gram(np.column_stack(basis))
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

    W holds the basis as columns; W* J W is real symmetric of signature (3,1).
    """
    if basis.dim != 4:
        raise RankDeficient(basis.dim, basis.vectors)
    return _real_congruence(np.column_stack(basis.vectors))[0]


def _real_congruence(w: np.ndarray) -> Tuple[GroupElement, float]:
    """(D, its membership residual) for D = (W R)^{-1}, R real and (W R)* J (W R) = J,
    for W* J W real of signature (3,1).

    R is assembled from the symmetric eigendecomposition of the Gram matrix, so
    D M D^{-1} is real wherever W^{-1} M W is.
    """
    vals, q = np.linalg.eigh(j_gram(w).real)
    scale = float(np.max(np.abs(vals)))
    tol = CONJUGATOR_TOL * scale
    if vals[0] > -tol or vals[1] < tol or (vals[1:] <= 0).any():
        reason = f"Gram eigenvalues {np.round(vals, 6).tolist()} are not signature (3,1)"
        raise StageFailure("case2_conjugator", reason)
    return _frame_conjugator(w @ (q / np.sqrt(np.abs(vals))))


def _frame_conjugator(f: np.ndarray) -> Tuple[GroupElement, float]:
    """(D, its membership residual) for D = F^{-1} phase-scaled to det 1, with F from
    J-orthogonal columns f of J-norms -1, 1, 1, 1; NotInGroup above CONJUGATOR_TOL.

    F has columns (f1 + f4)/sqrt 2, f2, f3, (f4 - f1)/sqrt 2: the first and
    last are null with <F e1, F e4> = 1, so F* J F = J.
    """
    wr = f @ _NULL_CONE
    det = np.linalg.det(wr)
    d = su31_inverse(wr * np.exp(-1j * np.angle(det) / 4.0))
    residual = su31_residual(d)
    if residual > CONJUGATOR_TOL:
        raise NotInGroup(residual, CONJUGATOR_TOL)
    d.flags.writeable = False
    return GroupElement(d), residual


def generator_letters(gens: Sequence[GroupElement]) -> np.ndarray:
    """Each generator and its inverse, as a (2k, 4, 4) stack: g1, g1^-1, g2, g2^-1, ..."""
    mats = [m for g in gens for m in (g.entries, su31_inverse(g.entries))]
    return np.array(mats).reshape(-1, 4, 4)


def _letter_labels(letters: np.ndarray) -> List[int]:
    """The signed generator index of each row of generator_letters: 1, -1, 2, -2, ..."""
    return [sign * i for i in range(1, len(letters) // 2 + 1) for sign in (1, -1)]


def conjugated_generators(d: GroupElement, letters: np.ndarray) -> List[GroupElement]:
    """D m D^{-1} for each m of generator_letters(gens), labelled as the words (i,) and (-i,)."""
    d_mat = d.entries
    d_inv = su31_inverse(d_mat)
    return [
        GroupElement(d_mat @ m @ d_inv, (label,))
        for label, m in zip(_letter_labels(letters), letters)
    ]


def _certificate(verdict: str, letters: Sequence[GroupElement]):
    """(absolute, relative) certificate: the largest target-shape residual over the letters,
    as it is and relative to each letter's max(1, |m|_max).
    """
    mats = np.array([e.entries for e in letters])
    if verdict == COMPACT_PRODUCT_FORM:
        residuals = _case1_word_residual(mats)
    else:
        residuals = np.abs(mats.imag).max(axis=(1, 2))
    scales = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
    return float(residuals.max()), float((residuals / scales).max())


def relative_certificate(verdict: str, letters: Sequence[GroupElement]) -> float:
    """Largest target-shape residual of the conjugated generators, each relative to max(1, |m|_max).

    letters is conjugated_generators(D, gens); this is the quantity
    certificate_bound() limits for a positive verdict.
    """
    return _certificate(verdict, letters)[1]


def intertwiner_systems(letters: np.ndarray) -> np.ndarray:
    """The antilinear and the commutant system in row-major vec(M), as a (2, 32k, 16) stack.

    conj(g) M = M g has rows kron(conj(g), I) - kron(I, g^T) and g M = M g has
    rows kron(g, I) - kron(I, g^T), one 16-row block for each g of
    generator_letters(gens), scaled by 1/max(1, |g|_max).
    """
    mats = letters / np.maximum(1.0, np.abs(letters).max(axis=(1, 2)))[:, None, None]
    eye = np.eye(4)
    right = eye[None, :, None, :, None] * mats.transpose(0, 2, 1)[:, None, :, None, :]
    left = np.stack([mats.conj(), mats])[:, :, :, None, :, None] * eye[:, None, :]
    return (left - right).reshape(2, -1, 16)


def _null_basis(system: np.ndarray, dim: int) -> np.ndarray:
    """The dim right singular vectors of smallest singular value, as 4x4 matrices."""
    return np.linalg.svd(system, full_matrices=False)[2][-dim:].conj().reshape(-1, 4, 4)


def _real_form_conjugator(m: np.ndarray) -> Optional[Tuple[GroupElement, float]]:
    """(D, its membership residual) with D g D^{-1} real for every g with conj(g) M = M g,
    or None if M is no real structure.

    Scaled so that M conj(M) = I, M = conj(D0)^{-1} D0 up to a unit factor for
    D0 = I + mu M with any unit mu; of four, the mu that keeps D0 best
    conditioned is taken.  D0 g D0^{-1} is real and preserves the real form
    D0^{-*} J D0^{-1}, which _real_congruence takes to J.
    """
    c = np.trace(m @ m.conj()) / 4.0
    if c.real <= 0 or abs(c.imag) > SHAPE_TOL * c.real:
        return None
    d0 = np.eye(4) + _UNIT_MU[:, None, None] * (m / np.sqrt(c.real))
    d0 = d0[np.argmin(np.linalg.cond(d0))]
    return _real_congruence(np.linalg.inv(d0))


def _product_form_conjugator(commutant: np.ndarray) -> Optional[Tuple[GroupElement, float]]:
    """(D, its membership residual) with D taking the two invariant planes to the blocks
    of SU(1,1)xSU(2), or None.

    Of the two commutant elements, the one furthest from a scalar is taken
    trace-free: C = a (P - (I - P)) for the projection P onto one plane, so
    C^2 = a^2 I exactly when the planes are 2-dimensional.  The plane of
    J-signature (1,1) goes to e1, e4 and the one of signature (2,0) to e2, e3.
    """
    c = commutant - np.trace(commutant, axis1=1, axis2=2)[:, None, None] / 4.0 * np.eye(4)
    c = c[np.argmax(np.abs(c).max(axis=(1, 2)))]
    a2 = np.trace(c @ c) / 4.0
    if norm_max(c @ c - a2 * np.eye(4)) > SHAPE_TOL * abs(a2):
        return None
    proj = 0.5 * (np.eye(4) + c / np.sqrt(a2))
    planes = np.linalg.svd(np.stack([proj, np.eye(4) - proj]))[0][:, :, :2]
    vals, vecs = np.linalg.eigh(j_gram(planes))
    tol = CONJUGATOR_TOL * np.abs(vals).max()
    lorentz = vals[:, 0] < -tol
    if (np.abs(vals) <= tol).any() or lorentz.sum() != 1:
        return None
    frames = planes @ (vecs / np.sqrt(np.abs(vals))[:, None, :])
    (y, x), (x2, x3) = frames[np.argmax(lorentz)].T, frames[np.argmin(lorentz)].T
    return _frame_conjugator(np.column_stack([y, x2, x3, x]))


def _commutant_center(commutant: np.ndarray) -> np.ndarray:
    """A basis of the center of the algebra spanned by an orthonormal commutant basis.

    Z = sum x_i C_i is central when sum x_i [C_i, C_j] = 0 for every j; the
    brackets of orthonormal C_i are of order 1, so NULL_TOL applies as it is.
    """
    brackets = commutant[:, None] @ commutant[None] - commutant[None] @ commutant[:, None]
    _, sv, vh = np.linalg.svd(brackets.reshape(len(commutant), -1).T, full_matrices=False)
    return np.tensordot(vh[sv <= NULL_TOL].conj(), commutant, axes=1)


def null_spaces(letters: np.ndarray, stage):
    """The two intertwiner systems of generator_letters(gens) and the dimensions
    (antilinear, commutant) of their null spaces."""
    systems = intertwiner_systems(letters)
    sv = np.linalg.svd(systems, compute_uv=False)
    rel = sv / np.maximum(sv[:, :1], np.finfo(float).tiny)
    null = rel <= NULL_TOL
    dims = tuple(int(n) for n in null.sum(axis=1))
    stage("null_space", f"dims {dims}", float(np.max(rel, where=null, initial=0.0)), NULL_TOL)
    return systems, dims


def _shape_forms(dims) -> tuple:
    """The target forms the null-space dimensions point to, in the order they are tried."""
    anti, comm = dims
    if anti == 1:
        return (REAL_FORM,)
    if dims == (2, 2) or comm > 2:
        return (COMPACT_PRODUCT_FORM,)
    if dims == (0, 1):  # neither form at NULL_TOL: the nearest shapes
        return (REAL_FORM, COMPACT_PRODUCT_FORM)
    return ()


def _shape_conjugator(
    verdict: str, systems: np.ndarray, comm: int
) -> Optional[Tuple[GroupElement, float]]:
    """The verdict's conjugator read off the null spaces with its membership residual,
    or None where they give none."""
    try:
        if verdict == REAL_FORM:
            return _real_form_conjugator(_null_basis(systems[0], 1)[0])
        planes = _null_basis(systems[1], max(comm, 2))
        if comm > 2:
            planes = _commutant_center(planes)
        return _product_form_conjugator(planes) if len(planes) == 2 else None
    except (StageFailure, NotInGroup, np.linalg.LinAlgError):
        return None


def classify_group(
    gens: Sequence[GroupElement],
    max_length: int = AnalysisConfig.max_word_length,
    config: Optional[AnalysisConfig] = None,
) -> ClassificationResult:
    """Full pipeline; every input gets a verdict, and no exception of a stage leaves it.

    In order: a word count over the budget is Inconclusive before anything
    runs; the traces of the generators and their inverses, the first non-real
    one in enumeration order being the witness; the null spaces; for
    dimensions (0, 1) the witness scan; the conjugator of each shape,
    certified at the generators, which ends the call so that a positive
    verdict does not depend on the length bound; the witness scan, if no
    conjugator is certified and it has not run; Inconclusive.  The scan stops
    at the first reduced word with |Im tr| > tol_real.  A record that
    compares its residual with a tolerance carries it as ``tol``.

    Word length, tolerances and budget come from ``config`` alone; ``max_length``
    only builds the default config when none is passed.
    """
    cfg = config or AnalysisConfig(max_word_length=max_length)
    stages: List[dict] = []

    def stage(name, status, residual=None, tol=None):
        record = {"name": name, "status": status, "residual": residual}
        if tol is not None:
            record["tol"] = tol
        stages.append(record)

    def witness_verdict(word, im_trace) -> ClassificationResult:
        stage("trace_reality", NOT_REAL, im_trace, cfg.tol_real)
        return ClassificationResult(
            NOT_REAL_TRACE,
            certificate=im_trace,
            witness=word,
            reason="a word has non-real trace",
            stages=stages,
        )

    def scan_verdict() -> Optional[ClassificationResult]:
        for element in enumerate_words(gens, cfg.max_word_length, cfg.budget):
            if abs(element.trace.imag) > cfg.tol_real:
                return witness_verdict(element.word, abs(element.trace.imag))
        return None

    count = reduced_word_count(len(gens), cfg.max_word_length)
    if count > cfg.budget:
        stage("enumeration", "budget_exceeded", None)
        reason = str(BudgetExceeded(count, cfg.budget))
        return ClassificationResult(INCONCLUSIVE, reason=reason, stages=stages)
    letters = generator_letters(gens)
    im_traces = np.abs(np.trace(letters, axis1=1, axis2=2).imag).tolist()
    im_by_letter = dict(zip(_letter_labels(letters), im_traces))
    for letter in sorted(im_by_letter):  # enumeration order -k, ..., -1, 1, ..., k
        if im_by_letter[letter] > cfg.tol_real:
            return witness_verdict((letter,), im_by_letter[letter])
    systems, dims = null_spaces(letters, stage)
    scanned = dims == (0, 1)
    witness = scan_verdict() if scanned else None
    if witness is not None:
        return witness
    bound = certificate_bound(cfg.tol_real)
    for verdict in _shape_forms(dims):
        built = _shape_conjugator(verdict, systems, dims[1])
        if built is None:
            stage("null_space_conjugator", "undecided", None)
            continue
        d, residual = built
        stage("null_space_conjugator", verdict, float(residual), CONJUGATOR_TOL)
        absolute, relative = _certificate(verdict, conjugated_generators(d, letters))
        stage("certificate", "ok" if relative <= bound else "above_bound", relative, bound)
        if relative <= bound:
            return ClassificationResult(verdict, conjugator=d, certificate=absolute, stages=stages)
    witness = None if scanned else scan_verdict()
    if witness is not None:
        return witness
    return ClassificationResult(
        INCONCLUSIVE,
        reason=f"null spaces of dimensions {dims} give no conjugator certified at the "
        f"generators, and no word up to length {cfg.max_word_length} is a witness "
        "of non-real trace",
        stages=stages,
    )
