import numpy as np
import pytest

from su31cert import GroupElement, classify_group, is_su31, lemma22_branch
from su31cert.config import AnalysisConfig
from su31cert.engine import (
    CASE_AMBIGUOUS,
    CASE_I,
    CASE_II,
    COMPACT_PRODUCT_FORM,
    INCONCLUSIVE,
    NOT_REAL_TRACE,
    REAL_FORM,
    BlockViolation,
    StageFailure,
    case1_certify,
    case2_build_real_span,
    case2_conjugator,
    detect_case,
    find_branch_witness,
    find_loxodromic,
    normalize_group,
)
from su31cert.hermitian import norm_max, su31_inverse
from su31cert.tracefield import IMAGINARY_PAIR, REAL_PAIR, enumerate_words
from su31cert.corpus import (
    generic_corpus,
    product_form_corpus,
    random_so31,
    real_form_corpus,
    so31_loxodromic,
)


def diag_lox(u=2.0, theta=np.pi / 5):
    return GroupElement.certify(
        np.diag([u, np.exp(1j * theta), np.exp(-1j * theta), 1.0 / u])
    )


class TestFindLoxodromic:
    def test_diagonal_generator_found_immediately(self):
        g = diag_lox()
        assert find_loxodromic([g], 2).word in ((1,), (-1,))

    def test_finite_elliptic_group_not_found(self):
        rot = np.diag(np.exp(1j * np.array([0.0, np.pi / 2, -np.pi / 2, 0.0])))
        g = GroupElement.certify(rot)
        with pytest.raises(StageFailure):
            find_loxodromic([g], 4)


class TestNormalizeGroup:
    def test_round_trip_rediagonalizes(self):
        rng = np.random.default_rng(40)
        from su31cert.corpus import random_su31

        a = diag_lox(3.0, np.pi / 7)
        b = so31_loxodromic(rng)
        p = random_su31(rng)
        p_inv = np.linalg.inv(p.entries)
        gens = [
            GroupElement.certify(p.entries @ g.entries @ p_inv, tol=1e-7)
            for g in (a, b)
        ]
        norm_gens, nf = normalize_group(gens, gens[0])
        off = norm_gens[0].entries - np.diag(np.diag(norm_gens[0].entries))
        assert norm_max(off) <= 1e-8


class TestBranchWitness:
    def test_cyclic_diagonal_group_has_none(self):
        with pytest.raises(StageFailure):
            find_branch_witness([diag_lox()], 4)

    def test_swap_composition_has_corners(self):
        # A . antidiag(1,1,1,1) moves the corner entries off zero ...
        swap = GroupElement.certify(np.fliplr(np.eye(4)).astype(complex))
        m = (diag_lox() @ swap).entries
        assert abs(m[0, 3] * m[3, 0]) > 1e-3
        # ... but every such word is an involution (axis-swapping group),
        # so no loxodromic witness exists and the stage reports failure
        with pytest.raises(StageFailure):
            find_branch_witness([diag_lox(), swap], 3)

    def test_found_in_normalized_real_corpus(self):
        gens = real_form_corpus(6)
        a = find_loxodromic(gens, 2)
        norm_gens, _ = normalize_group(gens, a)
        b0 = find_branch_witness(norm_gens, 2)
        m = b0.entries
        assert abs(m[0, 3] * m[3, 0]) > 1e-6


class TestDetectCase:
    def _with_corners(self, d, q):
        m = np.eye(4, dtype=complex)
        m[0, 3] = d
        m[3, 0] = q
        return GroupElement(m, (), 0.0)  # synthetic, corners only matter here

    def test_imaginary_corners(self):
        assert detect_case(self._with_corners(2j, -0.5j)) == CASE_I

    def test_real_corners(self):
        assert detect_case(self._with_corners(2.0, -0.5)) == CASE_II

    def test_mixed_corners(self):
        assert detect_case(self._with_corners(1 + 1j, 1.0)) == CASE_AMBIGUOUS


class TestCaseI:
    def test_block_corpus_certifies(self):
        gens = product_form_corpus(3, conjugate=False)
        words = list(enumerate_words(gens, 3))
        assert case1_certify(words) <= 1e-9

    def test_real_form_violates(self):
        gens = real_form_corpus(3, conjugate=False)
        words = list(enumerate_words(gens, 2))
        with pytest.raises(BlockViolation):
            case1_certify(words)

    def test_corner_entries_imaginary_pairs(self):
        # the dichotomy picks the imaginary branch on the block corpus
        gens = product_form_corpus(4, conjugate=False)
        for e in enumerate_words(gens, 3):
            d = complex(e.entries[0, 3])
            q = complex(e.entries[3, 0])
            if abs(d * q) > 1e-6:
                assert lemma22_branch(d, q, tol=1e-7) == IMAGINARY_PAIR


class TestCaseII:
    def test_real_group_spans_r4(self):
        rng = np.random.default_rng(41)
        gens = [random_so31(rng) for _ in range(2)]
        words = list(enumerate_words(gens, 3))
        basis = case2_build_real_span(words)
        assert basis.dim == 4
        assert np.allclose(basis.gram, basis.gram.T, atol=1e-10)
        vals = np.linalg.eigvalsh(basis.gram)
        assert (vals < 0).sum() == 1 and (vals > 0).sum() == 3

    def test_identity_only_is_rank_deficient(self):
        from su31cert.engine import RankDeficient
        from su31cert.hermitian import identity_element

        with pytest.raises(RankDeficient) as exc:
            case2_build_real_span([identity_element()])
        assert exc.value.dim == 1

    def test_standard_basis_gives_identity_conjugator(self):
        from su31cert.engine import RealSpanBasis
        from su31cert.hermitian import J, herm_inner

        vectors = [np.eye(4, dtype=complex)[:, i] for i in (3, 1, 2, 0)]
        gram = np.array(
            [[herm_inner(vj, vi).real for vj in vectors] for vi in vectors]
        )
        d = case2_conjugator(RealSpanBasis(vectors, gram, 4))
        ok, _ = is_su31(d.entries, 1e-10)
        assert ok
        # conjugation by d keeps real matrices real
        rng = np.random.default_rng(42)
        g = random_so31(rng).entries
        conj = d.entries @ g @ su31_inverse(d.entries)
        assert norm_max(conj.imag) <= 1e-9

    def test_real_corpus_conjugator_realizes_group(self):
        gens = real_form_corpus(5)
        words = list(enumerate_words(gens, 3))
        a = find_loxodromic(gens, 2)
        norm_gens, nf = normalize_group(gens, a)
        norm_words = list(enumerate_words(norm_gens, 3))
        basis = case2_build_real_span(norm_words)
        d = case2_conjugator(basis)
        d_mat = d.entries
        d_inv = su31_inverse(d_mat)
        for e in norm_words:
            assert norm_max((d_mat @ e.entries @ d_inv).imag) <= 1e-7


class TestClassifyGroup:
    def test_real_form_corpus(self):
        res = classify_group(real_form_corpus(0), 4)
        assert res.verdict == REAL_FORM
        assert res.certificate <= 1e-6
        ok, _ = is_su31(res.conjugator.entries, 1e-8)
        assert ok

    def test_product_form_corpus(self):
        res = classify_group(product_form_corpus(0), 4)
        assert res.verdict == COMPACT_PRODUCT_FORM
        assert res.certificate <= 1e-6

    def test_generic_corpus(self):
        res = classify_group(generic_corpus(0), 4)
        assert res.verdict == NOT_REAL_TRACE
        assert res.witness is not None

    def test_cyclic_diagonal_inconclusive(self):
        res = classify_group([diag_lox()], 4)
        assert res.verdict == INCONCLUSIVE
        assert "corner" in res.reason or "witness" in res.reason

    def test_conjugator_actually_realifies(self):
        gens = real_form_corpus(9)
        res = classify_group(gens, 3)
        assert res.verdict == REAL_FORM
        d = res.conjugator.entries
        d_inv = su31_inverse(d)
        worst = max(
            norm_max((d @ e.entries @ d_inv).imag) for e in enumerate_words(gens, 3)
        )
        assert worst <= max(res.certificate, 1e-12) * 1.0000001

    def test_permutation_and_inverse_stability(self):
        for seed in range(5):
            gens = real_form_corpus(seed)
            base = classify_group(gens, 3).verdict
            assert classify_group(list(reversed(gens)), 3).verdict == base
            flipped = [gens[0].inverse(), gens[1]]
            assert classify_group(flipped, 3).verdict == base

    def test_budget_exceeded_is_inconclusive(self):
        cfg = AnalysisConfig(max_word_length=4, budget=10)
        res = classify_group(real_form_corpus(1), 4, cfg)
        assert res.verdict == INCONCLUSIVE
        assert "budget" in res.reason

    def test_report_json_shape(self):
        cfg = AnalysisConfig()
        res = classify_group(real_form_corpus(2), 3, cfg)
        data = res.to_json(cfg)
        assert data["verdict"] == REAL_FORM
        assert data["conjugator"] is not None
        assert data["config"]["max_word_length"] == 4
        assert all({"name", "status", "residual"} <= set(s) for s in data["stages"])


def membership_failure_generators():
    """Normalizing this group's first loxodromic gives a conjugator with residual 1.9e-8."""
    g1, g2 = real_form_corpus(0)
    word = g2 @ g1 @ g2 @ g1.inverse() @ g1.inverse() @ g2.inverse()  # (2, 1, 2, -1, -1, -2)
    return [g1, word.inverse()]


class TestConfigAndFailures:
    def test_membership_failure_is_inconclusive(self):
        res = classify_group(membership_failure_generators(), 3)
        assert res.verdict == INCONCLUSIVE
        assert "membership residual" in res.reason

    def test_config_is_the_only_source_of_word_length(self):
        cfg = AnalysisConfig(max_word_length=2, budget=30)
        res = classify_group(real_form_corpus(0), 4, cfg)
        assert res.verdict == REAL_FORM
        assert res.to_json(cfg)["config"]["max_word_length"] == 2
