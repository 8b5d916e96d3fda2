import numpy as np
import pytest
from scipy.linalg import expm

from su31cert import GroupElement, classify_group, is_su31, lemma22_branch
from su31cert.config import AnalysisConfig
from su31cert import engine
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
    certificate_bound,
    conjugated_generators,
    detect_case,
    find_branch_witness,
    find_loxodromic,
    normalize_group,
    relative_certificate,
    NULL_TOL,
    generator_letters,
    intertwiner_systems,
)
from su31cert.hermitian import identity_element, norm_max, su31_inverse
from su31cert.tracefield import IMAGINARY_PAIR, REAL_PAIR, enumerate_words, trace_reality_report
from su31cert.corpus import (
    generic_corpus,
    make_corpus,
    product_form_corpus,
    random_su31,
    random_so31,
    random_su31_algebra,
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
        return GroupElement(m, ())  # synthetic, corners only matter here

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
        assert [(s["name"], s["status"]) for s in res.stages] == [
            ("null_space", "dims (4, 4)"),
            ("null_space_conjugator", "undecided"),
        ]

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
        records = [(s["name"], s["status"]) for s in res.stages]
        assert records == [("enumeration", "budget_exceeded")]

    def test_report_json_shape(self):
        cfg = AnalysisConfig()
        res = classify_group(real_form_corpus(2), 3, cfg)
        data = res.to_json(cfg)
        assert data["verdict"] == REAL_FORM
        assert data["conjugator"] is not None
        assert data["config"]["max_word_length"] == 4
        assert all({"name", "status", "residual"} <= set(s) for s in data["stages"])


class TestConfigAndFailures:
    def test_config_is_the_only_source_of_word_length(self):
        cfg = AnalysisConfig(max_word_length=2, budget=30)
        res = classify_group(real_form_corpus(0), 4, cfg)
        assert res.verdict == REAL_FORM
        assert res.to_json(cfg)["config"]["max_word_length"] == 2


def recheck_certificate(gens, res):
    """The certificate rebuilt in plain numpy from the raw generators and the conjugator.

    For not_real_trace it is |Im tr| of the witness word, multiplied out from the generators.
    """
    if res.verdict == NOT_REAL_TRACE:
        m = np.eye(4, dtype=complex)
        for letter in res.witness:
            g = gens[abs(letter) - 1].entries
            m = m @ (g if letter > 0 else np.linalg.inv(g))
        return abs(np.trace(m).imag)
    d = res.conjugator.entries
    d_inv = np.linalg.inv(d)
    letters = [d @ m @ d_inv for g in gens for m in (g.entries, np.linalg.inv(g.entries))]
    if res.verdict == REAL_FORM:
        return max(np.abs(m.imag).max() for m in letters)
    swap = np.array([[0, 1], [1, 0]])
    worst = 0.0
    for m in letters:
        corner = m[np.ix_([0, 3], [0, 3])]
        middle = m[1:3, 1:3]
        off = m.copy()
        off[np.ix_([0, 3], [0, 3])] = 0
        off[1:3, 1:3] = 0
        worst = max(
            worst,
            np.abs(off).max(),
            np.abs(corner.conj().T @ swap @ corner - swap).max(),
            abs(np.linalg.det(corner) - 1),
            np.abs(middle.conj().T @ middle - np.eye(2)).max(),
            abs(np.linalg.det(middle) - 1),
        )
    return worst


class TestGeneratorCertificate:
    def test_long_product_word_does_not_break_the_verdict(self):
        res = classify_group(product_form_corpus(1038324247), 7)
        assert res.verdict == COMPACT_PRODUCT_FORM, res.reason

    @pytest.mark.parametrize("make", [real_form_corpus, product_form_corpus])
    def test_rechecked_from_generators_and_independent_of_length(self, make):
        for seed in range(5):
            gens = make(seed)
            short = classify_group(gens, 3)
            long = classify_group(gens, 6)
            assert short.verdict in (REAL_FORM, COMPACT_PRODUCT_FORM)
            assert abs(recheck_certificate(gens, short) - short.certificate) <= 1e-12
            assert long.certificate == short.certificate

    def test_violation_names_the_generator(self):
        from su31cert.engine import conjugated_generators

        gens = real_form_corpus(3, conjugate=False)
        with pytest.raises(BlockViolation) as exc:
            case1_certify(conjugated_generators(identity_element(), generator_letters(gens)))
        assert exc.value.word in ((1,), (-1,), (2,), (-2,))


def near_real(gens, eps, seed):
    """gens with generator 2 multiplied by exp(eps X), X a seeded su(3,1) element with |X|_max = 1."""
    x = random_su31_algebra(np.random.default_rng(10_000 + seed))
    x /= norm_max(x)
    return [gens[0], GroupElement.certify(gens[1].entries @ expm(eps * x))]


@pytest.fixture
def words_walked(monkeypatch):
    """Count of the words the engine draws from enumerate_words."""
    walked = [0]

    def counting(*args, **kwargs):
        for element in enumerate_words(*args, **kwargs):
            walked[0] += 1
            yield element

    monkeypatch.setattr(engine, "enumerate_words", counting)
    return walked


class TestConstructionFirst:
    @pytest.mark.parametrize("make", [real_form_corpus, product_form_corpus])
    def test_positive_verdict_walks_the_same_words_at_every_length(self, make, words_walked):
        for seed in range(5):
            counts = []
            for length in (4, 7):
                words_walked[0] = 0
                res = classify_group(make(seed), length)
                assert res.verdict in (REAL_FORM, COMPACT_PRODUCT_FORM), res.reason
                counts.append(words_walked[0])
            assert counts[0] == counts[1], (seed, counts)

    def test_rejection_stops_at_the_first_witness(self, words_walked):
        for seed in range(3):
            words_walked[0] = 0
            res = classify_group(generic_corpus(seed), 8)
            assert res.verdict == NOT_REAL_TRACE
            assert words_walked[0] < 50, (seed, words_walked[0])

    def test_witness_is_the_first_violator_and_rechecks(self):
        for seed in range(5):
            gens = generic_corpus(seed)
            res = classify_group(gens, 4)
            assert res.verdict == NOT_REAL_TRACE
            assert res.witness == trace_reality_report(gens, 4).witness_word
            assert res.certificate > AnalysisConfig.tol_real
            assert abs(recheck_certificate(gens, res) - res.certificate) <= 1e-12 * max(
                1.0, res.certificate
            )
            assert res.stages[-1]["name"] == "trace_reality"

    def test_near_real_product_group_is_not_certified(self):
        for seed in range(5):
            gens = near_real(product_form_corpus(seed), 1e-8, seed)
            res = classify_group(gens, 4)
            assert res.verdict == NOT_REAL_TRACE, (seed, res.verdict, res.reason)
            assert recheck_certificate(gens, res) > AnalysisConfig.tol_real

    @pytest.mark.parametrize(
        "eps, certified",
        # product_form seed 4, whose generator deviation is amplified the most in
        # words up to length 4: relative certificates 1.42e-11 and 2.12e-11
        # against the bound of 1.5e-11
        [(2.95e-11, True), (4.42e-11, False)],
    )
    def test_certificate_bound_keeps_length_4_words_real(self, eps, certified):
        gens = near_real(product_form_corpus(4), eps, 4)
        lifted = classify_group(gens, config=AnalysisConfig(tol_real=1.0))
        rel = relative_certificate(
            lifted.verdict, conjugated_generators(lifted.conjugator, generator_letters(gens))
        )
        assert (rel <= certificate_bound()) == certified, rel
        scan = trace_reality_report(gens, 4)
        res = classify_group(gens, 4)
        if certified:
            assert res.verdict == COMPACT_PRODUCT_FORM
            assert scan.verdict == "all_real"
        else:
            assert scan.verdict == "not_real"
            assert res.verdict == NOT_REAL_TRACE
            assert res.witness == scan.witness_word

    @pytest.mark.parametrize("make", [real_form_corpus, product_form_corpus])
    def test_positive_verdict_is_within_the_bound(self, make):
        for seed in range(5):
            gens = make(seed)
            res = classify_group(gens, 4)
            letters = conjugated_generators(res.conjugator, generator_letters(gens))
            assert relative_certificate(res.verdict, letters) <= certificate_bound()

    def test_one_certificate_tolerance(self):
        assert "tol_cert" not in AnalysisConfig().to_json()


class TestGeneratorTracesFirst:
    """A generator with |Im tr| > tol_real is the witness before any null space is built."""

    @pytest.mark.parametrize("length", [4, 8])
    def test_generic_groups_never_reach_the_null_spaces(self, monkeypatch, length):
        def no_null_spaces(*args, **kwargs):
            raise AssertionError("classify_group built the null spaces")

        monkeypatch.setattr(engine, "null_spaces", no_null_spaces)
        for seed in range(10):
            gens = generic_corpus(seed)
            res = classify_group(gens, length)
            assert res.verdict == NOT_REAL_TRACE, (seed, res.reason)
            assert [s["name"] for s in res.stages] == ["trace_reality"]
            assert res.stages[0]["tol"] == AnalysisConfig.tol_real
            assert res.witness == trace_reality_report(gens, length).witness_word
            assert abs(recheck_certificate(gens, res) - res.certificate) <= 1e-12 * max(
                1.0, res.certificate
            )

    def test_non_real_generator_trace_beats_a_relative_certificate(self):
        # real_form corpus 2, both generators to the 12th power, the second times
        # exp(5e-12 X): with |g|_max about 6e3 the relative certificate of the
        # real-form conjugator is within the bound, yet |Im tr| of the second
        # generator is 4.07e-8
        g1, g2 = real_form_corpus(2)
        x = random_su31_algebra(np.random.default_rng(10_002))
        x /= norm_max(x)
        a = np.linalg.matrix_power(g1.entries, 12)
        b = np.linalg.matrix_power(g2.entries, 12) @ expm(5e-12 * x)
        gens = [GroupElement(a), GroupElement(b)]  # membership residual 1.1e-8
        res = classify_group(gens, 4)
        assert res.verdict == NOT_REAL_TRACE, res.reason
        assert res.witness == (-2,)
        assert recheck_certificate(gens, res) > AnalysisConfig.tol_real


class TestRealPlaneStabilizer:
    """Groups in a conjugate of SO(2,1): some words are elliptic with eigenvalues
    e^{+-i phi}, 1, 1, on which building boundary fixed points fails."""

    @pytest.mark.parametrize("length", [4, 7])
    def test_every_seed_is_inconclusive_without_an_exception(self, so21_group, length):
        cfg = AnalysisConfig(max_word_length=length)
        for seed in range(40):
            res = classify_group(so21_group(seed), config=cfg)
            assert res.verdict == INCONCLUSIVE, (seed, res.verdict, res.reason)
            assert [(s["name"], s["status"]) for s in res.stages] == [
                ("null_space", "dims (2, 2)"),
                ("null_space_conjugator", "undecided"),
            ], seed
            assert res.stages[1]["residual"] is None
            assert "(2, 2)" in res.reason


class TestComplexLineStabilizer:
    """Groups in a conjugate of SU(1,1)x{I}: null spaces of dimensions (5, 5)."""

    @pytest.mark.parametrize("length", [4, 7])
    def test_every_seed_is_certified_in_the_product_form(self, c_fuchsian_group, length):
        cfg = AnalysisConfig(max_word_length=length)
        for seed in range(40):
            gens = c_fuchsian_group(seed)
            res = classify_group(gens, config=cfg)
            assert res.stages[0]["status"] == "dims (5, 5)", seed
            assert [s["name"] for s in res.stages] == [
                "null_space",
                "null_space_conjugator",
                "certificate",
            ], seed
            assert_certified(gens, res, COMPACT_PRODUCT_FORM)


def test_the_paper_construction_is_never_run(monkeypatch, so21_group, c_fuchsian_group):
    def stage_called(*args, **kwargs):
        raise AssertionError("classify_group ran a stage of the paper's construction")

    for name in ("find_loxodromic", "normalize_group", "find_branch_witness"):
        monkeypatch.setattr(engine, name, stage_called)
    families = [
        (real_form_corpus, REAL_FORM),
        (product_form_corpus, COMPACT_PRODUCT_FORM),
        (generic_corpus, NOT_REAL_TRACE),
        (so21_group, INCONCLUSIVE),
        (c_fuchsian_group, COMPACT_PRODUCT_FORM),
    ]
    for make, verdict in families:
        for seed in range(5):
            assert classify_group(make(seed), 4).verdict == verdict, (make, seed)


def word_of(gens, word):
    element = identity_element()
    for letter in word:
        g = gens[abs(letter) - 1]
        element = element @ (g if letter > 0 else g.inverse())
    return element


def assert_certified(gens, res, verdict):
    assert res.verdict == verdict, res.reason
    assert abs(recheck_certificate(gens, res) - res.certificate) <= 1e-12
    letters = conjugated_generators(res.conjugator, generator_letters(gens))
    assert relative_certificate(res.verdict, letters) <= certificate_bound()


class TestNullSpaceConstruction:
    def test_systems_are_the_kronecker_rows(self):
        gens = generic_corpus(3)
        letters = []
        for g in gens:
            for m in (g.entries, su31_inverse(g.entries)):
                letters.append(m / max(1.0, norm_max(m)))
        eye = np.eye(4)
        anti = np.vstack([np.kron(m.conj(), eye) - np.kron(eye, m.T) for m in letters])
        comm = np.vstack([np.kron(m, eye) - np.kron(eye, m.T) for m in letters])
        systems = intertwiner_systems(generator_letters(gens))
        assert systems.shape == (2, 64, 16)
        assert norm_max(systems[0] - anti) <= 1e-15
        assert norm_max(systems[1] - comm) <= 1e-15

    @pytest.mark.parametrize(
        "kind, dims", [("real_form", "(1, 1)"), ("product_form", "(2, 2)"), ("generic", "(0, 1)")]
    )
    def test_dimensions_by_kind(self, kind, dims):
        for seed in range(10):
            records = []
            letters = generator_letters(make_corpus(kind, seed))
            engine.null_spaces(letters, lambda *record: records.append(record))
            assert records[0][0] == "null_space"
            assert records[0][1] == f"dims {dims}"

    @pytest.mark.parametrize("kind", ["real_form", "product_form"])
    def test_positive_verdict_records_every_residual_against_its_tolerance(self, kind):
        for seed in range(10):
            res = classify_group(make_corpus(kind, seed), 7)
            names = [s["name"] for s in res.stages]
            assert names == ["null_space", "null_space_conjugator", "certificate"], names
            assert all(s["residual"] is not None and s["residual"] <= s["tol"] for s in res.stages)
            assert res.stages[0]["tol"] == NULL_TOL
            assert res.stages[-1]["tol"] == certificate_bound()

    def test_positive_verdict_draws_no_word(self, words_walked):
        for make in (real_form_corpus, product_form_corpus):
            for seed in range(5):
                assert classify_group(make(seed), 7).verdict in (REAL_FORM, COMPACT_PRODUCT_FORM)
        assert words_walked[0] == 0

    def test_no_intertwiner_goes_straight_to_the_scan(self):
        # generator traces within tol_real (|Im tr| 2.8e-9), dimensions (0, 1),
        # witness (-2, -2)
        res = classify_group(near_real(product_form_corpus(0), 1e-8, 0), 8)
        assert [s["name"] for s in res.stages] == ["null_space", "trace_reality"]
        assert res.verdict == NOT_REAL_TRACE

    @pytest.mark.parametrize(
        "make, verdict",
        [(product_form_corpus, COMPACT_PRODUCT_FORM), (real_form_corpus, REAL_FORM)],
    )
    def test_deviation_above_the_null_tolerance_meets_a_large_tol_real(self, make, verdict):
        # no null vector at NULL_TOL and no witness at tol_real = 1e-4: the
        # nearest shape of the null-space step certifies within the bound
        # that tol_real sets
        gens = near_real(make(0), 1e-8, 0)
        res = classify_group(gens, config=AnalysisConfig(tol_real=1e-4))
        assert res.stages[0]["status"] == "dims (0, 1)"
        assert res.verdict == verdict

    def test_still_certifies_when_only_normalization_fails(self, failing_normalization):
        gens = real_form_corpus(0)
        assert_certified(gens, classify_group(gens, 3), REAL_FORM)

    def test_ill_conditioned_real_corpus_is_certified(self):
        # corpus 600: the paper's construction builds a D with |D|_max about 10
        # whose rounding lifts the relative certificate to 2.1e-11
        gens = real_form_corpus(600)
        assert_certified(gens, classify_group(gens, 4), REAL_FORM)

    @pytest.mark.parametrize("length", [3, 4, 5])
    def test_real_subgroup_with_a_singular_real_span_is_certified(self, length):
        # the paper's construction finds Gram eigenvalues [-13.0, 0.0, 1.07, 11.9] here
        g1, g2 = real_form_corpus(0)
        w = word_of([g1, g2], (2, 1, 2, -1, -1, -2))
        gens = [g1, w.inverse()]
        assert_certified(gens, classify_group(gens, length), REAL_FORM)


def metamorphic_variants(gens, seed):
    """Swapped, g1 inverted, g1 g2 appended, and every generator conjugated by a seeded P."""
    g1, g2 = gens
    p = random_su31(np.random.default_rng(5000 + seed), 0.8).entries
    p_inv = np.linalg.inv(p)
    return {
        "swapped": [g2, g1],
        "inverted": [g1.inverse(), g2],
        "appended": [g1, g2, g1 @ g2],
        "conjugated": [GroupElement(p_inv @ g.entries @ p) for g in gens],
    }


@pytest.mark.parametrize("kind", ["real_form", "product_form", "generic"])
def test_verdict_survives_the_metamorphic_transforms(kind):
    flips = []
    for seed in range(40):
        gens = make_corpus(kind, seed)
        base = classify_group(gens, 4).verdict
        for name, variant in metamorphic_variants(gens, seed).items():
            verdict = classify_group(variant, 4).verdict
            if verdict != base:
                flips.append((seed, name, base, verdict))
    assert not flips
