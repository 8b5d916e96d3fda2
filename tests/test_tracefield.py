import numpy as np
import pytest
from hypothesis import given, strategies as st

from su31cert import (
    GroupElement,
    entry_reality_check,
    enumerate_words,
    lemma22_branch,
    pairwise_reality_checks,
    trace_reality_report,
)
from su31cert.tracefield import (
    ALL_REAL,
    HYPOTHESIS_FAILED,
    IMAGINARY_PAIR,
    NOT_REAL,
    REAL_PAIR,
    BudgetExceeded,
    ZeroInput,
    reduced_word_count,
)
from su31cert.corpus import (
    generic_corpus,
    product_form_corpus,
    random_so31,
    real_form_corpus,
)


def word_matrix(gens, word):
    m = np.eye(4, dtype=complex)
    for letter in word:
        g = gens[abs(letter) - 1]
        m = m @ (g.entries if letter > 0 else g.inverse().entries)
    return m


class TestEnumeration:
    def test_single_generator_length_two(self):
        g = GroupElement.certify(np.diag([2.0, 1, 1, 0.5]))
        words = [e.word for e in enumerate_words([g], 2)]
        assert sorted(words) == [(-1,), (-1, -1), (1,), (1, 1)]

    def test_counts(self):
        assert reduced_word_count(2, 1) == 4
        assert reduced_word_count(2, 3) == 4 + 12 + 36
        gens = real_form_corpus(0)
        assert sum(1 for _ in enumerate_words(gens, 3)) == 52

    def test_deterministic_order(self):
        gens = real_form_corpus(1)
        first = [e.word for e in enumerate_words(gens, 3)]
        second = [e.word for e in enumerate_words(gens, 3)]
        assert first == second
        lengths = [len(w) for w in first]
        assert lengths == sorted(lengths)

    @pytest.mark.parametrize("n_gens", [2, 3])
    def test_levels_come_out_sorted(self, n_gens):
        # children of a sorted level, taken in letter order, need no sort of their own
        gens = generic_corpus(3, n_gens)
        words = [e.word for e in enumerate_words(gens, 5)]
        assert len(words) == reduced_word_count(n_gens, 5)
        assert words == sorted(words, key=lambda w: (len(w), w))

    def test_word_matrix_consistency(self):
        gens = generic_corpus(5)
        for e in enumerate_words(gens, 3):
            assert np.max(np.abs(e.entries - word_matrix(gens, e.word))) <= 1e-9 * len(
                e.word
            )

    def test_budget(self):
        gens = real_form_corpus(2)
        with pytest.raises(BudgetExceeded):
            list(enumerate_words(gens, 5, budget=100))


class TestTraceReport:
    def test_real_matrices_all_real(self):
        rng = np.random.default_rng(30)
        gens = [random_so31(rng) for _ in range(2)]
        report = trace_reality_report(gens, 5)
        assert report.verdict == ALL_REAL
        assert report.max_im_trace == 0.0

    def test_block_group_all_real(self):
        gens = product_form_corpus(0, conjugate=False)
        report = trace_reality_report(gens, 5)
        assert report.verdict == ALL_REAL
        assert report.max_im_trace <= 1e-12

    def test_generic_not_real_with_short_witness(self):
        gens = generic_corpus(0)
        report = trace_reality_report(gens, 4)
        assert report.verdict == NOT_REAL
        assert len(report.witness_word) <= 3
        # the witness really has non-real trace
        m = word_matrix(gens, report.witness_word)
        assert abs(np.trace(m).imag) > 1e-8

    def test_json_round_trip(self):
        report = trace_reality_report(generic_corpus(1), 2)
        data = report.to_json()
        assert data["verdict"] == report.verdict
        assert tuple(data["witness_word"]) == report.witness_word


class TestLemma22:
    def test_real_pair(self):
        assert lemma22_branch(2, 3) == REAL_PAIR

    def test_imaginary_pair(self):
        assert lemma22_branch(2j, -1j) == IMAGINARY_PAIR

    def test_hypothesis_failed(self):
        assert lemma22_branch(1 + 1j, 1) == HYPOTHESIS_FAILED

    def test_zero_refused(self):
        with pytest.raises(ZeroInput):
            lemma22_branch(0, 1)

    @given(
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=0.01, max_value=100),
        st.booleans(),
        st.booleans(),
    )
    def test_dichotomy_exclusive(self, x, y, imaginary, flip):
        a = x * (1j if imaginary else 1)
        b = (-y if flip else y) * (1j if imaginary else 1)
        expected = IMAGINARY_PAIR if imaginary else REAL_PAIR
        assert lemma22_branch(a, b) == expected


class TestRealityChecks:
    def test_diagonal(self):
        g = GroupElement.certify(
            np.diag([3.0, np.exp(1j * np.pi / 7), np.exp(-1j * np.pi / 7), 1 / 3])
        )
        res = entry_reality_check(g)
        assert all(v <= 1e-15 for v in res.values())

    def test_unipotent(self):
        m = np.eye(4, dtype=complex)
        m[0, 3] = 1j
        res = entry_reality_check(GroupElement.certify(m))
        assert all(v == 0 for v in res.values())

    def test_real_matrix_pairwise(self):
        rng = np.random.default_rng(31)
        g = random_so31(rng)
        assert all(v == 0 for v in pairwise_reality_checks(g, g).values())

    def test_equal_inputs_reproduce_single_element_quantities(self):
        rng = np.random.default_rng(32)
        from su31cert.corpus import random_su31
        from su31cert.hermitian import matrix_entries

        g = random_su31(rng)
        E = matrix_entries(g.entries)
        res = pairwise_reality_checks(g, g)
        assert res["d1q2"] == pytest.approx(abs((E["d"] * E["q"]).imag))
        assert res["b1e2+c1l2"] == pytest.approx(
            abs((E["b"] * E["e"] + E["c"] * E["l"]).imag)
        )

    def test_inverse_input_reproduces_conjugate_quantities(self):
        rng = np.random.default_rng(33)
        from su31cert.corpus import random_su31
        from su31cert.hermitian import matrix_entries

        g = random_su31(rng)
        E = matrix_entries(g.entries)
        res = pairwise_reality_checks(g, g.inverse())
        assert res["d1q2"] == pytest.approx(
            abs((E["d"] * np.conj(E["q"])).imag), abs=1e-12
        )

    def test_normalized_real_trace_group(self):
        from su31cert.engine import find_loxodromic, normalize_group
        from su31cert.tracefield import enumerate_words as words

        gens = real_form_corpus(7)
        a = find_loxodromic(gens, 2)
        norm_gens, _ = normalize_group(gens, a)
        elements = list(words(norm_gens, 3))
        for e in elements:
            assert all(v <= 1e-7 for v in entry_reality_check(e).values())
        for e1 in elements[:10]:
            for e2 in elements[:10]:
                assert all(v <= 1e-7 for v in pairwise_reality_checks(e1, e2).values())
