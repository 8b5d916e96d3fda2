import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su31cert import (
    GroupElement,
    HorosphericalPoint,
    NotInGroup,
    heisenberg_mul,
    herm_inner,
    is_su31,
    siegel_embed,
    siegel_infinity,
    siegel_origin,
    verify_inverse_identities,
)
from su31cert.hermitian import (
    BoundaryPoint,
    as_matrix,
    as_vector,
    heisenberg_inverse,
    j_gram,
    matrix_from_json,
    matrix_to_json,
    proportionality_residual,
    su31_inverse,
    su31_residual,
    vector_from_json,
    vector_to_json,
)
from su31cert import J, engine, hermitian, tracefield
from su31cert.corpus import random_su31, real_form_corpus

E1 = np.array([1, 0, 0, 0], dtype=complex)
E2 = np.array([0, 1, 0, 0], dtype=complex)
E4 = np.array([0, 0, 0, 1], dtype=complex)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
cnum = st.builds(complex, finite, finite)
cvec = st.builds(lambda a, b, c, d: np.array([a, b, c, d]), cnum, cnum, cnum, cnum)
cpair = st.builds(lambda a, b: np.array([a, b]), cnum, cnum)


def diag_lox(u=2.0, theta=np.pi / 5):
    return np.diag([u, np.exp(1j * theta), np.exp(-1j * theta), 1.0 / u])


class TestHermInner:
    def test_e1_e4(self):
        assert herm_inner(E1, E4) == pytest.approx(1)

    def test_e2_e2(self):
        assert herm_inner(E2, E2) == pytest.approx(1)

    def test_null_vector(self):
        v = np.array([1j, 0, 0, 1])
        assert herm_inner(v, v) == pytest.approx(0)

    @given(cvec, cvec)
    def test_conjugate_symmetry(self, z, w):
        assert herm_inner(w, z) == pytest.approx(np.conj(herm_inner(z, w)), abs=1e-12)

    @given(cvec, cvec, cnum)
    def test_sesquilinear(self, z, w, alpha):
        assert herm_inner(alpha * z, w) == pytest.approx(
            alpha * herm_inner(z, w), abs=1e-10
        )


class TestJGram:
    def test_stack_matches_each_matrix_and_is_hermitian(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        gram = j_gram(v)
        assert gram.shape == (3, 2, 2)
        for g, w in zip(gram, v):
            assert np.abs(g - w.conj().T @ J @ w).max() <= 1e-15
        assert np.array_equal(gram, np.swapaxes(gram.conj(), -1, -2))


class TestFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("imaginary", [False, True])
    def test_non_finite_entry_rejected(self, bad, imaginary):
        z = complex(0.0, bad) if imaginary else complex(bad, 0.0)
        v = np.ones(4, dtype=complex)
        v[2] = z
        with pytest.raises(ValueError, match="non-finite"):
            as_vector(v)
        m = np.eye(4, dtype=complex)
        m[1, 3] = z
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(m)


class TestMembership:
    def test_identity(self):
        ok, res = is_su31(np.eye(4))
        assert ok and res == 0

    def test_diag_loxodromic(self):
        ok, _ = is_su31(diag_lox())
        assert ok

    def test_determinant_two_rejected(self):
        ok, res = is_su31(np.diag([2, 1, 1, 1]))
        assert not ok and res > 0.5

    def test_certify_raises(self):
        with pytest.raises(NotInGroup):
            GroupElement.certify(np.diag([2, 1, 1, 1]))

    def test_inverse_and_product(self):
        g = GroupElement.certify(diag_lox())
        h = g @ g.inverse()
        assert np.allclose(h.entries, np.eye(4), atol=1e-12)

    def test_closure_residual_growth(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_su31(rng)
            b = random_su31(rng)
            base = max(su31_residual(a.entries), su31_residual(b.entries), 1e-14)
            assert su31_residual((a @ b).entries) <= 10 * base * 10
            assert su31_residual(a.inverse().entries) <= 10 * base * 10


class TestResidualOnlyAtCertify:
    """Membership is decided once, by GroupElement.certify; derived elements carry no residual."""

    @pytest.fixture
    def residual_calls(self, monkeypatch):
        calls = [0]

        def counting(m):
            calls[0] += 1
            return su31_residual(m)

        for module in (hermitian, tracefield, engine):
            monkeypatch.setattr(module, "su31_residual", counting)
        return calls

    def test_fields_are_entries_and_word(self):
        assert [f.name for f in dataclasses.fields(GroupElement)] == ["entries", "word"]

    def test_enumeration_and_products_compute_no_residual(self, residual_calls):
        g, h = real_form_corpus(0)
        residual_calls[0] = 0
        words = list(tracefield.enumerate_words([g, h], 4))
        g.inverse()
        g @ h
        assert len(words) == 160
        assert residual_calls[0] == 0

    def test_certify_still_decides_membership(self, residual_calls):
        # also shows the counter sees the calls, so the zero above is no miss
        with pytest.raises(NotInGroup):
            GroupElement.certify(1.01 * np.eye(4))
        assert residual_calls[0] == 1


class TestSiegel:
    def test_origin(self):
        p = HorosphericalPoint(np.zeros(2), 0.0, 0.0)
        assert np.allclose(siegel_embed(p), E4)

    def test_infinity(self):
        assert np.allclose(siegel_infinity().lift, E1)

    def test_real_boundary_point(self):
        v = siegel_embed(HorosphericalPoint(np.array([1.0, 0.0]), 0.0, 0.0))
        assert np.allclose(v, [-1, np.sqrt(2), 0, 1])
        assert herm_inner(v, v) == pytest.approx(0, abs=1e-14)

    def test_null_image_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p = HorosphericalPoint(
                rng.standard_normal(2) + 1j * rng.standard_normal(2),
                rng.standard_normal(),
                rng.uniform(0, 10),
            )
            v = siegel_embed(p)
            scale = 1.0 + float(np.vdot(v, v).real)
            assert abs(herm_inner(v, v) + 2 * p.v) <= 1e-10 * scale


class TestHeisenberg:
    def test_neutral(self):
        z = np.array([1 + 2j, -0.5j])
        z2, u2 = heisenberg_mul((np.zeros(2), 0.0), (z, 3.0))
        assert np.allclose(z2, z) and u2 == 3.0

    def test_inverse(self):
        p = (np.array([1 + 1j, 2.0]), 0.7)
        z, u = heisenberg_mul(p, heisenberg_inverse(p))
        assert np.allclose(z, 0) and u == pytest.approx(0, abs=1e-15)

    def test_cocycle_example(self):
        # antisymmetric convention <<a,b>> = sum a_i conj(b_i): the twist is -2 here
        z, u = heisenberg_mul((np.array([1.0, 0]), 0.0), (np.array([1j, 0]), 0.0))
        assert np.allclose(z, [1 + 1j, 0]) and u == pytest.approx(-2.0)

    def test_noncommutative(self):
        p = (np.array([1.0, 0]), 0.0)
        q = (np.array([1j, 0]), 0.0)
        assert heisenberg_mul(p, q)[1] != heisenberg_mul(q, p)[1]

    @given(cpair, cpair, cpair, finite, finite, finite)
    @settings(max_examples=300)
    def test_associative(self, z1, z2, z3, u1, u2, u3):
        a = heisenberg_mul(heisenberg_mul((z1, u1), (z2, u2)), (z3, u3))
        b = heisenberg_mul((z1, u1), heisenberg_mul((z2, u2), (z3, u3)))
        assert np.allclose(a[0], b[0], atol=1e-12)
        assert a[1] == pytest.approx(b[1], abs=1e-10)


class TestBoundaryPoint:
    def test_rejects_non_null(self):
        with pytest.raises(ValueError):
            BoundaryPoint.from_vector(E2)

    def test_projective_equality(self):
        a = BoundaryPoint.from_vector(np.array([1j, 0, 0, 1]))
        b = BoundaryPoint.from_vector((2 - 1j) * np.array([1j, 0, 0, 1]))
        assert a.proportional_to(b)
        assert not a.proportional_to(siegel_origin())

    def test_proportionality_residual_zero_on_scaling(self):
        v = np.array([1j, 0.3, -2, 1])
        assert proportionality_residual(v, (0.1 + 5j) * v) <= 1e-14


class TestInverseIdentities:
    def test_identity_matrix(self):
        assert all(r == 0 for _, r in verify_inverse_identities(np.eye(4)))

    def test_diag_loxodromic(self):
        assert all(r <= 1e-14 for _, r in verify_inverse_identities(diag_lox()))

    def test_perturbed_identity(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = 1.01
        residuals = dict(verify_inverse_identities(m))
        assert residuals["a*conj(t)+b*conj(r)+c*conj(s)+d*conj(q)=1"] == pytest.approx(0.01)
        assert residuals["conj(t)a+conj(h)e+conj(p)l+conj(d)q=1"] == pytest.approx(0.01)

    def test_random_members(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = random_su31(rng)
            assert all(r <= 1e-10 for _, r in verify_inverse_identities(g))

    def test_su31_inverse_matches(self):
        rng = np.random.default_rng(3)
        g = random_su31(rng)
        assert np.allclose(su31_inverse(g.entries), np.linalg.inv(g.entries), atol=1e-10)


class TestJson:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(4)
        m = random_su31(rng).entries
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_vector_round_trip(self):
        v = np.array([1 + 2j, -3, 0.25j, 1e-17])
        assert np.array_equal(vector_from_json(vector_to_json(v)), v)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            matrix_from_json([[1, 2], [3, 4]])
