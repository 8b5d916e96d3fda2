import numpy as np
import pytest

from su31cert import (
    GroupElement,
    char_poly,
    classify,
    eigen_solve,
    is_selfdual,
    normalize_loxodromic,
)
from su31cert.elements import (
    ELLIPTIC,
    LOXODROMIC,
    PARABOLIC,
    CharPoly,
    NotLoxodromic,
    NotRealTrace,
    complete_pivot_rank,
)
from su31cert.hermitian import norm_max, siegel_infinity, siegel_origin, su31_inverse
from su31cert.corpus import random_su31, so31_loxodromic


def diag_lox(u, theta):
    return GroupElement.certify(
        np.diag([u, np.exp(1j * theta), np.exp(-1j * theta), 1.0 / u])
    )


def unipotent():
    m = np.eye(4, dtype=complex)
    m[0, 3] = 1j
    return GroupElement.certify(m)


class TestCharPoly:
    def test_identity(self):
        p = char_poly(np.eye(4))
        assert np.allclose(p.coefficients, [1, -4, 6, -4, 1])

    def test_mixed_diagonal(self):
        # (t-2)(t-1/2)(t^2+1) = t^4 - 2.5 t^3 + 2 t^2 - 2.5 t + 1
        p = char_poly(np.diag([2, 1j, -1j, 0.5]))
        assert np.allclose(p.coefficients, [1, -2.5, 2, -2.5, 1])

    def test_loxodromic_palindromic_real(self):
        p = char_poly(diag_lox(3.0, np.pi / 3))
        coeffs = np.asarray(p.coefficients)
        assert np.allclose(coeffs.imag, 0, atol=1e-12)
        assert np.allclose(coeffs, coeffs[::-1], atol=1e-12)
        assert is_selfdual(p)

    def test_matches_brute_force_determinant(self):
        # oracle: evaluate det(tI - A) directly at random complex points
        rng = np.random.default_rng(11)
        a = random_su31(rng).entries
        p = char_poly(a)
        for _ in range(8):
            t = complex(rng.standard_normal(), rng.standard_normal())
            direct = np.linalg.det(t * np.eye(4) - a)
            assert p(t) == pytest.approx(direct, rel=1e-9, abs=1e-9)


class TestSelfDual:
    def test_identity_poly(self):
        assert is_selfdual(CharPoly((1, -4, 6, -4, 1)))

    def test_complex_coefficient_fails(self):
        assert not is_selfdual(CharPoly((1, -(1 + 1j), 1, -1, 1)))

    def test_real_trace_member(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = so31_loxodromic(rng)
            assert is_selfdual(char_poly(g), tol=1e-9)

    def test_generic_member_fails(self):
        rng = np.random.default_rng(13)
        g = random_su31(rng, scale=0.8)
        assert abs(g.trace.imag) > 1e-6  # seed chosen to be generic
        assert not is_selfdual(char_poly(g))


class TestEigenSolve:
    def test_diagonal(self):
        eig = eigen_solve(diag_lox(2.0, np.pi / 5))
        vals = sorted(eig.values, key=lambda z: (-abs(z), -z.imag))
        assert vals[0] == pytest.approx(2.0)
        assert not eig.defective
        for p in eig.pairs:
            assert p.residual <= 1e-10

    def test_unipotent_defective(self):
        eig = eigen_solve(unipotent())
        assert eig.defective
        assert len(eig.pairs) == 3
        assert all(abs(p.value - 1) <= 1e-6 for p in eig.pairs)

    def test_eigenvalue_product_is_one(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            eig = eigen_solve(random_su31(rng))
            assert np.prod(eig.values) == pytest.approx(1.0, abs=1e-8)

    def test_spectral_pairing_real_trace(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            vals = eigen_solve(so31_loxodromic(rng)).values
            for lam in vals:
                assert min(abs(vals - 1.0 / np.conj(lam))) <= 1e-8 * (1 + abs(lam))


class TestCompletePivotRank:
    def test_full_rank(self):
        assert complete_pivot_rank(np.eye(4), 1e-9) == 4

    def test_rank_one(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 3] = 1j
        assert complete_pivot_rank(m, 1e-9) == 1

    def test_near_zero_below_pivot(self):
        m = np.diag([1.0, 1e-12, 0, 0]).astype(complex)
        assert complete_pivot_rank(m, 1e-9) == 1


class TestClassify:
    def test_diagonal_loxodromic(self):
        kind = classify(diag_lox(2.0, np.pi / 5))
        assert kind.tag == LOXODROMIC
        assert kind.fixed_points[0].proportional_to(siegel_infinity())
        assert kind.fixed_points[1].proportional_to(siegel_origin())

    def test_identity_elliptic(self):
        kind = classify(GroupElement.certify(np.eye(4)))
        assert kind.tag == ELLIPTIC
        w = kind.interior_witness
        from su31cert import herm_inner

        assert herm_inner(w, w).real < 0

    def test_unipotent_parabolic(self):
        kind = classify(unipotent())
        assert kind.tag == PARABOLIC
        assert len(kind.fixed_points) == 1
        assert kind.fixed_points[0].proportional_to(siegel_infinity())

    def test_conjugated_horizontal_heisenberg_translations_parabolic(self):
        # translation by (zeta, 0): unipotent with a 3x3 Jordan block, which a
        # general eigensolver splits into moduli ~1 +- eps^(1/3), outside the unit band
        from su31cert.hermitian import BoundaryPoint

        rng = np.random.default_rng(20)
        s = np.sqrt(2.0)
        for _ in range(50):
            z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            t = np.array(
                [
                    [1, -s * np.conj(z1), -s * np.conj(z2), -(abs(z1) ** 2 + abs(z2) ** 2)],
                    [0, 1, 0, s * z1],
                    [0, 0, 1, s * z2],
                    [0, 0, 0, 1],
                ]
            )
            p = random_su31(rng).entries
            a = GroupElement.certify(p @ t @ np.linalg.inv(p), tol=1e-7)
            kind = classify(a)
            assert kind.tag == PARABOLIC
            assert kind.fixed_points[0].proportional_to(BoundaryPoint.from_vector(p[:, 0]), 1e-6)

    def test_conjugation_invariant(self):
        rng = np.random.default_rng(16)
        samples = [
            diag_lox(2.0, 0.7),
            unipotent(),
            GroupElement.certify(np.diag(np.exp(1j * np.array([0.3, 0.5, -1.1, 0.3])))),
        ]
        for _ in range(30):
            p = random_su31(rng)
            a = samples[int(rng.integers(len(samples)))]
            conj = GroupElement.certify(
                p.entries @ a.entries @ np.linalg.inv(p.entries), tol=1e-7
            )
            assert classify(conj).tag == classify(a).tag

    def test_fixed_points_are_fixed(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            p = random_su31(rng)
            a = GroupElement.certify(
                p.entries @ diag_lox(2.5, 1.1).entries @ np.linalg.inv(p.entries),
                tol=1e-7,
            )
            for fp in classify(a).fixed_points:
                image = a.entries @ fp.lift
                from su31cert.hermitian import proportionality_residual

                assert proportionality_residual(image, fp.lift) <= 1e-8


class TestNormalizeLoxodromic:
    def test_already_diagonal(self):
        nf = normalize_loxodromic(diag_lox(3.0, np.pi / 7))
        assert nf.u == pytest.approx(3.0, abs=1e-10)
        assert nf.theta == pytest.approx(np.pi / 7, abs=1e-10)
        off_diag = nf.conjugator.entries - np.diag(np.diag(nf.conjugator.entries))
        assert norm_max(off_diag) <= 1e-10

    def test_round_trip_recovers_spectrum(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            u = rng.uniform(1.5, 4.0)
            theta = rng.uniform(0.2, 2.9)
            p = random_su31(rng)
            a = GroupElement.certify(
                p.entries @ diag_lox(u, theta).entries @ np.linalg.inv(p.entries),
                tol=1e-7,
            )
            nf = normalize_loxodromic(a)
            assert nf.u == pytest.approx(u, abs=1e-7)
            assert abs(nf.theta) == pytest.approx(theta, abs=1e-7)
            resid = norm_max(
                su31_inverse(nf.conjugator.entries) @ a.entries @ nf.conjugator.entries
                - nf.diagonal
            )
            assert resid <= 1e-8
            assert nf.conjugator.membership_residual <= 1e-8

    def test_collision_theta_zero(self):
        rng = np.random.default_rng(19)
        p = random_su31(rng)
        a = GroupElement.certify(
            p.entries @ np.diag([2.0, 1, 1, 0.5]) @ np.linalg.inv(p.entries), tol=1e-7
        )
        nf = normalize_loxodromic(a)
        assert nf.u == pytest.approx(2.0, abs=1e-8)
        assert nf.theta == 0.0

    def test_u_solves_trace_quadratic(self):
        # u + 1/u is the larger root of s^2 - tau s + (sigma - 2) = 0
        a = diag_lox(3.0, np.pi / 7)
        p = char_poly(a)
        tau = -p.c3.real
        sigma = p.c2.real
        s = np.roots([1.0, -tau, sigma - 2.0]).real.max()
        nf = normalize_loxodromic(a)
        assert nf.u + 1.0 / nf.u == pytest.approx(s, abs=1e-10)

    def test_rejects_elliptic(self):
        with pytest.raises(NotLoxodromic):
            normalize_loxodromic(GroupElement.certify(np.eye(4)))

    def test_rejects_complex_trace(self):
        g = GroupElement.certify(np.diag([2j, 1, -1, 0.5j]))
        with pytest.raises(NotRealTrace):
            normalize_loxodromic(g)
