import collections

import numpy as np
import pytest

from su31cert import (
    GroupElement,
    elements,
    char_poly,
    classify,
    eigen_solve,
    is_selfdual,
    normalize_loxodromic,
)
from su31cert.elements import (
    CLUSTER_TOL,
    COARSE_CLUSTER_TOL,
    ELLIPTIC,
    LOXODROMIC,
    PARABOLIC,
    PIVOT_TOL,
    CharPoly,
    EigenDecomposition,
    EigenPair,
    IllConditioned,
    NotLoxodromic,
    NotRealTrace,
    complete_pivot_rank,
)
from su31cert.hermitian import (
    J, herm_inner, matrix_of, norm_max, siegel_infinity, siegel_origin, su31_inverse,
    su31_residual,
)
from su31cert.corpus import (
    CORPUS_KINDS,
    make_corpus,
    product_form_corpus,
    random_su31,
    real_form_corpus,
    so31_loxodromic,
)
from su31cert.tracefield import enumerate_words


def diag_lox(u, theta):
    return GroupElement.certify(
        np.diag([u, np.exp(1j * theta), np.exp(-1j * theta), 1.0 / u])
    )


def unipotent():
    m = np.eye(4, dtype=complex)
    m[0, 3] = 1j
    return GroupElement.certify(m)


def heisenberg_translations(rng, count):
    """(conjugator P, P T P^-1) for horizontal Heisenberg translations T by (z1, z2)."""
    s = np.sqrt(2.0)
    out = []
    for _ in range(count):
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
        out.append((p, GroupElement.certify(p @ t @ np.linalg.inv(p), tol=1e-7)))
    return out


# Frozen copies of the helpers of the per-cluster solver: one np.roots per
# quadratic, np.polyval in the Newton polish, np.mean in the clustering and
# one SVD per cluster.  eigen_solve must reproduce them bit for bit.
def frozen_quartic_roots(p):
    coeffs = np.asarray(p.coefficients, dtype=complex)
    if is_selfdual(p):
        s_roots = np.roots([1.0, p.c3.real, p.c2.real - 2.0])
        roots = []
        for s in s_roots:
            roots.extend(np.roots([1.0, -s, 1.0]))
        roots = np.asarray(roots, dtype=complex)
    else:
        roots = np.roots(coeffs)
    dcoeffs = np.polyder(coeffs)
    for _ in range(3):
        vals = np.polyval(coeffs, roots)
        dvals = np.polyval(dcoeffs, roots)
        safe = np.abs(dvals) > 1e-8 * (1.0 + np.abs(roots)) ** 3
        roots = np.where(safe, roots - vals / np.where(safe, dvals, 1.0), roots)
    return roots


def frozen_cluster(roots, tol):
    groups = []
    for idx in np.lexsort((roots.imag, roots.real)):
        z = roots[idx]
        for g in groups:
            if abs(z - np.mean(g)) <= tol * (1.0 + abs(z)):
                g.append(z)
                break
        else:
            groups.append([z])
    return [np.asarray(g) for g in groups]


def frozen_null_space(m, dim):
    _, _, vh = np.linalg.svd(m)
    return vh.conj().T[:, -dim:][:, ::-1]


def two_pass_eigen_solve(a, tol=1e-8):
    """Reference: solve the CLUSTER_TOL and the COARSE_CLUSTER_TOL partitions in
    full, with the rank elimination and its own SVD on every cluster, and keep
    the better one."""
    m = matrix_of(a)
    scale = max(norm_max(m), 1.0)
    roots = frozen_quartic_roots(char_poly(m))
    best = None
    for ctol in (CLUSTER_TOL, COARSE_CLUSTER_TOL):
        pairs = []
        defective = False
        for group in frozen_cluster(roots, ctol):
            lam = complex(np.mean(group))
            shifted = m - lam * np.eye(4)
            geo = 4 - complete_pivot_rank(shifted, pivot_tol=PIVOT_TOL * scale)
            geo = max(1, min(geo, len(group)))
            if geo < len(group):
                defective = True
            for vec in frozen_null_space(shifted, geo).T:
                lam_r = complex(np.vdot(vec, m @ vec))
                res = float(np.linalg.norm(m @ vec - lam_r * vec))
                pairs.append(EigenPair(lam_r, vec, res))
        worst = max(p.residual for p in pairs)
        if best is None or worst < best[0]:
            best = (worst, pairs, defective)
    worst, pairs, defective = best
    if worst > tol * scale:
        raise IllConditioned(f"eigenvector residual {worst:.3e} exceeds {tol:.3e} * ||A||")
    pairs.sort(key=lambda p: (-abs(p.value), -p.value.real, -p.value.imag))
    return EigenDecomposition(pairs, defective)


def word_element(gens, word):
    out = GroupElement.certify(np.eye(4))
    for letter in word:
        g = gens[abs(letter) - 1]
        out = out @ (g if letter > 0 else g.inverse())
    return out


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

    def test_simple_spectrum_skips_rank_and_coarse_pass(self, monkeypatch):
        calls = collections.Counter()

        def counted(name):
            real = getattr(elements, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("complete_pivot_rank", "_cluster_pairs"):
            monkeypatch.setattr(elements, name, counted(name))
        eigen_solve(diag_lox(2.0, np.pi / 5))
        assert calls == {"_cluster_pairs": 1}

    def test_bit_identical_to_two_pass_solver(self, monkeypatch):
        rng = np.random.default_rng(21)
        samples = [w for kind in CORPUS_KINDS for w in enumerate_words(make_corpus(kind, 0), 5)]
        samples += [unipotent(), GroupElement.certify(np.eye(4))]
        samples += [diag_lox(2.0, theta) for theta in (0.0, np.pi)]
        samples += [a for _, a in heisenberg_translations(rng, 10)]
        passes = collections.Counter()
        real_pairs = elements._cluster_pairs

        def counted_pairs(m, groups, scale):
            passes["clusters"] += 1
            passes["repeated"] += any(len(g) > 1 for g in groups)
            return real_pairs(m, groups, scale)

        monkeypatch.setattr(elements, "_cluster_pairs", counted_pairs)
        for a in samples:
            try:
                ref = two_pass_eigen_solve(a)
            except IllConditioned as exc:
                with pytest.raises(IllConditioned, match=str(exc)):
                    eigen_solve(a)
                continue
            new = eigen_solve(a)
            assert new.defective == ref.defective
            assert [(p.value, p.residual) for p in new.pairs] == [
                (p.value, p.residual) for p in ref.pairs
            ]
            for p, q in zip(new.pairs, ref.pairs):
                assert p.vector.tobytes() == q.vector.tobytes()
        # both branches ran: a coarse partition that differs, and a repeated root
        assert passes["clusters"] > len(samples)
        assert passes["repeated"] > 0


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

    def test_identity_elliptic(self, so21_group):
        from su31cert import herm_inner

        # word (2, 2) of SO(2,1) seed 2 has a double eigenvalue 1 that eigen_solve
        # marks defective; the J-negative eigenvector still makes it elliptic
        _, g2 = so21_group(2)
        for a in (GroupElement.certify(np.eye(4)), g2 @ g2):
            kind = classify(a)
            assert kind.tag == ELLIPTIC
            w = kind.interior_witness
            assert herm_inner(w, w).real < 0
            assert np.linalg.norm(a.entries @ w - w) <= 1e-8 * np.linalg.norm(w)

    def test_unipotent_parabolic(self):
        kind = classify(unipotent())
        assert kind.tag == PARABOLIC
        assert len(kind.fixed_points) == 1
        assert kind.fixed_points[0].proportional_to(siegel_infinity())

    def test_conjugated_horizontal_heisenberg_translations_parabolic(self):
        # translation by (zeta, 0): unipotent with a 3x3 Jordan block, which a
        # general eigensolver splits into moduli ~1 +- eps^(1/3), outside the unit band
        from su31cert.hermitian import BoundaryPoint

        for p, a in heisenberg_translations(np.random.default_rng(20), 50):
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


def gram_schmidt_reference(vectors):
    """The herm_inner Gram-Schmidt that _j_orthonormalize_positive's Cholesky form replaced."""
    out = []
    for v in vectors.T:
        w = v.copy()
        for u in out:
            w = w - herm_inner(w, u) * u
        out.append(w / np.sqrt(herm_inner(w, w).real))
    return np.column_stack(out)


class TestJOrthonormalizePositive:
    def test_matches_gram_schmidt_on_middle_planes(self, monkeypatch):
        # the planes normalize_loxodromic hands over on the loxodromic words up to
        # L=4 of real_form and product_form corpus 0
        planes = []
        orthonormalize = elements._j_orthonormalize_positive

        def record(basis):
            planes.append(basis.copy())
            return orthonormalize(basis)

        monkeypatch.setattr(elements, "_j_orthonormalize_positive", record)
        for kind in ("real_form", "product_form"):
            for w in enumerate_words(make_corpus(kind, 0), 4):
                if elements.is_loxodromic(w):
                    normalize_loxodromic(w)
        assert len(planes) > 100
        for basis in planes:
            ref = gram_schmidt_reference(basis)
            got = orthonormalize(basis)
            assert np.abs(got - ref).max() <= 1e-14 * max(1.0, norm_max(ref))
            assert np.abs(got.conj().T @ J @ got - np.eye(2)).max() <= 1e-12

    def test_j_indefinite_pair_is_ill_conditioned(self):
        e1_e4 = np.eye(4, dtype=complex)[:, [0, 3]]
        with pytest.raises(IllConditioned, match="J-positive"):
            elements._j_orthonormalize_positive(e1_e4)


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
            assert su31_residual(nf.conjugator.entries) <= 1e-8

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

    @pytest.mark.parametrize(
        "corpus, word",
        [
            (real_form_corpus(0), (-1, -2, 1, 1)),
            (real_form_corpus(0), (2, 1, 2, -1, -1, -2)),
            (product_form_corpus(1), (2, 1, -2, -1, -2)),
            (product_form_corpus(1), (2, 1, 2, -1, -2)),
            (real_form_corpus(68), (1, 1, 1, 1, 2)),
            (real_form_corpus(68), (2, 1, 1, 1, 1)),
            (real_form_corpus(14), (2, 2, 2)),
            (real_form_corpus(10), (-1, 2, -1, -1, -2)),
            (real_form_corpus(55), (-2, -1, -1, -2, -1)),
        ],
    )
    def test_large_conjugator_is_certified_relative_to_its_entries(self, corpus, word):
        # |C| reaches ~14 on the first four words, so an absolute 1e-8 bound on C*JC - J
        # rejected them; the last five have close middle eigenvalues, whose eigenvectors
        # lose J-orthogonality unless the middle plane is J-orthonormalized
        w = word_element(corpus, word).entries
        nf = normalize_loxodromic(w)
        c = nf.conjugator.entries
        c_scale = max(1.0, np.abs(c).max()) ** 2
        assert np.abs(c.conj().T @ J @ c - J).max() <= 1e-8 * c_scale
        assert abs(np.linalg.det(c) - 1.0) <= 1e-8 * c_scale
        diag = np.diag([nf.u, np.exp(1j * nf.theta), np.exp(-1j * nf.theta), 1.0 / nf.u])
        assert np.abs(np.linalg.inv(c) @ w @ c - diag).max() <= 1e-8 * max(1.0, np.abs(w).max())
