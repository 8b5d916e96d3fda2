"""Seeded generator corpora with known ground truth.

Three recipes:
  real_form     -- conjugates of random SO(3,1) loxodromics (verdict RealForm)
  product_form  -- conjugates of block SU(1,1)xSU(2) elements (CompactProductForm)
  generic       -- random SU(3,1) elements (expected NotRealTrace)

Random group elements come from exponentiating projections of Gaussian
matrices onto the relevant Lie algebra, so membership holds to machine
precision by construction.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .hermitian import J, GroupElement

SWAP2 = np.array([[0, 1], [1, 0]], dtype=complex)


def expm(x: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on first call: only generating a corpus needs scipy."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(x)


def random_su31_algebra(rng: np.random.Generator, scale: float = 0.4) -> np.ndarray:
    """Projection of a complex Gaussian onto {X : X* J + J X = 0, tr X = 0}."""
    y = scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    x = 0.5 * (y - J @ y.conj().T @ J)
    return x - (np.trace(x) / 4.0) * np.eye(4)


def random_su31(rng: np.random.Generator, scale: float = 0.4) -> GroupElement:
    return GroupElement.certify(expm(random_su31_algebra(rng, scale)))


def random_so31_algebra(rng: np.random.Generator, scale: float = 0.4) -> np.ndarray:
    """Real form of the above: {X real : X^t J + J X = 0} (trace-free automatically)."""
    y = scale * rng.standard_normal((4, 4))
    return 0.5 * (y - (J @ y.T @ J).real).astype(complex)


def random_so31(rng: np.random.Generator) -> GroupElement:
    return GroupElement.certify(expm(random_so31_algebra(rng)))


def so31_loxodromic(rng: np.random.Generator) -> GroupElement:
    """Random real loxodromic: block diag(u, rotation(phi), 1/u) moved by a random real isometry."""
    u = rng.uniform(1.5, 3.0)
    phi = rng.uniform(0.3, 2.8)
    base = np.zeros((4, 4), dtype=complex)
    base[0, 0] = u
    base[3, 3] = 1.0 / u
    base[1:3, 1:3] = [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]
    h = random_so31(rng).entries
    return GroupElement.certify(h @ base @ np.linalg.inv(h))


def random_su11_swap(rng: np.random.Generator) -> np.ndarray:
    """Random element of the 2x2 group preserving the swap form with det 1."""
    y = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    x = 0.5 * (y - SWAP2 @ y.conj().T @ SWAP2)
    x -= (np.trace(x) / 2.0) * np.eye(2)
    return expm(x)


def su11_swap_loxodromic(rng: np.random.Generator) -> np.ndarray:
    u = rng.uniform(1.5, 3.0)
    k = random_su11_swap(rng)
    return k @ np.diag([u, 1.0 / u]).astype(complex) @ np.linalg.inv(k)


def random_su2(rng: np.random.Generator) -> np.ndarray:
    y = 0.8 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    x = 0.5 * (y - y.conj().T)
    x -= (np.trace(x) / 2.0) * np.eye(2)
    return expm(x)


def embed_block(corner: np.ndarray, middle: np.ndarray) -> GroupElement:
    """Corner 2x2 block into entries (1,1),(1,4),(4,1),(4,4); middle into (2..3, 2..3)."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[0, 3] = corner[0, 0], corner[0, 1]
    m[3, 0], m[3, 3] = corner[1, 0], corner[1, 1]
    m[1:3, 1:3] = middle
    return GroupElement.certify(m)


def product_form_element(rng: np.random.Generator) -> GroupElement:
    return embed_block(su11_swap_loxodromic(rng), random_su2(rng))


def _conjugate_all(gens: List[GroupElement], p: GroupElement) -> List[GroupElement]:
    p_inv = np.linalg.inv(p.entries)
    return [GroupElement.certify(p.entries @ g.entries @ p_inv) for g in gens]


def real_form_corpus(seed: int, conjugate: bool = True) -> List[GroupElement]:
    """Two generators of a group conjugate to a subgroup of SO(3,1)."""
    rng = np.random.default_rng(seed)
    gens = [so31_loxodromic(rng) for _ in range(2)]
    if not conjugate:
        return gens
    return _conjugate_all(gens, random_su31(rng))


def product_form_corpus(seed: int, conjugate: bool = True) -> List[GroupElement]:
    """Two generators of a group conjugate to a subgroup of the block SU(1,1)xSU(2)."""
    rng = np.random.default_rng(seed)
    gens = [product_form_element(rng) for _ in range(2)]
    if not conjugate:
        return gens
    return _conjugate_all(gens, random_su31(rng))


def generic_corpus(seed: int, n_gens: int = 2) -> List[GroupElement]:
    """Random certified generators; generically the trace field is not real."""
    rng = np.random.default_rng(seed)
    return [random_su31(rng, scale=0.6) for _ in range(n_gens)]


CORPUS_KINDS = {
    "real_form": real_form_corpus,
    "product_form": product_form_corpus,
    "generic": generic_corpus,
}


def make_corpus(kind: str, seed: int) -> List[GroupElement]:
    if kind not in CORPUS_KINDS:
        raise ValueError(f"unknown corpus kind {kind!r}; choose from {sorted(CORPUS_KINDS)}")
    return CORPUS_KINDS[kind](seed)
