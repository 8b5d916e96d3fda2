import numpy as np
import pytest

from su31cert import GroupElement, cli, engine, normalize_loxodromic
from su31cert.corpus import (
    embed_block,
    expm,
    random_so31_algebra,
    random_su31,
    su11_swap_loxodromic,
)


def non_member_normalization(a):
    """Normalize, then certify the conjugator scaled off SU(3,1): a genuine NotInGroup."""
    nf = normalize_loxodromic(a)
    return GroupElement.certify(1.01 * nf.conjugator.entries)


@pytest.fixture
def failing_normalization(monkeypatch):
    """normalize_loxodromic, as the engine and the CLI call it, raises NotInGroup."""
    monkeypatch.setattr(engine, "normalize_loxodromic", non_member_normalization)
    monkeypatch.setattr(cli, "normalize_loxodromic", non_member_normalization)


def _so21_group(seed):
    """Two generators of SO(2,1) (fixing e3), conjugated by a random SU(3,1) element.

    Such a group stabilizes a totally geodesic real plane, so its real span is
    three-dimensional and no real-form conjugator is constructed.  Some of its
    words are elliptic with eigenvalues e^{+-i phi}, 1, 1.
    """
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        x = random_so31_algebra(rng, 0.8)
        x[2, :] = 0
        x[:, 2] = 0
        mats.append(expm(x))
    p = random_su31(rng).entries
    return [GroupElement.certify(p @ m @ np.linalg.inv(p)) for m in mats]


@pytest.fixture
def so21_group():
    """Builder of the SO(2,1) test groups: seed -> two generators."""
    return _so21_group


def _c_fuchsian_group(seed):
    """Two generators of SU(1,1)x{I}, conjugated by a random SU(3,1) element.

    Such a group fixes a complex line pointwise and preserves its orthogonal
    complement, so its commutant has dimension 5, not 2.
    """
    rng = np.random.default_rng(seed)
    mats = [embed_block(su11_swap_loxodromic(rng), np.eye(2)).entries for _ in range(2)]
    p = random_su31(rng).entries
    return [GroupElement.certify(p @ m @ np.linalg.inv(p)) for m in mats]


@pytest.fixture
def c_fuchsian_group():
    """Builder of the C-Fuchsian test groups: seed -> two generators."""
    return _c_fuchsian_group
