import numpy as np
import pytest

from su31cert import GroupElement, cli, engine, normalize_loxodromic
from su31cert.corpus import expm, random_so31_algebra, random_su31


def non_member_normalization(a):
    """Normalize, then certify the conjugator scaled off SU(3,1): a genuine NotInGroup."""
    nf = normalize_loxodromic(a)
    return GroupElement.certify(1.01 * nf.conjugator.entries)


@pytest.fixture
def failing_normalization(monkeypatch):
    """normalize_loxodromic, as the engine and the CLI call it, raises NotInGroup."""
    monkeypatch.setattr(engine, "normalize_loxodromic", non_member_normalization)
    monkeypatch.setattr(cli, "normalize_loxodromic", non_member_normalization)


@pytest.fixture
def undecided_null_space(monkeypatch):
    """The null-space step builds no conjugator, so the paper's construction runs."""
    monkeypatch.setattr(engine, "_real_form_conjugator", lambda m: None)
    monkeypatch.setattr(engine, "_product_form_conjugator", lambda commutant: None)


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
