import pytest

from su31cert import GroupElement, cli, engine, normalize_loxodromic


def non_member_normalization(a):
    """Normalize, then certify the conjugator scaled off SU(3,1): a genuine NotInGroup."""
    nf = normalize_loxodromic(a)
    return GroupElement.certify(1.01 * nf.conjugator.entries)


@pytest.fixture
def failing_normalization(monkeypatch):
    """normalize_loxodromic, as the engine and the CLI call it, raises NotInGroup."""
    monkeypatch.setattr(engine, "normalize_loxodromic", non_member_normalization)
    monkeypatch.setattr(cli, "normalize_loxodromic", non_member_normalization)
