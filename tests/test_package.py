"""The package's public surface."""

import supercong


def test_every_public_name_resolves():
    missing = [name for name in supercong.__all__ if not hasattr(supercong, name)]
    assert missing == []
    assert len(set(supercong.__all__)) == len(supercong.__all__)
