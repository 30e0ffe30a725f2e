"""The package's export list names only what exists."""

import vodsim


def test_every_exported_name_resolves():
    missing = [name for name in vodsim.__all__ if not hasattr(vodsim, name)]
    assert missing == []
    assert len(set(vodsim.__all__)) == len(vodsim.__all__)
