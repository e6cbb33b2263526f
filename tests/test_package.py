"""The package surface: what ``import tvseg`` promises."""

import tvseg


def test_all_exports_resolve_once():
    missing = [name for name in tvseg.__all__ if not hasattr(tvseg, name)]
    assert missing == []
    assert len(set(tvseg.__all__)) == len(tvseg.__all__)
