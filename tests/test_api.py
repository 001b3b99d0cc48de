from __future__ import annotations

import grayspace


def test_public_names_resolve():
    names = grayspace.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(grayspace, name)]
    assert not missing
