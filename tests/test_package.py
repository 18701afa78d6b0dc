"""The package's public surface: every exported name exists, so
``from hrt import *`` cannot raise."""

import hrt


def test_every_export_resolves():
    missing = [name for name in hrt.__all__ if not hasattr(hrt, name)]
    assert not missing, f"hrt.__all__ names missing attributes: {missing}"
