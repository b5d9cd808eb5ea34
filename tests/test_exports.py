"""The package's public names."""

from __future__ import annotations

import planar_mssp


def test_star_import_binds_every_exported_name_once():
    names = planar_mssp.__all__
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec("from planar_mssp import *", namespace)
    assert [name for name in names if name not in namespace] == []
