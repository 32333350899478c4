"""The package's public surface."""

import types

import thompson_sigma


def test_all_names_no_module():
    public = {
        name
        for name in dir(thompson_sigma)
        if not name.startswith("_") and not isinstance(getattr(thompson_sigma, name), types.ModuleType)
    }
    assert sorted(thompson_sigma.__all__) == sorted(public)
