"""The package's export list names what the package binds, once each."""

import types

import padicorder


def test_export_list_resolves_without_duplicates():
    names = padicorder.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(padicorder, n)]
    assert not missing
    public = {
        n
        for n, v in vars(padicorder).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert public == set(names)
