"""The package's export list names exactly what `derangetropy/__init__.py` binds."""

import types

import derangetropy


def test_all_is_sorted_unique_and_resolves():
    names = derangetropy.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    assert [name for name in names if not hasattr(derangetropy, name)] == []


def test_all_is_every_public_name_bound():
    # submodules become attributes on import; a removed export must not leave its import behind
    bound = {
        name
        for name, value in vars(derangetropy).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(derangetropy.__all__)
