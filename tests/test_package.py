"""The package's public surface: ``__all__`` names exactly what ``__init__`` binds."""

import types

import vocab_bridge


def test_all_matches_the_bound_public_names():
    bound = [
        name
        for name, value in vars(vocab_bridge).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(vocab_bridge.__all__) == sorted(bound)


def test_every_listed_name_resolves_into_the_package():
    for name in vocab_bridge.__all__:
        value = getattr(vocab_bridge, name)
        assert value.__module__.startswith("vocab_bridge."), name
