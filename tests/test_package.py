import lampgrid


def test_every_exported_name_resolves():
    missing = [name for name in lampgrid.__all__ if not hasattr(lampgrid, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from lampgrid import *", namespace)
    assert set(lampgrid.__all__) <= set(namespace)
