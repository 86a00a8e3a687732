import cograte


def test_every_export_resolves_once():
    # a name removed from a module but left in __all__ breaks `from cograte import *`
    missing = [name for name in cograte.__all__ if not hasattr(cograte, name)]
    assert missing == []
    assert len(set(cograte.__all__)) == len(cograte.__all__)
