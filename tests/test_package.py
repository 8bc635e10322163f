import swmparc


def test_every_export_resolves_once():
    # an export left behind by a deleted or renamed function fails here, not
    # at a user's `from swmparc import *`
    names = swmparc.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(swmparc, name)] == []
