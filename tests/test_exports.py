"""The package's public names: every name in ``abr_arena.__all__`` resolves,
and none is listed twice, so a deleted function cannot linger as an export."""

import abr_arena


def test_every_exported_name_resolves_once():
    names = abr_arena.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(abr_arena, name)]
    assert not missing
