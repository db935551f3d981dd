import xideform


def test_every_exported_name_resolves():
    missing = [name for name in xideform.__all__ if not hasattr(xideform, name)]
    assert not missing
    assert len(set(xideform.__all__)) == len(xideform.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from xideform import *", namespace)
    assert set(xideform.__all__) <= namespace.keys()
