import dpgmarch


def test_every_exported_name_resolves():
    missing = [name for name in dpgmarch.__all__ if not hasattr(dpgmarch, name)]
    assert missing == []
    assert len(set(dpgmarch.__all__)) == len(dpgmarch.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dpgmarch import *", namespace)
    assert set(dpgmarch.__all__) <= set(namespace)
