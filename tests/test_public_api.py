"""`from clawchroma import *` binds every name of `__all__`, once each."""

import clawchroma


def test_all_names_resolve_once():
    names = clawchroma.__all__
    assert len(set(names)) == len(names)
    namespace = {}
    # raises AttributeError on a name the package does not define
    exec("from clawchroma import *", namespace)
    assert set(names) <= set(namespace)
