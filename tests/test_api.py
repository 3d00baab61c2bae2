"""The package surface: ``fundlim.__all__`` is the union of its modules' lists."""

import fundlim as fl
from fundlim import bounds, controllers, disturbance, errors, plant, simulation

MODULES = (bounds, controllers, disturbance, errors, plant, simulation)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fundlim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(fl.__all__)


def test_each_name_comes_from_exactly_one_module():
    for name in fl.__all__:
        owners = [module for module in MODULES if name in module.__all__]
        assert len(owners) == 1, (name, [module.__name__ for module in owners])
        assert getattr(fl, name) is getattr(owners[0], name)
    assert sum(len(module.__all__) for module in MODULES) == len(fl.__all__)


def test_no_private_names():
    assert not [name for name in fl.__all__ if name.startswith("_")]
