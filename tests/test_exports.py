"""The package's public names are exactly ``circledyn.__all__``."""

import circledyn


def test_star_import_binds_exactly_the_resolving_names_of_all():
    names = circledyn.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(circledyn, name), name
    namespace: dict = {}
    exec("from circledyn import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(names)
