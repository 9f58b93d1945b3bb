"""The package surface: every public name resolves from a star import."""
import thetadissect


def test_star_import_resolves_every_name_in_all():
    namespace = {}
    exec("from thetadissect import *", namespace)  # AttributeError on a stale name
    assert set(thetadissect.__all__) <= namespace.keys()
    assert len(set(thetadissect.__all__)) == len(thetadissect.__all__)
