import ccgplan


def test_every_exported_name_resolves():
    assert [name for name in ccgplan.__all__ if not hasattr(ccgplan, name)] == []


def test_exports_are_sorted_and_unique():
    assert ccgplan.__all__ == sorted(set(ccgplan.__all__))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from ccgplan import *", namespace)
    assert set(ccgplan.__all__) <= set(namespace)


def test_parse_all_is_the_one_parse_call():
    # the strict search and the best-effort chart are steps of parse_all
    assert {"enumerate_parses", "best_effort"}.isdisjoint(ccgplan.__all__)
    assert {"parse_all", "chart_parse_all", "canonical_plan"} <= set(ccgplan.__all__)
