"""The package's public surface: names resolve on first use (PEP 562)."""

from __future__ import annotations

import importlib

import pytest

import metric_repair


def test_every_public_name_is_its_submodules_object():
    for name in metric_repair.__all__:
        module = importlib.import_module(f"metric_repair.{metric_repair._EXPORTS[name]}")
        assert getattr(metric_repair, name) is getattr(module, name), name


def test_table_and_all_hold_the_same_names():
    assert sorted(metric_repair._EXPORTS) == sorted(metric_repair.__all__)
    assert len(set(metric_repair.__all__)) == len(metric_repair.__all__)


def test_dir_lists_every_public_name():
    assert set(dir(metric_repair)) >= set(metric_repair.__all__)
    assert "__version__" in dir(metric_repair)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from metric_repair import *", namespace)
    assert set(metric_repair.__all__) <= set(namespace)
    assert namespace["run_algo"] is importlib.import_module("metric_repair.runner").run_algo


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        metric_repair.no_such_name
    assert not hasattr(metric_repair, "no_such_name")
    with pytest.raises(ImportError):
        exec("from metric_repair import no_such_name", {})


def test_resolved_names_are_not_cached_in_the_package():
    # A rebound submodule attribute is seen on the next lookup, so a patched
    # function (and its later restoration) reaches every caller of the package.
    detect = importlib.import_module("metric_repair.detect")
    original = detect.is_metric
    assert metric_repair.is_metric is original
    assert "is_metric" not in vars(metric_repair)
    try:
        detect.is_metric = sentinel = object()
        assert metric_repair.is_metric is sentinel
    finally:
        detect.is_metric = original
    assert metric_repair.is_metric is original


def test_support_rejected_error_is_one_class_everywhere():
    from metric_repair import approx, graphs

    assert approx.SupportRejectedError is graphs.SupportRejectedError
    assert metric_repair.SupportRejectedError is graphs.SupportRejectedError
    assert issubclass(graphs.SupportRejectedError, metric_repair.MetricRepairError)
