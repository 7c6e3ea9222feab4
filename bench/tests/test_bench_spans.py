"""Span tracer: self-time arithmetic and patching of copied names."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Tracer, install, layer_metrics, uninstall  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9]
    tr = Tracer(clock=iter([0, 1, 2, 3, 4, 5, 9, 10]).__next__)
    root = tr.open("x.root")
    a = tr.open("x.a")
    a1 = tr.open("y.a1")
    tr.close(a1)
    tr.close(a)
    b = tr.open("x.b")
    tr.close(b)
    tr.close(root)
    self_t = tr.self_times()
    assert self_t == [10 - 3 - 4, 3 - 1, 1, 4]
    assert sum(self_t) == 10


def test_span_outside_the_pass_is_rejected():
    tr = Tracer(clock=iter([0, 5]).__next__)
    tr.close(tr.open("x.a"))
    assert layer_metrics(tr, 5)["trace.remainder_s"] == 0
    with pytest.raises(AssertionError):
        layer_metrics(tr, 4)


def test_spans_closed_out_of_order_are_rejected():
    tr = Tracer()
    outer = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_install_patches_every_copy_and_uninstall_restores():
    import sharpmap
    from sharpmap import gaps, linprog, polynomial, search

    original = linprog.max_min_component
    tr = Tracer()
    patched = install(tr)
    try:
        wrapped = linprog.max_min_component
        assert wrapped is not original
        assert search.max_min_component is wrapped
        assert gaps.max_min_component is wrapped
        assert search.is_map_polynomial is polynomial.is_map_polynomial
        assert sharpmap.uniqueness_status is search.uniqueness_status

        t0 = time.perf_counter()
        result = search.uniqueness_status(5)
        wall = time.perf_counter() - t0
    finally:
        uninstall(patched)
    assert search.max_min_component is original
    assert result.status == "unique_up_to_equivalence"

    m = layer_metrics(tr, wall)
    assert m["search.solved"] == m["search.solve_calls"] > 0
    assert m["search.solved"] == sum(m[f"search.out.{k}"] for k in
                                     ("infeasible_direct", "lp_infeasible",
                                      "point", "polytope"))
    assert m["search.witness_checks"] == m["search.out.point"] + m["search.out.polytope"]
    layer_total = sum(m[k] for k in ("search.enum_self_s", "search.elim_self_s",
                                     "linprog.self_s", "polynomial.self_s",
                                     "trace.remainder_s"))
    assert layer_total == pytest.approx(wall)
    assert m["trace.remainder_s"] >= 0
