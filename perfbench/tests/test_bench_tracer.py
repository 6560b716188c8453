import importlib

import pytest

import tracer
from tracer import BINDINGS, LAYER_FUNCTIONS, Tracer, aggregate, self_times


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    # Children overlapping each other (or sticking out of the parent) must
    # not push the parent's self time below zero.
    start = [0.0, 1.0, 2.0, 8.0]
    end = [10.0, 5.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_self_times_sum_to_root_duration():
    start = [0.0, 0.5, 0.6, 2.0, 3.0]
    end = [4.0, 1.5, 1.0, 3.5, 3.2]
    parent = [-1, 0, 1, 0, 3]
    assert sum(self_times(start, end, parent)) == pytest.approx(4.0)


def test_aggregate_from_a_recorded_trace():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    root = t.open("bench.op")           # 0
    a = t.open("x.f")                   # 1
    b = t.open("x.g")                   # 2
    t.close(b)                          # 3
    t.close(a)                          # 4
    a2 = t.open("x.f")                  # 5
    t.close(a2)                         # 6
    t.close(root)                       # 7
    agg = aggregate(t)
    assert agg["bench.op"] == [1, pytest.approx(7.0 - 3.0 - 1.0)]
    assert agg["x.f"] == [2, pytest.approx(2.0 + 1.0)]
    assert agg["x.g"] == [1, pytest.approx(1.0)]
    assert list(t.parent) == [-1, 0, 1, 0]


def test_layer_functions_name_every_binding():
    names = {tracer.span_name(getattr(importlib.import_module(m), a))
             for m, a in BINDINGS}
    assert names == set(LAYER_FUNCTIONS)
    assert len(LAYER_FUNCTIONS) == len(names)


def _bindings():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a in BINDINGS}


def test_wrappers_are_removed_after_a_traced_pass():
    from svgeom import tube
    from svgeom.bw_algebra import SpaceSpec

    before = _bindings()
    t = Tracer()
    t.install()
    try:
        assert all(getattr(importlib.import_module(m), a) is not f
                   for (m, a), f in before.items())
        tube.tube_volume(SpaceSpec((2,), (2,)), 0.3)
    finally:
        t.uninstall()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    names = [t.names[i] for i in t.name]
    assert names[0] == "tube.tube_volume"
    assert "matchings.matching_determinant_exact" in names
    assert "tube.radial_integral_quadrature" in names
    # Untraced calls after uninstall record nothing.
    count = len(t)
    tube.tube_volume(SpaceSpec((2,), (2,)), 0.3)
    assert len(t) == count


def test_wrappers_are_removed_when_the_pass_raises():
    from svgeom import tube
    from svgeom.errors import DomainError
    from svgeom.bw_algebra import SpaceSpec

    before = _bindings()
    t = Tracer()
    t.install()
    try:
        with pytest.raises(DomainError):
            tube.tube_volume(SpaceSpec((2,), (2,)), 3.0)
    finally:
        t.uninstall()
    assert all(_bindings()[key] is before[key] for key in before)
    assert all(t.end[i] >= t.start[i] for i in range(len(t)))


def test_install_twice_is_refused():
    t = Tracer()
    t.install()
    try:
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()
