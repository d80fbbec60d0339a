"""Self-time arithmetic of the benchmark's tracer.

Run from the repository root: python3 -m pytest -q bench/test_spans.py
"""

import pytest

import spans as sp


def span(name, start, end, parent, op=0):
    return (name, start, end, parent, op, None)


def test_union_length_merges_nested_overlapping_and_disjoint():
    assert sp.union_length([], 0, 10) == 0
    assert sp.union_length([(1, 4), (2, 3), (3, 6)], 0, 10) == 5
    assert sp.union_length([(1, 2), (5, 7)], 0, 10) == 3
    assert sp.union_length([(1, 2), (1, 2)], 0, 10) == 1
    # Clipped to the parent's interval; intervals outside it count nothing.
    assert sp.union_length([(-3, 2), (8, 15), (20, 30)], 0, 10) == 4


def test_self_time_subtracts_union_of_children():
    tree = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a1", 2.0, 3.0, 1),   # nested inside a
        span("b", 3.0, 6.0, 0),    # overlaps a
        span("c", 8.0, 12.0, 0),   # runs past the root's end
        span("other-op", 0.0, 5.0, -1, op=1),
    ]
    assert sp.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 5.0])


def test_wrapper_records_parents_and_closes_on_error():
    tracer = sp.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x + 1

    wrapped_inner = tracer.span("inner", inner, attr=lambda a, k, r: r)

    def outer(x):
        try:
            wrapped_inner(-1)
        except ValueError:
            pass
        return wrapped_inner(x)

    tracer.op = 7
    assert tracer.span("outer", outer)(1) == 2
    names = [(s[sp.NAME], s[sp.PARENT], s[sp.OP], s[sp.ATTR]) for s in tracer.spans]
    assert names == [("outer", -1, 7, None), ("inner", 0, 7, None), ("inner", 0, 7, 2)]
    outer_self = sp.self_times(tracer.spans)[0]
    s = tracer.spans
    assert outer_self == pytest.approx(
        (s[0][sp.END] - s[0][sp.START])
        - (s[1][sp.END] - s[1][sp.START])
        - (s[2][sp.END] - s[2][sp.START]))
