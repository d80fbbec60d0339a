"""The shared strongly-connected-components routine."""

from camatch.scc import strongly_connected_components


def test_condensation_comes_back_sinks_first():
    # Components {a, b} -> {c} -> {d, e, f}, plus an isolated g.
    succ = {
        "a": ["b", "c"],
        "b": ["a"],
        "c": ["d"],
        "d": ["e"],
        "e": ["f"],
        "f": ["d"],
        "g": [],
    }
    comps = strongly_connected_components(sorted(succ), succ)
    assert [set(comp) for comp in comps] == [
        {"d", "e", "f"}, {"c"}, {"a", "b"}, {"g"}]


def test_every_node_in_exactly_one_component():
    succ = {i: [(i * 7) % 11, (i + 3) % 11] for i in range(11)}
    comps = strongly_connected_components(range(11), succ)
    assert sorted(v for comp in comps for v in comp) == list(range(11))


def test_empty_graph():
    assert strongly_connected_components([], {}) == []


def test_long_chain_into_cycle_needs_no_recursion():
    n = 5000
    succ = {i: [i + 1] for i in range(n - 1)}
    succ[n - 1] = [n - 3]  # the last three nodes form a cycle
    comps = strongly_connected_components(range(n), succ)
    assert sorted(comps[0]) == [n - 3, n - 2, n - 1]
    assert comps[1:] == [[i] for i in range(n - 4, -1, -1)]
