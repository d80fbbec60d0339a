"""The shared strongly-connected-components routine, on int adjacency lists."""

from camatch.scc import strongly_connected_components


def test_condensation_comes_back_sinks_first():
    # Components {0, 1} -> {2} -> {3, 4, 5}, plus an isolated 6.
    succ = [
        [1, 2],
        [0],
        [3],
        [4],
        [5],
        [3],
        [],
    ]
    comps = strongly_connected_components(succ)
    assert [set(comp) for comp in comps] == [
        {3, 4, 5}, {2}, {0, 1}, {6}]


def test_every_node_in_exactly_one_component():
    succ = [[(i * 7) % 11, (i + 3) % 11] for i in range(11)]
    comps = strongly_connected_components(succ)
    assert sorted(v for comp in comps for v in comp) == list(range(11))


def test_empty_graph():
    assert strongly_connected_components([]) == []


def test_long_chain_into_cycle_needs_no_recursion():
    n = 5000
    succ = [[i + 1] for i in range(n - 1)]
    succ.append([n - 3])  # the last three nodes form a cycle
    comps = strongly_connected_components(succ)
    assert sorted(comps[0]) == [n - 3, n - 2, n - 1]
    assert comps[1:] == [[i] for i in range(n - 4, -1, -1)]
