"""`strongly_connected_components` against a frozen copy of the routine it
replaced, which kept a work stack of (node, iterator) pairs: the components
and the order of their members must come back identical, since
`_pair_priority_order` and the verifier's witness both read that order."""

import itertools
import random
from collections.abc import Mapping

import pytest

from camatch import build_envy_graph, generate_random_instance
from camatch.scc import strongly_connected_components
from test_certificate_pin import random_feasible_matching


def reference_scc(nodes, succ):
    """The iterative Tarjan with one (node, iterator) pair per DFS frame."""
    fresh = dict.fromkeys(succ, -1) if isinstance(succ, Mapping) else [-1] * len(succ)
    index, low, stack_pos = fresh, fresh.copy(), fresh.copy()  # -1: unset
    stack = []
    components = []
    visits = itertools.count()
    for root in nodes:
        if index[root] >= 0:
            continue
        work = [(root, None)]
        while work:
            node, outs = work.pop()
            if outs is None:  # first visit
                index[node] = low[node] = next(visits)
                stack_pos[node] = len(stack)
                stack.append(node)
                outs = iter(succ[node])
            for nxt in outs:
                if index[nxt] < 0:
                    work += [(node, outs), (nxt, None)]
                    break
                if stack_pos[nxt] >= 0 and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                if low[node] == index[node]:
                    comp = stack[stack_pos[node]:]
                    del stack[stack_pos[node]:]
                    for member in comp:
                        stack_pos[member] = -1
                    components.append(comp)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return components


def random_graph(rng):
    """Successor lists over 0..n-1 with self-loops, repeated arcs and empty
    lists, at densities from a forest to a near-clique, and a root order:
    ascending, shuffled, or a shuffled subset (the rest reached or not)."""
    n = rng.randint(0, 60)
    degree = rng.choice([0.5, 1, 2, 4, 10])
    succ = []
    for v in range(n):
        if rng.random() < 0.2:
            succ.append([])
            continue
        outs = [rng.randrange(n) for _ in range(rng.randint(0, int(2 * degree)))]
        if rng.random() < 0.2:
            outs.append(v)
        if outs and rng.random() < 0.3:
            outs += rng.choices(outs, k=rng.randint(1, 3))
        rng.shuffle(outs)
        succ.append(outs)
    roots = list(range(n))
    shape = rng.randrange(3)
    if shape:
        rng.shuffle(roots)
    if shape == 2:
        roots = roots[:rng.randint(0, n)]
    return roots, succ


@pytest.mark.parametrize("chunk", range(10))
def test_random_graphs_match_the_reference(chunk):
    rng = random.Random(f"scc:{chunk}")
    for _ in range(40):
        roots, succ = random_graph(rng)
        assert strongly_connected_components(roots, succ) == reference_scc(roots, succ)


def test_mapping_form_with_tuple_nodes_matches_the_reference():
    rng = random.Random(1972)
    for _ in range(50):
        roots, succ = random_graph(rng)
        name = {v: ("p", f"a{v % 7}", f"c{v}") for v in range(len(succ))}
        adj = {name[v]: [name[w] for w in outs] for v, outs in enumerate(succ)}
        keys = [name[v] for v in roots]
        comps = strongly_connected_components(keys, adj)
        assert comps == reference_scc(keys, adj)
        assert comps == [[name[v] for v in comp] for comp in reference_scc(roots, succ)]


def test_envy_graphs_at_audit_scale_match_the_reference():
    rng = random.Random(3020)
    for _ in range(12):
        inst = generate_random_instance(80, 30, 3, 4, 0.4, rng.randrange(2**31))
        out = build_envy_graph(inst, random_feasible_matching(inst, rng)).out
        comps = strongly_connected_components(range(len(out)), out)
        assert comps == reference_scc(range(len(out)), out)
        assert any(len(comp) > 1 for comp in comps)


def test_hundred_thousand_node_chain_into_a_cycle_needs_no_recursion():
    n = 100_000
    succ = [[i + 1] for i in range(n - 1)] + [[n - 3]]  # the last three form a cycle
    comps = strongly_connected_components(range(n), succ)
    assert comps[0] == [n - 3, n - 2, n - 1]
    assert comps[1:] == [[i] for i in range(n - 4, -1, -1)]
