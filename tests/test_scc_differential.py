"""`strongly_connected_components` against a frozen copy of the routine it
replaced, which kept a work stack of (node, iterator) pairs: the components
and the order of their members must come back identical, since
`envy._pair_priority_order` and the verifier's witness both read that order."""

import itertools
import random
from collections.abc import Mapping

import pytest

from camatch import build_envy_graph, generate_random_instance
from camatch.scc import strongly_connected_components
from instances import completed
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
    lists, at densities from a forest to a near-clique."""
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
    return succ


@pytest.mark.parametrize("chunk", range(10))
def test_random_graphs_match_the_reference(chunk):
    rng = random.Random(f"scc:{chunk}")
    for _ in range(40):
        succ = random_graph(rng)
        assert strongly_connected_components(succ) == reference_scc(range(len(succ)), succ)


def test_envy_graphs_at_audit_scale_match_the_reference():
    rng = random.Random(3020)
    for _ in range(12):
        inst = generate_random_instance(80, 30, 3, 4, 0.4, rng.randrange(2**31))
        out, _ = completed(build_envy_graph(inst, random_feasible_matching(inst, rng)))
        comps = strongly_connected_components(out)
        assert comps == reference_scc(range(len(out)), out)
        assert any(len(comp) > 1 for comp in comps)


def test_hundred_thousand_node_chain_into_a_cycle_needs_no_recursion():
    n = 100_000
    succ = [[i + 1] for i in range(n - 1)] + [[n - 3]]  # the last three form a cycle
    comps = strongly_connected_components(succ)
    assert comps[0] == [n - 3, n - 2, n - 1]
    assert comps[1:] == [[i] for i in range(n - 4, -1, -1)]
