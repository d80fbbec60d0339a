"""The int-indexed envy graph against the tagged-tuple construction it
replaced: same nodes, same arcs in the same order, same witness, and the same
verdict and certificate, on seeded instances up to 80 applicants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from camatch import generate_random_instance, run_gsdt
from camatch.envy import (
    CycleWitness,
    ParetoCheck,
    _unroll_cycle,
    build_envy_graph,
    find_negative_cycle,
    is_pareto_optimal,
    reduce_pseudocoalition,
)
from camatch.matching import (
    Matching,
    is_exposed_applicant,
    is_exposed_course,
    require_feasible,
    satisfy_coalition,
    weakly_envied,
)


# ----------------------------------------------------------------------
# The reference: tagged-tuple nodes, one sorted arc list, dict-based Tarjan.
# ----------------------------------------------------------------------

class ReferenceGraph:
    def __init__(self, nodes, arcs):
        self.nodes = nodes
        self.arcs = arcs

    def weights(self):
        return {(u, v): w for u, v, w in self.arcs}


def reference_build_envy_graph(instance, matching):
    require_feasible(instance, matching)
    pair_list = matching.canonical_pairs()
    nodes = sorted(
        [("a", a) for a in instance.applicants]
        + [("c", c) for c in instance.courses]
        + [("p", a, c) for a, c in pair_list]
    )
    arcs = []
    for c in instance.courses:
        if is_exposed_course(instance, matching, c):
            arcs.extend((("c", c), ("a", a), 0) for a in instance.applicants)
            arcs.extend((("c", c), ("p", a2, c2), 0) for a2, c2 in pair_list)
    for a in instance.applicants:
        if not is_exposed_applicant(instance, matching, a):
            continue
        wanted = set(instance.acceptable(a)) - matching.of_applicant(a)
        arcs.extend((("a", a), ("c", c), -1) for c in wanted)
        arcs.extend(
            (("a", a), ("p", a2, c2), -1)
            for a2, c2 in pair_list
            if c2 in wanted and a2 != a
        )
    for a, c in pair_list:
        for c2, w in weakly_envied(instance, matching, a, c):
            arcs.append((("p", a, c), ("c", c2), w))
            arcs.extend(
                (("p", a, c), ("p", a2, c2), w) for a2 in sorted(matching.of_course(c2))
            )
    return ReferenceGraph(tuple(nodes), tuple(sorted(arcs)))


def reference_components(nodes, succ):
    index, low, stack, stack_pos, components = {}, {}, [], {}, []
    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, ei = work.pop()
            if ei == 0:
                index[node] = low[node] = len(index)
                stack_pos[node] = len(stack)
                stack.append(node)
            outs = succ[node]
            for k in range(ei, len(outs)):
                nxt = outs[k]
                if nxt not in index:
                    work.append((node, k + 1))
                    work.append((nxt, 0))
                    break
                if nxt in stack_pos:
                    low[node] = min(low[node], index[nxt])
            else:
                if low[node] == index[node]:
                    comp = stack[stack_pos[node]:]
                    del stack[stack_pos[node]:]
                    for member in comp:
                        del stack_pos[member]
                    components.append(comp)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return components


def reference_find_negative_cycle(graph):
    succ = {v: [] for v in graph.nodes}
    for u, v, _ in graph.arcs:
        succ[u].append(v)
    components = reference_components(graph.nodes, succ)
    comp_of = {v: i for i, comp in enumerate(components) for v in comp}
    for tail, head, w in graph.arcs:
        if w < 0 and comp_of[tail] == comp_of[head]:
            break
    else:
        return None
    parent = {head: head}
    queue = [head]
    for x in queue:
        for y in succ[x]:
            if y not in parent and comp_of[y] == comp_of[head]:
                parent[y] = x
                queue.append(y)
    back = [tail]
    while back[-1] != head:
        back.append(parent[back[-1]])
    cycle = [tail] + back[:0:-1]
    weights = graph.weights()
    total = sum(weights[arc] for arc in zip(cycle, cycle[1:] + cycle[:1]))
    return CycleWitness(tuple(cycle), total)


def reference_is_pareto_optimal(instance, matching):
    graph = reference_build_envy_graph(instance, matching)
    witness = reference_find_negative_cycle(graph)
    if witness is None:
        return ParetoCheck(True)
    weights = graph.weights()
    cycle = list(witness.nodes)
    arc_weights = [weights[arc] for arc in zip(cycle, cycle[1:] + cycle[:1])]
    pseudo = _unroll_cycle(instance, matching, cycle, arc_weights)
    coalition = reduce_pseudocoalition(instance, matching, pseudo)
    return ParetoCheck(False, coalition, satisfy_coalition(instance, matching, coalition))


# ----------------------------------------------------------------------
# Seeded cases: four matchings per instance.
# ----------------------------------------------------------------------

def random_greedy_matching(instance, rng):
    pairs = [(a, c) for a in instance.applicants for c in sorted(instance.acceptable(a))]
    rng.shuffle(pairs)
    load = {x: 0 for x in [*instance.applicants, *instance.courses]}
    kept = []
    for a, c in pairs:
        if load[a] < instance.quota[a] and load[c] < instance.capacity[c]:
            load[a] += 1
            load[c] += 1
            kept.append((a, c))
    return Matching(kept)


def seeded_cases():
    rng = random.Random(1507)
    for k in range(24):
        density = (0.0, 0.4, 0.9)[k % 3]
        inst = generate_random_instance(
            rng.randint(3, 80), rng.randint(2, 30), 3, 4, density, 1507 * 100 + k)
        ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
        rng.shuffle(ordering)
        optimum = run_gsdt(inst, ordering).matching
        pairs = optimum.canonical_pairs()
        matchings = {
            "optimum": optimum,
            "half": Matching(rng.sample(pairs, len(pairs) // 2)),
            "greedy": random_greedy_matching(inst, rng),
            "empty": Matching(),
        }
        for name, matching in matchings.items():
            yield f"i{k}-{name}", inst, matching


CASES = list(seeded_cases())


def test_cases_reach_both_verdicts_and_large_graphs():
    verdicts = [bool(reference_is_pareto_optimal(inst, m)) for _, inst, m in CASES]
    assert 20 <= sum(verdicts) <= len(CASES) - 20
    assert max(len(inst.applicants) for _, inst, _ in CASES) >= 60


@pytest.mark.parametrize(
    "inst, matching", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_int_graph_equals_tagged_reference(inst, matching):
    graph = build_envy_graph(inst, matching)
    reference = reference_build_envy_graph(inst, matching)
    assert graph.nodes == reference.nodes
    assert graph.arcs == reference.arcs
    assert {(u, v): w for u, v, w in graph.arcs} == reference.weights()
    assert find_negative_cycle(graph) == reference_find_negative_cycle(reference)
    assert is_pareto_optimal(inst, matching) == reference_is_pareto_optimal(inst, matching)


# ----------------------------------------------------------------------
# Property: ids follow the tagged order, and arcs come out sorted.
# ----------------------------------------------------------------------

instances = st.builds(
    generate_random_instance,
    n1=st.integers(10, 60),
    n2=st.integers(3, 15),
    max_b=st.integers(1, 3),
    max_q=st.integers(1, 4),
    tie_density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(instances, st.integers(0, 2**32 - 1))
def test_property_ids_follow_tagged_order_and_arcs_come_out_sorted(inst, seed):
    matching = random_greedy_matching(inst, random.Random(seed))
    graph = build_envy_graph(inst, matching)
    assert list(graph.nodes) == sorted(graph.nodes)
    assert list(graph.arcs) == sorted(set(graph.arcs))  # each tail's heads ascend, none twice
    assert set(graph.arcs) == set(reference_build_envy_graph(inst, matching).arcs)
