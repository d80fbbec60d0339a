"""Every negative cycle of the extended envy graph reduces to an improving
coalition, not only the witness the verifier picks (arXiv:1507.02866: a
matching is Pareto optimal exactly when it admits no improving coalition).

On seeded random feasible matchings, pick random -1 arcs u -> v whose ends
share a strongly connected component and close each by a randomized
depth-first path from v back to u inside it. Each such simple cycle goes to
``extract_improving_coalition`` with a freshly built graph that nothing has
read, so the extraction builds the lists it checks. The coalition must be
valid and satisfying it must strictly dominate the matching. The unrolled
pseudocoalition is longer than the coalition whenever a repeat was
repaired, and the number of such extractions is pinned, so a change that
stops the cycles from repeating an applicant or a course shows."""

import random
from collections import Counter

import pytest

from camatch import CoalitionKind, Matching, generate_random_instance, parse_instance
from camatch.envy import (
    CycleWitness,
    _expanded,
    _unroll_cycle,
    build_envy_graph,
    extract_improving_coalition,
)
from camatch.matching import coalition_error, pareto_dominates, satisfy_coalition
from camatch.scc import strongly_connected_components
from instances import completed
from test_climb_random_starts import random_feasible_matching

CYCLES_PER_MATCHING = 10

# (n1, n2): instances, then the pins: extractions and how many of them
# needed at least one repair.
SIZES = {
    (10, 5): (200, 1_950, 288),
    (40, 15): (60, 600, 512),
    (80, 30): (20, 200, 174),
    (40, 60): (20, 200, 17),
}


def depth_first_path(succ, start, target, rng):
    """A simple path from ``start`` to a node with an arc into ``target``,
    by a depth-first search trying successors in random order. A node is
    marked when it joins the path, so the path wanders as far as the
    search goes before it meets ``target``."""
    seen, path = {start, target}, [start]
    stack = [iter(rng.sample(succ[start], len(succ[start])))]
    while True:
        for y in stack[-1]:
            if y == target:
                return path
            if y not in seen:
                seen.add(y)
                path.append(y)
                stack.append(iter(rng.sample(succ[y], len(succ[y]))))
                break
        else:  # every successor tried: back up
            path.pop()
            stack.pop()


def random_negative_cycles(inst, matching, rng):
    """Up to ``CYCLES_PER_MATCHING`` simple negative cycles as node lists,
    each with the weight of the arc leaving each node."""
    graph = build_envy_graph(inst, matching)
    out, strict = completed(graph)
    comp = [0] * len(out)
    for i, members in enumerate(strongly_connected_components(out)):
        for v in members:
            comp[v] = i
    real = len(graph.hub_of)
    inside = [[v for v in _expanded(graph, u) if comp[v] == comp[u]] for u in range(real)]
    weight = {(u, v): -1 if graph.hub_of[v] in strict[u] else 0
              for u in range(real) for v in inside[u]}
    strict_arcs = [arc for arc, w in weight.items() if w]
    for _ in range(CYCLES_PER_MATCHING if strict_arcs else 0):
        u, v = rng.choice(strict_arcs)
        cycle = [u] + depth_first_path(inside, v, u, rng)
        yield ([graph.node(x) for x in cycle],
               [weight[arc] for arc in zip(cycle, cycle[1:] + cycle[:1])])


@pytest.mark.parametrize("shape", list(SIZES))
def test_every_random_negative_cycle_reduces_to_an_improving_coalition(shape):
    count, extractions, repaired = SIZES[shape]
    rng = random.Random(f"cycles {shape}")
    seen = Counter()
    for _ in range(count):
        inst = generate_random_instance(*shape, 3, 4, 0.4, rng.randrange(2**31))
        matching = random_feasible_matching(inst, rng.randrange(2**31))
        for nodes, weights in random_negative_cycles(inst, matching, rng):
            witness = CycleWitness(tuple(nodes), sum(weights))
            fresh = build_envy_graph(inst, matching)
            coalition = extract_improving_coalition(inst, matching, fresh, witness)
            assert coalition_error(inst, matching, coalition) is None
            assert pareto_dominates(inst, satisfy_coalition(inst, matching, coalition), matching)
            pseudo = _unroll_cycle(inst, matching, nodes, weights)
            seen["extractions"] += 1
            seen["repaired"] += len(pseudo.elements()) > len(coalition.sequence())
    assert (seen["extractions"], seen["repaired"]) == (extractions, repaired)


def test_a_cycle_whose_last_applicant_repeats_reaches_the_trailing_repair():
    """A pure pair cycle (b c0) -> (a c1) -> (d c2) -> (e c3) -> (a c4): a
    holds c1 and c4 and ranks c0, c1, c2 and c4 in one tie, and only b's
    arc is strict. Unrolled, it reads c0 b c1 a c2 d c3 e c4 a, whose first
    repeat is its last element, a; she does not strictly prefer c2 to c4, so
    the cycle is cut after her first occurrence into the 2-cycle c0 b c1 a."""
    inst = parse_instance(
        "courses: c0=1 c1=1 c2=1 c3=1 c4=1\n"
        "applicant a quota=2 prefs: ( c0 c1 c2 c4 )\n"
        "applicant b quota=1 prefs: ( c1 ) ( c0 )\n"
        "applicant d quota=1 prefs: ( c2 c3 )\n"
        "applicant e quota=1 prefs: ( c3 c4 )\n")
    matching = Matching([("b", "c0"), ("a", "c1"), ("d", "c2"), ("e", "c3"), ("a", "c4")])
    nodes = (("p", "b", "c0"), ("p", "a", "c1"), ("p", "d", "c2"), ("p", "e", "c3"),
             ("p", "a", "c4"))
    graph = build_envy_graph(inst, matching)
    coalition = extract_improving_coalition(inst, matching, graph, CycleWitness(nodes, -1))
    assert (coalition.kind, coalition.applicants, coalition.courses) == (
        CoalitionKind.CYCLIC, ("b", "a"), ("c0", "c1"))
