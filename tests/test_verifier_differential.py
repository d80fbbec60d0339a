"""The SCC-based negative-cycle search against a label-correcting reference
on seeded random instances larger than brute force can reach."""

import random

import pytest

from camatch import (
    Matching,
    build_envy_graph,
    coalition_error,
    find_negative_cycle,
    generate_random_instance,
    is_pareto_optimal,
    pareto_dominates,
    run_gsdt,
)


def reference_has_negative_cycle(graph):
    """Bellman-Ford with a virtual source: labels start at 0 everywhere and
    arcs relax in canonical order; a relaxation that still fires after |V|
    full rounds betrays a negative cycle."""
    dist = {v: 0 for v in graph.nodes}
    for _ in range(len(graph.nodes)):
        improved = False
        for u, v, w in graph.arcs:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                improved = True
        if not improved:
            return False
    return bool(graph.nodes)


def random_matching(instance, rng):
    """A feasible matching: acceptable pairs in random order, each kept while
    both sides have room."""
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


def differential_cases():
    rng = random.Random(2015)
    for seed in range(30):
        inst = generate_random_instance(
            rng.randint(10, 30), rng.randint(3, 10), 3, 4, 0.4, seed)
        ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
        rng.shuffle(ordering)
        solved = run_gsdt(inst, ordering).matching
        pairs = solved.canonical_pairs()
        halved = Matching(rng.sample(pairs, len(pairs) // 2))
        for mu in (solved, halved, random_matching(inst, rng)):
            yield inst, mu


@pytest.fixture(scope="module")
def cases():
    return list(differential_cases())


@pytest.mark.parametrize("k", range(30))
def test_scc_search_agrees_with_bellman_ford(cases, k):
    for inst, mu in cases[3 * k:3 * k + 3]:
        graph = build_envy_graph(inst, mu)
        witness = find_negative_cycle(graph)
        assert (witness is not None) == reference_has_negative_cycle(graph)
        if witness is None:
            continue
        weights = {(u, v): w for u, v, w in graph.arcs}
        cycle = witness.nodes
        assert len(set(cycle)) == len(cycle)
        arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
        assert all(arc in weights for arc in arcs)
        assert witness.weight == sum(weights[arc] for arc in arcs) < 0


def test_negative_verdicts_ship_dominating_matchings(cases):
    negatives = 0
    for inst, mu in cases:
        check = is_pareto_optimal(inst, mu)
        if not check:
            negatives += 1
            assert coalition_error(inst, mu, check.coalition) is None
            assert pareto_dominates(inst, check.dominating, mu)
    # The mix of matchings exercises both verdicts.
    assert 0 < negatives < len(cases) == 90
