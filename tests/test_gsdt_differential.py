"""The region-restricted augmenting-path search against a whole-network
reference, and GSDT properties on seeded random instances larger than brute
force can reach."""

import random

import pytest

from camatch import (
    CANONICAL,
    GuidedToward,
    derive_ordering,
    generate_random_instance,
    is_pareto_optimal,
    run_gsdt,
)
from camatch import gsdt
from camatch.gsdt import SNK, SRC


def reference_search(state, applicant, tie, policy=CANONICAL, guided_order=None):
    """Whole-network search: rebuild the residual graph of every tie and
    every listed course from the current matching and the instance, find
    distances to the sink by reverse breadth-first search over all of it,
    and walk the least-key shortest path from the probed tie."""
    inst = state.instance
    matched = state.network.matching()

    def free(c):
        return len(matched.of_course(c)) < inst.capacity[c]

    if isinstance(policy, GuidedToward) and guided_order is not None:
        held = matched.of_applicant(applicant)
        for c in guided_order.get(applicant, ()):
            if c in inst.prefs[applicant][tie] and c not in held and free(c):
                return [SRC, ("app", applicant), ("tie", applicant, tie), ("crs", c), SNK]

    succ = {}
    for a in inst.applicants:
        for t, courses in enumerate(inst.prefs[a]):
            succ[("tie", a, t)] = [
                ("crs", c) for c in sorted(courses) if (a, c) not in matched]
    listed = sorted({c for a in inst.applicants for ties in inst.prefs[a] for c in ties})
    for c in listed:
        succ[("crs", c)] = [SNK] if free(c) else []
    for a, c in matched.canonical_pairs():
        succ[("crs", c)].append(("tie", a, inst.tie_of(a, c)))

    pred = {SNK: []}
    for u, outs in succ.items():
        pred.setdefault(u, [])
        for v in outs:
            pred.setdefault(v, []).append(u)
    dist = {SNK: 0}
    frontier = [SNK]
    while frontier:
        nxt = []
        for v in frontier:
            for u in pred[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    start = ("tie", applicant, tie)
    if start not in dist:
        return None

    path = [SRC, ("app", applicant), start]
    node = start
    while node != SNK:
        node = min(v for v in succ[node] if dist.get(v) == dist[node] - 1)
        path.append(node)
    return path


def random_instances(count, n1_range, n2_range, seed):
    rng = random.Random(seed)
    for k in range(count):
        inst = generate_random_instance(
            rng.randint(*n1_range), rng.randint(*n2_range), 3, 4, 0.4, seed * 1000 + k)
        ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
        rng.shuffle(ordering)
        yield inst, ordering


DIFFERENTIAL_CASES = list(random_instances(30, (10, 40), (3, 15), 1507))


@pytest.mark.parametrize("k", range(len(DIFFERENTIAL_CASES)))
def test_region_search_equals_whole_network_search(monkeypatch, k):
    inst, ordering = DIFFERENTIAL_CASES[k]
    region_search = gsdt.find_augmenting_path
    outcomes = []

    def both(state, applicant, tie, policy=CANONICAL, guided_order=None):
        expected = reference_search(state, applicant, tie, policy, guided_order)
        got = region_search(state, applicant, tie, policy, guided_order)
        assert got == expected
        outcomes.append(got is not None)
        return got

    monkeypatch.setattr(gsdt, "find_augmenting_path", both)
    optimum = run_gsdt(inst, ordering).matching
    canonical_probes = len(outcomes)
    replay = run_gsdt(inst, derive_ordering(inst, optimum), GuidedToward(optimum))
    assert replay.matching == optimum
    assert 0 < canonical_probes < len(outcomes)
    # Both outcomes of a probe are exercised.
    assert any(outcomes) and not all(outcomes)


def test_outputs_are_pareto_optimal_and_replay_beyond_brute_force():
    for inst, ordering in random_instances(20, (20, 60), (5, 20), 2015):
        optimum = run_gsdt(inst, ordering).matching
        assert is_pareto_optimal(inst, optimum)
        replay = run_gsdt(inst, derive_ordering(inst, optimum), GuidedToward(optimum))
        assert replay.matching == optimum
