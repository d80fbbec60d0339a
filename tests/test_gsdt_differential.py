"""The augmenting-path search, and the probes the stage loop decides without
it, against the whole-network reference of ``test_gsdt_dead_set``, and GSDT
properties on seeded random instances larger than brute force can reach."""

import random

import pytest

from camatch import (
    GuidedToward,
    derive_ordering,
    generate_random_instance,
    is_pareto_optimal,
    run_gsdt,
)
from camatch import gsdt
from test_gsdt_dead_set import least_shortest_path


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
    stage = gsdt._stage
    outcomes, searched = [], set()

    def both(net, applicant, tie, guided_order=None):
        searched.add((applicant, tie))
        expected = least_shortest_path(net, applicant, tie, guided_order)
        got = region_search(net, applicant, tie, guided_order)
        assert got == expected
        outcomes.append(got is not None)
        return got

    def decided_too(net, a):
        # A probe the loop decides without a search must have no path either;
        # such a stage augments nothing, so the network after it is the one
        # the loop decided on.
        searched.clear()
        probes = stage(net, a)
        for p in probes:
            if (a, p.tie) not in searched:
                assert p.path is None
                assert least_shortest_path(net, a, p.tie) is None
                outcomes.append(False)
        return probes

    monkeypatch.setattr(gsdt, "find_augmenting_path", both)
    monkeypatch.setattr(gsdt, "_stage", decided_too)
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
