"""The augmenting-path search, and the probes the stage loop decides without
it, against the whole-network reference of ``test_gsdt_dead_set`` (and on
seat-rich 40x60 instances, where the search mostly ends at the probed tie's
own free course, against the arc visits and dead set of the frozen search of
``test_gsdt_stage_reference``), and GSDT properties on seeded random
instances larger than brute force can reach, popularity-correlated ones
among them."""

import itertools
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
from instances import correlated_instance, probes
from test_gsdt_dead_set import least_shortest_path
from test_gsdt_stage_reference import find_augmenting_path as frozen_search


def random_instances(count, n1_range, n2_range, seed, family=generate_random_instance):
    rng = random.Random(seed)
    for k in range(count):
        inst = family(rng.randint(*n1_range), rng.randint(*n2_range), 3, 4, 0.4, seed * 1000 + k)
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

    def both(net, applicant, tie):
        searched.add((applicant, tie))
        expected = least_shortest_path(net, applicant, tie)
        got = region_search(net, applicant, tie)
        assert got == expected
        outcomes.append(got is not None)
        return got

    def decided_too(net, a):
        # A probe the loop decides without a search must have no path either;
        # such a stage augments nothing, so the network after it is the one
        # the loop decided on.
        searched.clear()
        stage(net, a)
        for p in probes(net.record[-1]):
            if (a, p.tie) not in searched:
                assert p.path is None
                assert least_shortest_path(net, a, p.tie) is None
                outcomes.append(False)

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
    for inst, ordering in itertools.chain(
            random_instances(20, (20, 60), (5, 20), 2015),
            random_instances(20, (20, 60), (5, 60), 2016, correlated_instance)):
        optimum = run_gsdt(inst, ordering).matching
        assert is_pareto_optimal(inst, optimum)
        replay = run_gsdt(inst, derive_ordering(inst, optimum), GuidedToward(optimum))
        assert replay.matching == optimum


# Seats outnumber quota, so most probes end at a free course of the probed
# tie's own first level, the search's direct exit.
SEAT_RICH_CASES = list(random_instances(6, (40, 40), (60, 60), 4060))


@pytest.mark.parametrize("k", range(len(SEAT_RICH_CASES)))
def test_region_search_equals_the_references_where_seats_abound(monkeypatch, k):
    """Each probe of a seat-rich canonical run and of its guided replay
    takes the whole-network reference path, and inspects as many arcs and
    leaves the same dead set as the frozen breadth-first search of
    ``test_gsdt_stage_reference``, run on a copy of the network."""
    inst, ordering = SEAT_RICH_CASES[k]
    region_search = gsdt.find_augmenting_path
    counts = {"direct": 0, "deeper": 0, "failed": 0}

    def both(net, applicant, tie):
        ref = net.copy(net.instance)  # the frozen search reads the policy the copy carries
        ref.flow_snk = {c: len(held) for c, held in ref.holders.items()}  # and a sink count
        expected = frozen_search(ref, applicant, tie, ref.guided_order)
        assert least_shortest_path(net, applicant, tie) == expected
        got = region_search(net, applicant, tie)
        assert got == expected
        assert net.arc_visits[-1] == ref.arc_visits[-1]
        assert net.dead == ref.dead
        counts["failed" if got is None else "direct" if len(got) == 5 else "deeper"] += 1
        return got

    monkeypatch.setattr(gsdt, "find_augmenting_path", both)
    optimum = run_gsdt(inst, ordering).matching
    assert run_gsdt(inst, derive_ordering(inst, optimum), GuidedToward(optimum)).matching == optimum
    # The direct exit dominates, and the deeper search and failures both occur.
    assert counts["direct"] > 10 * counts["deeper"] > 0 and counts["failed"] > 0
