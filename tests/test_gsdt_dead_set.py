"""The dead set of the GSDT search against a whole-network reference: no node
the search has marked dead may reach the sink in the residual network, before
or after any probe of seeded canonical and guided runs, and on
Hypothesis-drawn instances after any stage."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from camatch import (
    GuidedToward,
    derive_ordering,
    generate_random_instance,
    is_pareto_optimal,
    run_gsdt,
)
from camatch import gsdt
from camatch.gsdt import SNK


def sink_reachers(net):
    """Every node that reaches the sink in the residual network, by reverse
    breadth-first search over the whole network rebuilt from the current
    matching and the instance."""
    inst = net.instance
    matched = net.matching()
    pred = {SNK: []}
    for a in inst.applicants:
        for t, courses in enumerate(inst.prefs[a]):
            for c in courses:
                if (a, c) not in matched:
                    pred.setdefault(("crs", c), []).append(("tie", a, t))
    for c in inst.courses:
        if len(matched.of_course(c)) < inst.capacity[c]:
            pred[SNK].append(("crs", c))
        for a in matched.of_course(c):
            pred.setdefault(("tie", a, inst.tie_of(a, c)), []).append(("crs", c))
    reached = {SNK}
    frontier = [SNK]
    while frontier:
        v = frontier.pop()
        for u in pred.get(v, ()):
            if u not in reached:
                reached.add(u)
                frontier.append(u)
    return reached


def assert_dead_cannot_reach_sink(net):
    assert not net.dead & sink_reachers(net)


def seeded_cases(count, seed):
    rng = random.Random(seed)
    for k in range(count):
        inst = generate_random_instance(
            rng.randint(10, 60), rng.randint(3, 15), 3, 4,
            (0.0, 0.4, 0.9)[k % 3], seed * 1000 + k)
        ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
        rng.shuffle(ordering)
        yield inst, ordering


CASES = list(seeded_cases(30, 1973))


@pytest.mark.parametrize("k", range(len(CASES)))
def test_dead_nodes_never_reach_the_sink(monkeypatch, k):
    inst, ordering = CASES[k]
    search = gsdt.find_augmenting_path
    dead_starts = 0
    networks = []

    def checked(net, applicant, tie, guided_order=None):
        nonlocal dead_starts
        if not networks or networks[-1] is not net:
            networks.append(net)
        assert_dead_cannot_reach_sink(net)
        dead_starts += ("tie", applicant, tie) in net.dead
        path = search(net, applicant, tie, guided_order)
        assert_dead_cannot_reach_sink(net)
        return path

    monkeypatch.setattr(gsdt, "find_augmenting_path", checked)
    optimum = run_gsdt(inst, ordering).matching
    run_gsdt(inst, derive_ordering(inst, optimum), GuidedToward(optimum))
    # The last augmentation of each run happens after its last probe.
    assert len(networks) == 2
    for net in networks:
        assert_dead_cannot_reach_sink(net)
        assert net.dead
    assert dead_starts > 0


# ----------------------------------------------------------------------
# Properties on drawn instances.
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
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)


def shuffled_ordering(inst, seed):
    ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
    random.Random(seed).shuffle(ordering)
    return ordering


@PROPERTY
@given(instances, st.integers(0, 2**32 - 1))
def test_property_no_dead_node_reaches_the_sink_after_any_stage(inst, seed):
    check = gsdt.FlowNetwork.check

    def checked(net, *args, **kwargs):
        check(net, *args, **kwargs)
        assert_dead_cannot_reach_sink(net)

    # run_gsdt checks the network after every stage and once more at the end.
    with mock.patch.object(gsdt.FlowNetwork, "check", checked):
        run_gsdt(inst, shuffled_ordering(inst, seed))


@PROPERTY
@given(instances, st.integers(0, 2**32 - 1))
def test_property_canonical_output_is_pareto_optimal_and_replays(inst, seed):
    optimum = run_gsdt(inst, shuffled_ordering(inst, seed)).matching
    assert is_pareto_optimal(inst, optimum)
    replay = run_gsdt(inst, derive_ordering(inst, optimum), GuidedToward(optimum))
    assert replay.matching == optimum
