"""The stage trace replayed on first read against the eager loop it replaced,
which checked the whole network and snapshotted the matching after every
stage, on seeded random instances and every ordering of the fixture fleet."""

import random
from types import SimpleNamespace

import pytest

from camatch import (
    CANONICAL,
    GuidedToward,
    Matching,
    derive_ordering,
    generate_random_instance,
    render_trace,
    run_gsdt,
)
from camatch.fixtures import fixture_instances
from camatch.gsdt import (
    FlowNetwork,
    GsdtState,
    ProbeRecord,
    StageRecord,
    _pair_priority_order,
    find_augmenting_path,
)
from camatch.instance import validate_ordering
from camatch.oracle import distinct_orderings


def reference_run(instance, ordering, policy=CANONICAL):
    """Eager loop: after every stage run the full network check and record
    the matching, the tie pointers and the source capacities."""
    validate_ordering(instance, ordering)
    state = GsdtState(
        instance=instance,
        network=FlowNetwork(instance),
        curr={a: 0 for a in instance.applicants},
    )
    guided_order = None
    if isinstance(policy, GuidedToward):
        guided_order = {}
        for a, c in _pair_priority_order(instance, policy.target):
            guided_order.setdefault(a, []).append(c)

    net = state.network
    capacities = [tuple(net.cap_src.values())]
    stages = []
    for i, a in enumerate(ordering, start=1):
        net.cap_src[a] += 1
        probes = []
        path = None
        while path is None and state.curr[a] < len(instance.prefs[a]):
            t = state.curr[a]
            net.cap_tie[(a, t)] += 1
            path = find_augmenting_path(state, a, t, policy, guided_order)
            probes.append(ProbeRecord(t, tuple(path) if path else None))
            if path is None:
                net.cap_tie[(a, t)] -= 1
                state.curr[a] += 1
        if path is not None:
            net.augment(path)
        net.check()
        stages.append(
            StageRecord(
                stage=i,
                applicant=a,
                probes=tuple(probes),
                added=(a, path[3][1]) if path is not None else None,
                matching=net.matching(),
                curr_after=tuple(sorted(state.curr.items())),
            )
        )
        capacities.append(tuple(net.cap_src.values()))
    return SimpleNamespace(
        matching=stages[-1].matching if stages else Matching(),
        stages=tuple(stages),
        capacity_history=tuple(capacities),
        searches=state.searches,
        arc_visits=tuple(state.arc_visits),
    )


def assert_same_run(instance, ordering, policy=CANONICAL):
    expected = reference_run(instance, ordering, policy)
    got = run_gsdt(instance, ordering, policy)
    # The counters and the matching come from the live loop; read them
    # before the trace is replayed.
    assert got.matching == expected.matching
    assert got.searches == expected.searches
    assert got.arc_visits == expected.arc_visits
    assert got.stages == expected.stages
    assert got.capacity_history == expected.capacity_history
    assert render_trace(got) == render_trace(expected)
    return got


def random_cases(count, seed):
    rng = random.Random(seed)
    for k in range(count):
        inst = generate_random_instance(
            rng.randint(10, 60), rng.randint(3, 15), 3, 4, 0.4, seed * 1000 + k)
        ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
        rng.shuffle(ordering)
        yield inst, ordering


RANDOM_CASES = list(random_cases(20, 1602))


@pytest.mark.parametrize("k", range(len(RANDOM_CASES)))
def test_replayed_trace_equals_eager_trace(k):
    inst, ordering = RANDOM_CASES[k]
    optimum = assert_same_run(inst, ordering).matching
    assert_same_run(inst, derive_ordering(inst, optimum), GuidedToward(optimum))
    # A dominated target: guidance only biases the path choice.
    half = Matching(optimum.canonical_pairs()[::2])
    assert_same_run(inst, ordering, GuidedToward(half))


def test_replayed_trace_equals_eager_trace_on_every_fleet_ordering():
    runs = 0
    for inst in fixture_instances(50):
        for sigma in distinct_orderings(inst):
            out = assert_same_run(inst, sigma).matching
            assert_same_run(inst, sigma, GuidedToward(out))
            runs += 2
    assert runs > 500
