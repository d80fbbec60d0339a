"""The stages replayed on first read, and the trace rendered from the run's
record, against the eager loop they replaced, which checked the whole network
and snapshotted the matching after every stage, on seeded random instances,
the 160x40 ladder rung and every ordering of the fixture fleet.

A guided run is also held to the eager loop guided, as it once was, by the
target's pair-priority order: the fast path takes the first target course in
the probed tie, the target pairs of one applicant in one tie form one
component of that order, and a component is sorted, so the ascending order
the live run uses makes the same paths. Both references group the target's
courses by the applicant's tie that lists them, as the live run does, and the
fast path reads only the probed tie's group, so ``arc_visits`` agree too."""

import random
from types import SimpleNamespace

import pytest

from camatch import (
    GuidedToward,
    Matching,
    derive_ordering,
    generate_random_instance,
    render_trace,
    run_gsdt,
)
from camatch.gsdt import FlowNetwork, find_augmenting_path, render_node
from camatch.instance import validate_ordering
from camatch.oracle import distinct_orderings
from instances import (
    ProbeRecord,
    capacity_history,
    fixture_instances,
    probes,
    reference_pair_priority_order,
)


def guided_courses(instance, target, pair_priority):
    """Each applicant's target courses per tie of hers that lists them,
    ascending or in pair-priority order, built by the all-pairs reference,
    which takes dominated targets too."""
    pairs = (reference_pair_priority_order(instance, target) if pair_priority
             else target.canonical_pairs())
    order = {}
    for a, c in pairs:
        order.setdefault((a, instance.tie_of(a, c)), []).append(c)
    return order


def reference_run(instance, ordering, policy=None, pair_priority=False):
    """Eager loop: after every stage run the full network check and record
    the matching, the tie pointers and the source capacities. A guided run
    sets ``net.guided_order`` on an unguided network, in ascending or
    pair-priority order, and the live search reads it there."""
    validate_ordering(instance, ordering)
    net = FlowNetwork(instance)
    if isinstance(policy, GuidedToward):
        net.guided_order = guided_courses(instance, policy.target, pair_priority)

    capacities = [tuple(net.cap_src.values())]
    stages = []
    for i, a in enumerate(ordering, start=1):
        net.cap_src[a] += 1
        probes = []
        path = None
        while path is None and net.curr[a] < len(instance.prefs[a]):
            t = net.curr[a]
            net.cap_tie[(a, t)] += 1
            path = find_augmenting_path(net, a, t)
            probes.append(ProbeRecord(t, tuple(path) if path else None))
            if path is None:
                net.cap_tie[(a, t)] -= 1
                net.curr[a] += 1
        if path is not None:
            net.augment(path)
        net.check()
        stages.append(
            SimpleNamespace(
                stage=i,
                applicant=a,
                probes=tuple(probes),
                matching=net.matching(),
                curr_after=tuple(sorted(net.curr.items())),
            )
        )
        capacities.append(tuple(net.cap_src.values()))
    return SimpleNamespace(
        matching=stages[-1].matching if stages else Matching(),
        stages=tuple(stages),
        capacity_history=tuple(capacities),
        searches=sum(len(stage.probes) for stage in stages),
        arc_visits=tuple(net.arc_visits),
    )


def reference_render(stages):
    """The renderer that read the replayed stages: a stage's added pair is
    its applicant and the first course on its last probe's path."""
    lines = []
    for rec in stages:
        stage = f"stage={rec.stage} applicant={rec.applicant}"
        path = rec.probes[-1].path if rec.probes else None
        if not rec.probes:
            lines.append(f"{stage} tie=- path=FAIL added=none")
        for probe in rec.probes:
            if probe.path is None:
                shown, delta = "FAIL", "none"
            else:
                shown = ",".join(render_node(n) for n in probe.path)
                delta = f"{rec.applicant},{path[3][1]}"
            lines.append(f"{stage} tie={probe.tie + 1} path={shown} added={delta}")
    return lines


def assert_same_stages(instance, got, expected):
    """The replayed stages against the reference's, stage by stage: probes,
    matching and every tie pointer (a stage moves only its applicant's)."""
    assert len(got) == len(expected)
    curr = dict.fromkeys(instance.applicants, 0)
    for rec, ref in zip(got, expected):
        curr[rec.applicant] = rec.curr
        assert (rec.stage, rec.applicant, probes(rec.entry)) == (ref.stage, ref.applicant, ref.probes)
        assert rec.matching == ref.matching
        assert tuple(sorted(curr.items())) == ref.curr_after


def assert_same_run(instance, ordering, policy=None):
    expected = reference_run(instance, ordering, policy)
    got = run_gsdt(instance, ordering, policy)
    # The counters, the matching and the trace come from the live loop's
    # record; read them before the stages are replayed.
    assert got.matching == expected.matching
    assert got.searches == expected.searches
    assert got.arc_visits == expected.arc_visits
    assert list(render_trace(got)) == reference_render(expected.stages)
    if isinstance(policy, GuidedToward):
        old = reference_run(instance, ordering, policy, pair_priority=True)
        assert got.matching == old.matching
        assert tuple(map(probes, got.record)) == tuple(rec.probes for rec in old.stages)
        assert got.arc_visits == old.arc_visits
        assert list(render_trace(got)) == reference_render(old.stages)
        assert_same_stages(instance, got.stages, old.stages)
    assert_same_stages(instance, got.stages, expected.stages)
    assert capacity_history(instance, ordering) == expected.capacity_history
    return got


def random_cases(count, seed):
    rng = random.Random(seed)
    for k in range(count):
        inst = generate_random_instance(
            rng.randint(10, 60), rng.randint(3, 15), 3, 4, 0.4, seed * 1000 + k)
        ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
        rng.shuffle(ordering)
        yield inst, ordering


def ladder_rung(n1, n2):
    inst = generate_random_instance(n1, n2, 3, 4, 0.4, 1)
    ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
    random.Random(2).shuffle(ordering)
    return inst, ordering


RANDOM_CASES = list(random_cases(20, 1602)) + [ladder_rung(160, 40)]


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
