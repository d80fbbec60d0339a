"""GSDT resumed from a snapshot of the stages before the liar's first stage,
against fresh runs: every resumed run equals the run from scratch, the
misreport search equals a reference that runs every list from scratch, and
resuming refuses anything but the liar's own list, the snapshot's prefix
and the canonical policy."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from camatch import GuidedToward, OrderingError, generate_random_instance, render_trace, run_gsdt
from camatch.fixtures import fixture_instances, walkthrough_instance
from camatch.gsdt import snapshot_before
from camatch.matching import SetRelation, compare_sets
from camatch.oracle import (
    MisreportFinding,
    MisreportSearch,
    MisreportStatus,
    distinct_orderings,
    find_beneficial_misreport,
    misreport_space,
    with_prefs,
    with_quotas,
)


def reference_misreport(instance, ordering, applicant, search_limit=200_000):
    """The misreport search with a fresh GSDT run for every list."""
    truthful_set = run_gsdt(instance, ordering).matching.of_applicant(applicant)
    examined = 0
    for fabricated in misreport_space(instance, applicant):
        if examined >= search_limit:
            return MisreportSearch(MisreportStatus.INCONCLUSIVE, None, examined)
        examined += 1
        candidate = with_prefs(instance, applicant, fabricated)
        outcome_set = run_gsdt(candidate, ordering).matching.of_applicant(applicant)
        if compare_sets(instance, applicant, outcome_set, truthful_set) is SetRelation.PREFERS:
            finding = MisreportFinding(
                applicant, instance.prefs[applicant], tuple(fabricated), tuple(ordering),
                truthful_set, outcome_set, True)
            return MisreportSearch(MisreportStatus.FOUND, finding, examined)
    return MisreportSearch(MisreportStatus.NONE, None, examined)


def state_key(state):
    """Everything a snapshot holds, as comparable values."""
    net = state.network
    return (net.cap_src, net.flow_src, net.cap_tie, net.flow_tie, net.holders,
            net.flow_snk, net.dead, state.curr, state.searches, state.arc_visits,
            state.stage_probes)


def assert_resumes_like_fresh(instance, ordering, applicant, lists):
    """Resume one snapshot for the true list and each of ``lists``; each run
    must equal a fresh run, and the snapshot must come out untouched."""
    start = snapshot_before(instance, ordering, applicant)
    before = state_key(start.state)
    for prefs in [instance.prefs[applicant], *lists]:
        inst = with_prefs(instance, applicant, prefs)
        fresh = run_gsdt(inst, ordering)
        resumed = run_gsdt(inst, ordering, start=start)
        assert resumed.matching == fresh.matching
        assert resumed.stage_probes == fresh.stage_probes
        assert resumed.searches == fresh.searches
        assert resumed.arc_visits == fresh.arc_visits
        assert render_trace(resumed) == render_trace(fresh)
    assert state_key(start.state) == before
    return start


def shuffled_ordering(inst, seed):
    ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
    random.Random(seed).shuffle(ordering)
    return ordering


def varied_lists(instance, applicant):
    """Two short lists from the head of the misreport space, plus long ones
    built from the true list: reversed, merged into one tie, every tie
    broken into single courses, top tie dropped."""
    true = instance.prefs[applicant]
    lists = list(itertools.islice(misreport_space(instance, applicant), 2))
    broken = tuple(frozenset([c]) for tie in true for c in sorted(tie))
    lists += [true[::-1], (frozenset().union(*true),), broken, true[1:]]
    return [ties for ties in lists if all(ties)]


def seeded_cases(count, seed):
    rng = random.Random(seed)
    for k in range(count):
        inst = generate_random_instance(
            rng.randint(10, 60), rng.randint(3, 15), 3, 4,
            (0.0, 0.4, 0.9)[k % 3], seed * 1000 + k)
        yield inst, shuffled_ordering(inst, seed + k), rng.sample(inst.applicants, 3)


CASES = list(seeded_cases(12, 2718))


@pytest.mark.parametrize("k", range(len(CASES)))
def test_resumed_runs_equal_fresh_runs(k):
    inst, ordering, liars = CASES[k]
    shared = sum(
        len(assert_resumes_like_fresh(inst, ordering, a, varied_lists(inst, a)).prefix)
        for a in liars)
    assert shared > 0


@pytest.mark.parametrize("k", range(len(CASES)))
def test_misreport_search_equals_fresh_run_search(k):
    inst, ordering, liars = CASES[k]
    for a in liars[:2]:
        for limit in (0, 1, 30):
            got = find_beneficial_misreport(inst, ordering, a, search_limit=limit)
            assert got == reference_misreport(inst, ordering, a, limit)


def test_every_fleet_ordering_resumes_like_fresh_and_searches_alike():
    runs = found = 0
    for inst in fixture_instances(50):
        for sigma in distinct_orderings(inst):
            for a in inst.applicants:
                lists = list(itertools.islice(misreport_space(inst, a), 6))
                assert_resumes_like_fresh(inst, sigma, a, lists)
                search = find_beneficial_misreport(inst, sigma, a)
                assert search == reference_misreport(inst, sigma, a)
                runs += 1 + len(lists)
                found += search.status is MisreportStatus.FOUND
    assert runs > 2000 and found > 0


# ----------------------------------------------------------------------
# The resume's preconditions.
# ----------------------------------------------------------------------

ORDERING = ("a2", "a3", "a1", "a2", "a1", "a3", "a2")


@pytest.fixture
def snapshot():
    start = snapshot_before(walkthrough_instance(), ORDERING, "a1")
    assert start.prefix == ("a2", "a3")
    return start


@pytest.mark.parametrize("change, extra", [
    (lambda inst: with_prefs(inst, "a2", [["c1"], ["c2", "c3"]]), ()),
    (lambda inst: with_quotas(inst, {**inst.quota, "a3": 3}), ("a3",)),
    (lambda inst: with_quotas(inst, {**inst.quota, "a1": 3}), ("a1",)),
    (lambda inst: dataclasses.replace(inst, capacity={**inst.capacity, "c1": 1}), ()),
])
def test_resume_refuses_an_instance_that_differs_beyond_the_liars_list(
        snapshot, change, extra):
    with pytest.raises(ValueError, match="beyond a1's list"):
        run_gsdt(change(walkthrough_instance()), ORDERING + extra, start=snapshot)


def test_resume_refuses_an_ordering_with_another_prefix(snapshot):
    with pytest.raises(ValueError, match="prefix"):
        run_gsdt(walkthrough_instance(), ("a3",) + ORDERING[:1] + ORDERING[2:], start=snapshot)


def test_resume_refuses_a_guided_policy(snapshot):
    inst = walkthrough_instance()
    target = run_gsdt(inst, ORDERING).matching
    with pytest.raises(ValueError, match="only canonical"):
        run_gsdt(inst, ORDERING, GuidedToward(target), start=snapshot)


def test_resume_still_validates_the_ordering(snapshot):
    with pytest.raises(OrderingError):
        run_gsdt(walkthrough_instance(), ORDERING[:-1], start=snapshot)


# ----------------------------------------------------------------------
# Property on drawn instances and lists.
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


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instances, st.integers(0, 2**32 - 1), st.data())
def test_property_resuming_equals_a_fresh_run(inst, seed, data):
    liar = data.draw(st.sampled_from(inst.applicants), label="liar")
    courses = data.draw(st.permutations(sorted(inst.acceptable(liar))), label="courses")
    kept = courses[:data.draw(st.integers(0, len(courses)), label="kept")]
    # A course opens a new tie unless it joins the previous one.
    joins = data.draw(st.lists(st.booleans(), min_size=len(kept), max_size=len(kept)))
    ties: list[list[str]] = []
    for c, join in zip(kept, joins):
        if join and ties:
            ties[-1].append(c)
        else:
            ties.append([c])
    assert_resumes_like_fresh(inst, shuffled_ordering(inst, seed), liar, [ties])
