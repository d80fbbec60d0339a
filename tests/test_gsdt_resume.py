"""GSDT resumed from snapshots against fresh runs: the snapshot of the stages
before the liar's first stage, and the keyed snapshots that one misreport
search caches (``SnapshotCache``). Every resumed run equals the run from
scratch, the misreport search equals a reference that runs every list from
scratch, and resuming refuses anything but the liar's own list, a list that
does not fit, the snapshot's prefix and the canonical policy."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from camatch import GuidedToward, OrderingError, generate_random_instance, render_trace, run_gsdt
from camatch.fixtures import fixture_instances, walkthrough_instance
from camatch import oracle
from camatch.gsdt import SNAPSHOT_CAP, SnapshotCache, snapshot_before
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


# ----------------------------------------------------------------------
# Keyed snapshots: the cache one misreport search resumes every list from.
# ----------------------------------------------------------------------

BASE_KEY = ((), False)


@pytest.fixture
def caches(monkeypatch):
    """Record every cache the misreport search builds, with every key it
    ever stored, and check the bound and the base snapshot after each offer."""
    made = []

    class Recording(SnapshotCache):
        def __init__(self, *args):
            super().__init__(*args)
            self.stored = set(self.snapshots)
            made.append(self)

        def offer(self, state):
            super().offer(state)
            self.stored.update(self.snapshots)
            assert len(self.snapshots) <= SNAPSHOT_CAP
            assert self.snapshots[BASE_KEY] is self.base

    monkeypatch.setattr(oracle, "SnapshotCache", Recording)
    return made


def assert_snapshots_resume_like_fresh(cache, instance, ordering, applicant, lists):
    """Every cached snapshot resumes like a fresh run for each list that
    fits it, refuses each list that does not, and comes out untouched.
    Returns how many (snapshot, list) pairs beyond the base ones fit."""
    runs = {}
    for prefs in lists:
        inst = with_prefs(instance, applicant, prefs)
        runs[inst.prefs[applicant]] = inst, run_gsdt(inst, ordering)
    deeper = 0
    for key, snap in list(cache.snapshots.items()):
        assert (snap.read, snap.exhausted) == key
        before = state_key(snap.state)
        for prefs, (inst, fresh) in runs.items():
            if not snap.fits(prefs):
                with pytest.raises(ValueError, match="does not fit"):
                    run_gsdt(inst, ordering, start=snap)
                continue
            deeper += key != BASE_KEY
            resumed = run_gsdt(inst, ordering, start=snap)
            assert resumed.matching == fresh.matching
            assert resumed.stage_probes == fresh.stage_probes
            assert resumed.searches == fresh.searches
            assert resumed.arc_visits == fresh.arc_visits
            assert render_trace(resumed) == render_trace(fresh)
        assert state_key(snap.state) == before
    return deeper


@pytest.mark.parametrize("k", range(len(CASES)))
def test_keyed_search_equals_reference_and_its_snapshots_resume_like_fresh(k, caches):
    inst, ordering, liars = CASES[k]
    deeper = 0
    for a in liars:
        got = find_beneficial_misreport(inst, ordering, a, search_limit=40)
        assert got == reference_misreport(inst, ordering, a, 40)
        lists = [inst.prefs[a], *varied_lists(inst, a)]
        deeper += assert_snapshots_resume_like_fresh(caches[-1], inst, ordering, a, lists)
    assert len(caches) == len(liars)
    assert deeper > 0


def test_an_exhausted_snapshot_fits_only_its_own_list(caches):
    exhausted = 0
    for inst, ordering, liars in CASES:
        for a in liars[:2]:
            find_beneficial_misreport(inst, ordering, a, search_limit=40)
            for snap in caches[-1].snapshots.values():
                if not snap.exhausted:
                    continue
                exhausted += bool(snap.read)
                assert snap.fits(snap.read)
                unread = sorted(inst.acceptable(a) - frozenset().union(*snap.read))
                longer = [snap.read + (frozenset([c]),) for c in unread[:1]]
                longer += [snap.read[:-1]] if snap.read else []
                for prefs in longer:
                    assert not snap.fits(prefs)
                    with pytest.raises(ValueError, match="does not fit"):
                        run_gsdt(with_prefs(inst, a, prefs), ordering, start=snap)
    assert exhausted > 0


def long_list_case():
    """A liar with ten singleton ties over ten courses and three seats spread
    through the ordering: the first 400 lists of her misreport space store
    far more than SNAPSHOT_CAP keys."""
    inst = generate_random_instance(14, 10, 3, 2, 0.4, 77)
    inst = with_quotas(inst, {**inst.quota, "a1": 3})
    inst = with_prefs(inst, "a1", [[c] for c in inst.courses])
    return inst, shuffled_ordering(inst, 5)


def test_a_long_list_drives_the_cache_past_its_bound(caches):
    inst, ordering = long_list_case()
    got = find_beneficial_misreport(inst, ordering, "a1", search_limit=400)
    assert got == reference_misreport(inst, ordering, "a1", 400)
    (cache,) = caches
    assert len(cache.stored) > 2 * SNAPSHOT_CAP
    assert len(cache.snapshots) == SNAPSHOT_CAP
    assert cache.snapshots[BASE_KEY] is cache.base
    lists = [inst.prefs["a1"], *itertools.islice(misreport_space(inst, "a1"), 380, 400)]
    assert assert_snapshots_resume_like_fresh(cache, inst, ordering, "a1", lists) > 0


def test_cache_refuses_another_ordering_and_a_guided_policy():
    inst = walkthrough_instance()
    cache = SnapshotCache(inst, ORDERING, "a1")
    other = ("a2", "a3", "a1", "a2", "a1", "a2", "a3")
    with pytest.raises(ValueError, match="ordering"):
        run_gsdt(inst, other, start=cache)
    with pytest.raises(ValueError, match="only canonical"):
        run_gsdt(inst, ORDERING, GuidedToward(run_gsdt(inst, ORDERING).matching), start=cache)
    assert list(cache.snapshots) == [BASE_KEY]


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instances, st.integers(0, 2**32 - 1), st.integers(0, 60), st.data())
def test_property_keyed_search_equals_the_reference(inst, seed, limit, data):
    liar = data.draw(st.sampled_from(inst.applicants), label="liar")
    ordering = shuffled_ordering(inst, seed)
    got = find_beneficial_misreport(inst, ordering, liar, search_limit=limit)
    assert got == reference_misreport(inst, ordering, liar, limit)
