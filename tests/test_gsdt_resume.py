"""GSDT runs resumed from the states that one misreport search stores
(``SnapshotCache``) against fresh runs. Every resumed run equals the run from
scratch, every stored state resumes like a fresh run for each list that fits
it and comes out untouched, the misreport search equals a reference that runs
every list from scratch, and the cache checks its applicant, its ordering and
the liar's unread ties before it resumes."""

import copy
import itertools
import random
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from camatch import OrderingError, generate_random_instance, render_trace, run_gsdt
from camatch.fixtures import fixture_instances, walkthrough_instance
from camatch import oracle
from camatch.gsdt import SNAPSHOT_CAP, GsdtResult, GsdtState, SnapshotCache, _tie
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

BASE_KEY = ((), False)


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
    """Everything a stored state holds, copied into comparable values (the
    items of its containers are immutable)."""
    net = state.network
    return (*(d.copy() for d in (net.cap_src, net.flow_src, net.cap_tie, net.flow_tie,
                                 net.flow_snk, net.dead, state.curr, state.arc_visits,
                                 state.stage_probes)),
            {c: held.copy() for c, held in net.holders.items()}, state.searches)


def fits(key, prefs):
    """Whether a list reaches the state stored under ``key``: it starts with
    the ties read so far, and equals them if she ran out of ties."""
    read, exhausted = key
    return tuple(prefs[:len(read)]) == read and not (exhausted and len(prefs) > len(read))


def assert_equals_fresh(cache, state, fresh, trace=True):
    """The finished ``state``, read as a ``GsdtResult``, equals ``fresh``. The
    trace is replayed from the instance, ordering and probes compared first,
    so a caller with many runs may leave it out."""
    resumed = GsdtResult(
        instance=state.instance, ordering=cache.ordering, matching=state.network.matching(),
        stage_probes=tuple(state.stage_probes), searches=state.searches,
        arc_visits=tuple(state.arc_visits))
    assert resumed.instance == fresh.instance
    assert resumed.matching == fresh.matching
    assert resumed.stage_probes == fresh.stage_probes
    assert resumed.searches == fresh.searches
    assert resumed.arc_visits == fresh.arc_visits
    assert not trace or render_trace(resumed) == render_trace(fresh)


def restricted(cache, keys=()):
    """A copy of ``cache`` that holds only its base state and those of ``keys``."""
    only = copy.copy(cache)
    only.states = OrderedDict((k, cache.states[k]) for k in (BASE_KEY, *keys))
    return only


class Picked(Exception):
    """Stops a run once it has picked the stored state to resume from."""


def resumed_from(cache, prefs, keys=(), finish=True):
    """Run ``prefs`` on ``restricted(cache, keys)``; return the finished state
    (``None`` unless ``finish``) and the key of the stored state the run
    resumed from."""
    only = restricted(cache, keys)
    sources = {id(state): k for k, state in only.states.items()}
    copied, real = [], GsdtState.copy

    def spy(state, instance):
        copied.append(state)
        if not finish:
            raise Picked
        return real(state, instance)

    with mock.patch.object(GsdtState, "copy", spy):
        try:
            state = only.run(prefs)
        except Picked:
            state = None
    return state, sources[id(copied[0])]


def assert_resumes_like_fresh(instance, ordering, applicant, lists):
    """Run the true list and each of ``lists`` through one cache, and again
    from its state before her first stage alone; each run must equal a fresh
    run, and every state the cache stored must come out untouched. Returns
    the cache."""
    cache = SnapshotCache(instance, ordering, applicant)
    stored = {}
    for prefs in [instance.prefs[applicant], *lists]:
        fresh = run_gsdt(with_prefs(instance, applicant, prefs), ordering)
        assert_equals_fresh(cache, cache.run(prefs), fresh)
        state, source = resumed_from(cache, prefs)
        assert source == BASE_KEY
        assert_equals_fresh(cache, state, fresh)
        for state in cache.states.values():
            if id(state) not in stored:
                stored[id(state)] = state, state_key(state)
    for state, before in stored.values():
        assert state_key(state) == before
    return cache


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
        len(assert_resumes_like_fresh(inst, ordering, a, varied_lists(inst, a))
            .states[BASE_KEY].stage_probes)
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
# What the cache checks itself.
# ----------------------------------------------------------------------

ORDERING = ("a2", "a3", "a1", "a2", "a1", "a3", "a2")


def test_cache_refuses_an_unknown_applicant():
    with pytest.raises(ValueError, match="unknown applicant 'zz'"):
        SnapshotCache(walkthrough_instance(), ORDERING, "zz")


def test_cache_checks_the_ordering_once_when_built():
    with pytest.raises(OrderingError):
        SnapshotCache(walkthrough_instance(), ORDERING[:-1], "a1")


def test_the_first_run_stores_the_state_before_her_first_stage():
    inst = walkthrough_instance()
    cache = SnapshotCache(inst, ORDERING, "a1")
    assert cache.states[BASE_KEY].stage_probes == []
    assert_equals_fresh(cache, cache.run(inst.prefs["a1"]), run_gsdt(inst, ORDERING))
    assert len(cache.states[BASE_KEY].stage_probes) == 2  # a2 and a3 went first


CORRUPTIONS = {
    "held": lambda net, a, t, c: net.holders[c].add((a, t)),
    "dead": lambda net, a, t, c: net.dead.add(_tie(a, t)),
    "capacity": lambda net, a, t, c: net.cap_tie.__setitem__((a, t), 1),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
@pytest.mark.parametrize("deeper", [False, True], ids=["base", "deeper"])
def test_resume_asserts_catch_a_corrupt_unread_tie(corrupt, deeper):
    """A stored state whose first unread tie of hers holds a course, is dead
    or has capacity fails the resume's own asserts, before any stage runs."""
    inst = walkthrough_instance()
    cache = SnapshotCache(inst, ORDERING, "a1")
    for prefs in [inst.prefs["a1"], *itertools.islice(misreport_space(inst, "a1"), 20)]:
        cache.run(prefs)
    key, state = next(
        (k, s) for k, s in cache.states.items()
        if not k[1] and bool(k[0]) is deeper and len(k[0]) < len(s.instance.prefs["a1"]))
    prefs = state.instance.prefs["a1"]
    fresh = run_gsdt(with_prefs(inst, "a1", prefs), ORDERING)
    resumed, source = resumed_from(cache, prefs, [key])
    assert source == key
    assert_equals_fresh(cache, resumed, fresh)

    t = len(key[0])
    corrupt(state.network, "a1", t, min(prefs[t]))
    with pytest.raises(AssertionError) as raised:
        restricted(cache, [key]).run(prefs)
    assert raised.traceback[-1].name == "run"


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
# Every state one misreport search stores.
# ----------------------------------------------------------------------

@pytest.fixture
def caches(monkeypatch):
    """Record every cache the misreport search builds, with every key it
    ever stored, and check after each offer that it holds at most
    SNAPSHOT_CAP states and its base state, which only the state before her
    first stage ever replaces."""
    made = []

    class Recording(SnapshotCache):
        def __init__(self, *args):
            super().__init__(*args)
            self.stored = set(self.states)
            self.bases = [self.states[BASE_KEY]]
            made.append(self)

        def _offer(self, state):
            super()._offer(state)
            self.stored.update(self.states)
            assert len(self.states) <= SNAPSHOT_CAP
            if self.states[BASE_KEY] is not self.bases[-1]:
                self.bases.append(self.states[BASE_KEY])
                assert len(self.bases) == 2
                assert len(self.bases[1].stage_probes) == self.ordering.index(self.applicant)

    monkeypatch.setattr(oracle, "SnapshotCache", Recording)
    return made


def assert_snapshots_resume_like_fresh(cache, instance, ordering, applicant, lists):
    """Every stored state resumes like a fresh run for each list that fits
    it, no list that does not fit it resumes from it, and it comes out
    untouched. Returns how many (state, list) pairs beyond the base ones fit."""
    runs = {}
    for prefs in lists:
        inst = with_prefs(instance, applicant, prefs)
        runs[inst.prefs[applicant]] = run_gsdt(inst, ordering)
    deeper = 0
    for key, state in list(cache.states.items()):
        read, exhausted = key
        assert state.instance.prefs[applicant][:len(read)] == read
        assert not exhausted or state.curr[applicant] == len(read) == len(
            state.instance.prefs[applicant])
        before = state_key(state)
        for prefs, fresh in runs.items():
            if not fits(key, prefs):
                assert resumed_from(cache, prefs, [key], finish=False)[1] == BASE_KEY
                continue
            resumed, source = resumed_from(cache, prefs, [key])
            assert source == key
            deeper += key != BASE_KEY
            assert_equals_fresh(cache, resumed, fresh)
        assert state_key(state) == before
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
    """A longer or a shorter list never resumes from an exhausted state, and
    each list, run on the whole cache, still equals a fresh run."""
    exhausted = 0
    for inst, ordering, liars in CASES:
        for a in liars[:2]:
            find_beneficial_misreport(inst, ordering, a, search_limit=40)
            cache, lists = caches[-1], set()
            for key in [k for k in cache.states if k[1]]:
                read = key[0]
                exhausted += bool(read)
                unread = sorted(inst.acceptable(a) - frozenset().union(*read))
                others = [read + (frozenset([c]),) for c in unread[:1]]
                others += [read[:-1]] if read else []
                for prefs in [read, *others]:
                    source = resumed_from(cache, prefs, [key], finish=False)[1]
                    assert source == (key if prefs == read else BASE_KEY)
                    lists.add(prefs)
            for prefs in lists:
                resumed, source = resumed_from(cache, prefs, list(cache.states))
                assert not source[1] or source[0] == prefs
                fresh = run_gsdt(with_prefs(inst, a, prefs), ordering)
                assert_equals_fresh(cache, resumed, fresh, trace=False)
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
    assert len(cache.states) == SNAPSHOT_CAP
    assert cache.states[BASE_KEY] is cache.bases[-1]
    lists = [inst.prefs["a1"], *itertools.islice(misreport_space(inst, "a1"), 380, 400)]
    assert assert_snapshots_resume_like_fresh(cache, inst, ordering, "a1", lists) > 0


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instances, st.integers(0, 2**32 - 1), st.integers(0, 60), st.data())
def test_property_keyed_search_equals_the_reference(inst, seed, limit, data):
    liar = data.draw(st.sampled_from(inst.applicants), label="liar")
    ordering = shuffled_ordering(inst, seed)
    got = find_beneficial_misreport(inst, ordering, liar, search_limit=limit)
    assert got == reference_misreport(inst, ordering, liar, limit)
