"""GSDT runs of one misreport search against fresh runs. The search serves
the stages before the liar's first once, into a base state, and runs every
list from a copy of it (``oracle.run_list``). Every such run equals the run
from scratch and leaves the base untouched, the misreport search equals a
reference that runs every list from scratch, and the search checks its
applicant, its ordering and that the base holds no tie of hers. Runs the
search stops after the liar's last stage leave her the vector of a full run,
and only for lists that keep each tie inside a true tie. No run gives her
a course that cannot reach the sink in her base or beats her ``quota`` best
listed courses among those that can, so a list whose bound does not beat
the truthful outcome is counted without a run, and a course subset whose
bound loses is counted as one block, at any search limit. A run keeps tie
capacities only for the ties it probes. ``with_prefs`` returns the instance
itself for her declared tuple, so the truthful run rebuilds nothing."""

import hashlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from camatch import (
    InstanceSemanticError, OrderingError, generate_random_instance, parse_instance,
    render_trace, run_gsdt)
from camatch import gsdt, oracle
from camatch import instance as instance_module
from camatch.gsdt import FlowNetwork, GsdtResult
from camatch.matching import SetRelation, characteristic_vector, compare_sets
from camatch.oracle import (
    MisreportFinding,
    MisreportSearch,
    MisreportStatus,
    distinct_orderings,
    find_beneficial_misreport,
    misreport_space,
    run_list,
    with_prefs,
)
from instances import fixture_instances, probes, with_quotas, worked_example
from test_gsdt_dead_set import sink_reachers


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
    """Everything a run state holds, copied into comparable values (the
    items of its containers are immutable)."""
    return (*(d.copy() for d in (state.cap_src, state.cap_tie, state.dead,
                                 state.curr, state.arc_visits, state.record)),
            {c: held.copy() for c, held in state.holders.items()})


def base_state(instance, ordering, applicant):
    """The state before her first stage, served as the search serves it."""
    base = FlowNetwork(instance)
    gsdt.serve(base, ordering[:ordering.index(applicant)])
    return base


def assert_equals_fresh(ordering, state, fresh, trace=True):
    """The finished ``state``, read as a ``GsdtResult``, equals ``fresh``. The
    trace is rendered from the ordering and record compared first, so a
    caller with many runs may leave it out."""
    resumed = GsdtResult(
        instance=state.instance, ordering=tuple(ordering), matching=state.matching(),
        record=tuple(state.record), visits=tuple(state.arc_visits))
    assert resumed.instance == fresh.instance
    assert resumed.matching == fresh.matching
    assert resumed.record == fresh.record
    assert resumed.searches == fresh.searches
    assert resumed.arc_visits == fresh.arc_visits
    assert not trace or list(render_trace(resumed)) == list(render_trace(fresh))


def assert_resumes_like_fresh(instance, ordering, applicant, lists):
    """Run the true list and each of ``lists`` from one base state; each run
    must equal a fresh run, and the base must come out untouched. Returns
    the base."""
    base = base_state(instance, ordering, applicant)
    before = state_key(base)
    for prefs in [instance.prefs[applicant], *lists]:
        fresh = run_gsdt(with_prefs(instance, applicant, prefs), ordering)
        assert_equals_fresh(ordering, run_list(base, ordering, applicant, prefs), fresh)
        assert state_key(base) == before
    return base


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
        len(assert_resumes_like_fresh(inst, ordering, a, varied_lists(inst, a)).record)
        for a in liars)
    assert shared > 0


@pytest.mark.parametrize("k", range(len(CASES)))
def test_misreport_search_equals_fresh_run_search(k):
    inst, ordering, liars = CASES[k]
    for a in liars[:2]:
        for limit in (-1, 0, 1, 30):
            got = find_beneficial_misreport(inst, ordering, a, search_limit=limit)
            assert got == reference_misreport(inst, ordering, a, limit)


def liar_cases(count, seed):
    """10x5 instances drawn as the benchmark draws them, whose liar a1 lists
    three or four of the five courses, each with a shuffled ordering."""
    cases = []
    while len(cases) < count:
        inst = generate_random_instance(10, 5, 3, 4, 0.4, seed)
        if len(inst.acceptable("a1")) in (3, 4):
            cases.append((inst, shuffled_ordering(inst, seed)))
        seed += 1
    return cases


# The CI's two cases whose liar a1 lists all five courses, with its
# orderings: at seed 113 no list can beat the truthful one, at seed 32 the
# bound alone would make 912 runs and earlier runs decide all but 9. Then
# twenty three- and four-course liars.
SUBSET_CASES = [
    (generate_random_instance(10, 5, 3, 4, 0.4, 113),
     "a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 a3 a4 a6 a9 a6".split()),
    (generate_random_instance(10, 5, 3, 4, 0.4, 32),
     "a10 a9 a8 a7 a6 a5 a4 a3 a2 a1 a9 a8 a6 a3 a1 a9 a8 a6".split()),
] + liar_cases(20, 8000)


def subset_ends(instance, applicant):
    """How many lists of the misreport space come up to the end of each
    course subset's lists; the last is the size of the space."""
    subsets = [frozenset().union(*prefs) for prefs in misreport_space(instance, applicant)]
    return [i for i in range(1, len(subsets) + 1)
            if i == len(subsets) or subsets[i] != subsets[i - 1]]


@pytest.mark.parametrize("k", range(len(SUBSET_CASES)))
def test_a_limit_anywhere_in_the_space_stops_the_search_where_the_reference_implies(k):
    """The search counts a losing subset's lists as one block, and may count
    the whole space at once. At limits -1 and 0, at the end of each subset's
    lists and one either side, and so also at the size of the space and one
    either side, it gives INCONCLUSIVE at the limit (0 if negative) while
    the limit is below where the reference stops, and from there on the
    reference's own result."""
    inst, ordering = SUBSET_CASES[k]
    want = reference_misreport(inst, ordering, "a1")
    ends = subset_ends(inst, "a1")
    assert ends[-1] == sum(1 for _ in misreport_space(inst, "a1"))
    for limit in sorted({-1, 0} | {end + d for end in ends for d in (-1, 0, 1)}):
        got = find_beneficial_misreport(inst, ordering, "a1", search_limit=limit)
        if limit < want.examined:
            assert got == MisreportSearch(MisreportStatus.INCONCLUSIVE, None, max(limit, 0)), limit
        else:
            assert got == want, limit


def lists_run_and_subsets_walked(instance, ordering, applicant):
    """The search, the lists it runs in order, and the course subsets whose
    lists it enumerates."""
    runs, walked = [], []
    real_run, real_walk = run_list, oracle._ordered_partitions

    def run(base, ordering, applicant, prefs, stop=None):
        runs.append(tuple(map(frozenset, prefs)))
        return real_run(base, ordering, applicant, prefs, stop)

    def walk(items):
        walked.append(items)
        return real_walk(items)

    with mock.patch.object(oracle, "run_list", run), \
            mock.patch.object(oracle, "_ordered_partitions", walk):
        search = find_beneficial_misreport(instance, ordering, applicant)
    return search, runs, walked


def probed_blocks(instance, ordering, applicant, prefs):
    """How many of her blocks a fresh full run of ``prefs`` probes: her ties
    with a tie capacity, which run from her tie 0."""
    net = FlowNetwork(with_prefs(instance, applicant, prefs))
    gsdt.serve(net, ordering)
    probed = {t for a, t in net.cap_tie if a == applicant}
    assert probed == set(range(len(probed)))
    return len(probed)


def lists_a_per_list_bound_runs(instance, ordering, applicant, search):
    """The lists a search that bounds each list on its own runs up to
    ``search.examined``: the truthful one, then each other list whose bound
    within the base's live courses beats the truthful outcome, unless it
    names a course outside them or starts with the blocks an earlier losing
    run probed short of its last; and a finding's two lists again."""
    true = instance.prefs[applicant]
    truthful = fresh_vector(instance, ordering, applicant, true)
    live = live_in_base(instance, ordering, applicant)
    lists = itertools.islice(misreport_space(instance, applicant), search.examined)
    kept, decided = [], set()
    for prefs in [true, *lists]:
        if kept and (prefs == true or not frozenset().union(*prefs) <= live
                     or bound(instance, applicant, prefs, live) <= truthful
                     or any(prefs[:k] in decided for k in range(1, len(prefs) + 1))):
            continue
        kept.append(prefs)
        probed = probed_blocks(instance, ordering, applicant, prefs)
        if probed < len(prefs):  # a finding, the last list, decides none after it
            decided.add(prefs[:probed])
    found = search.finding
    return kept + ([true, found.fabricated_prefs] if found else [])


def test_a_liar_no_list_can_help_costs_one_run_and_no_enumeration():
    inst, ordering = SUBSET_CASES[0]
    search, runs, walked = lists_run_and_subsets_walked(inst, ordering, "a1")
    assert search == MisreportSearch(MisreportStatus.NONE, None, 1082)
    assert runs == [inst.prefs["a1"]]
    assert walked == []


def test_the_search_runs_the_lists_a_per_list_bound_runs_in_the_same_order():
    """Per search from seed 32 on, the lists run are those a per-list bound
    runs, in its order, less those an earlier run decides: at seed 32, 9
    runs of the 912 the bound alone makes. 26 of the 240 course subsets are
    walked."""
    runs_per_search, walked_subsets, subsets = [], 0, 0
    for inst, ordering in SUBSET_CASES[1:]:
        search, runs, walked = lists_run_and_subsets_walked(inst, ordering, "a1")
        assert runs == lists_a_per_list_bound_runs(inst, ordering, "a1", search)
        runs_per_search.append(len(runs))
        walked_subsets += len(walked)
        subsets += len(subset_ends(inst, "a1"))
    assert runs_per_search == [9, 1, 1, 5, 4, 9, 1, 9, 1, 1, 19, 1, 1, 1, 7, 1, 23, 1, 1, 1, 1]
    assert (walked_subsets, subsets) == (26, 240)


# Searches in which an earlier losing run decides later lists by the blocks
# it probed, and where recording one probed block too few would skip a list
# that wins: each finding would change, one of them to NONE. A differential of
# 12,015 seeded searches (2-6x2-5 and 10x5 instances, and the benchmark's
# misreport inputs of seeds 1, 7 and 11) found these nine, by
# (n1, n2, tie density, seed), ordering seed and liar.
PREFIX_CASES = [
    ((6, 5, 0.9, 950137743), 136, "a2"),
    ((4, 3, 0.4, 332224865), 503, "a3"),
    ((10, 5, 0.4, 70151), 151, "a7"),
    ((10, 5, 0.4, 70209), 209, "a3"),
    ((10, 5, 0.4, 70294), 294, "a8"),
    ((10, 5, 0.4, 853190499), 853190499, "a1"),
    ((10, 5, 0.4, 1933228782), 1933228782, "a1"),
    ((10, 5, 0.4, 1185799330), 1185799330, "a1"),
    ((10, 5, 0.4, 1342543078), 1342543078, "a1"),
]


@pytest.mark.parametrize("k", range(len(PREFIX_CASES)))
def test_a_search_whose_earlier_runs_decide_lists_finds_what_the_reference_finds(k):
    (n1, n2, density, seed), ordering_seed, liar = PREFIX_CASES[k]
    inst = generate_random_instance(n1, n2, 3, 4, density, seed)
    ordering = shuffled_ordering(inst, ordering_seed)
    search = find_beneficial_misreport(inst, ordering, liar)
    assert search.status is MisreportStatus.FOUND
    assert search == reference_misreport(inst, ordering, liar)


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
# What the search checks itself.
# ----------------------------------------------------------------------

ORDERING = ("a2", "a3", "a1", "a2", "a1", "a3", "a2")


def test_search_refuses_an_unknown_applicant():
    with pytest.raises(InstanceSemanticError, match="unknown applicant 'zz'"):
        find_beneficial_misreport(worked_example("walkthrough"), ORDERING, "zz")


def test_search_checks_the_ordering():
    with pytest.raises(OrderingError):
        find_beneficial_misreport(worked_example("walkthrough"), ORDERING[:-1], "a1")


def test_the_search_runs_from_the_state_before_her_first_stage():
    inst = worked_example("walkthrough")
    real, runs = run_list, []

    def run(base, *args):
        runs.append((base, real(base, *args)))
        return runs[-1][1]

    with mock.patch.object(oracle, "run_list", run):
        find_beneficial_misreport(inst, ORDERING, "a1")
    base, truthful = runs[0]
    assert len(base.record) == 2  # a2 and a3 went first
    assert len(truthful.record) == 5  # stopped after her last stage
    assert tuple(truthful.record) == run_gsdt(inst, ORDERING).record[:5]


def test_a_search_serves_the_stages_before_her_first_once():
    """Counted in ``_stage`` calls: each stage before her first is served
    once, and each run serves only the stages from her first on."""
    real_stage, real_run = gsdt._stage, run_list
    shared = 0
    for inst, ordering, liars in CASES:
        for a in liars:
            served, runs = [], []

            def stage(net, b):
                served.append(len(net.record))
                return real_stage(net, b)

            def run(base, ordering, applicant, prefs, stop=None):
                state = real_run(base, ordering, applicant, prefs, stop)
                runs.append(len(state.record))
                return state

            with mock.patch.object(gsdt, "_stage", stage), mock.patch.object(oracle, "run_list", run):
                find_beneficial_misreport(inst, ordering, a, search_limit=40)
            first = ordering.index(a)
            assert sorted(i for i in served if i < first) == list(range(first))
            assert sum(i >= first for i in served) == sum(n - first for n in runs)
            assert runs
            shared += first
    assert shared > 0


def test_a_copy_shares_no_container_with_its_original():
    """Mutating every container of a copy taken mid-run leaves the original
    as it was."""
    inst = worked_example("walkthrough")
    original = FlowNetwork(inst)
    gsdt.serve(original, ORDERING[:4])
    assert original.dead and any(original.holders.values())
    before = state_key(original)
    copied = original.copy(inst)
    assert vars(copied).keys() == vars(original).keys()
    assert state_key(copied) == before
    for held in copied.holders.values():
        held.add(("zz", 0))
    copied.holders["zz"] = set()
    for counts in (copied.cap_src, copied.cap_tie, copied.curr):
        for key in counts:
            counts[key] += 1
    copied.dead.add(("tie", "zz", 0))
    copied.arc_visits.append(0)
    copied.record.append((0, 0, None))
    assert state_key(original) == before


CORRUPTIONS = {
    "held": lambda net, a, t, c: net.holders[c].add((a, t)),
    "dead": lambda net, a, t, c: net.dead.add(("tie", a, t)),
    "capacity": lambda net, a, t, c: net.cap_tie.__setitem__((a, t), 1),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
@pytest.mark.parametrize("tie", [0, 2], ids=["listed", "unlisted"])
def test_the_search_asserts_its_base_holds_no_tie_of_hers(corrupt, tie):
    """A base in which a tie of hers, listed in her true list or only in a
    fabricated one, holds a course, is dead or has capacity fails the
    search's own assert before any list runs."""
    inst, real = worked_example("walkthrough"), gsdt.serve
    bases = []

    def serve(net, stages):
        real(net, stages)
        if not bases:
            bases.append(net)
            corrupt(net, "a1", tie, "c1")

    with mock.patch.object(oracle, "serve", serve), \
            mock.patch.object(oracle, "run_list", side_effect=AssertionError("ran")):
        with pytest.raises(AssertionError, match="the base holds a tie of hers") as raised:
            find_beneficial_misreport(inst, ORDERING, "a1")
    assert raised.traceback[-1].name == "find_beneficial_misreport"
    assert len(bases[0].record) == ORDERING.index("a1")


def test_a_search_adds_no_tie_capacity_to_its_base():
    """The base assert reads tie capacities without creating an entry, and
    the runs from copies of the base add none to it either. The liar is a3:
    her base holds a2's first stage, and her search makes 16 runs."""
    inst = worked_example("walkthrough")
    real, bases = run_list, []

    def run(base, *args):
        bases.append(base)
        return real(base, *args)

    with mock.patch.object(oracle, "run_list", run):
        search = find_beneficial_misreport(inst, ORDERING, "a3")
    assert search == reference_misreport(inst, ORDERING, "a3")
    assert len(bases) > 1 and all(base is bases[0] for base in bases)
    assert dict(bases[0].cap_tie) == dict(base_state(inst, ORDERING, "a3").cap_tie)


# ----------------------------------------------------------------------
# Tie capacities exist only for the ties a run probes.
# ----------------------------------------------------------------------

def named_ties(state, ordering):
    """The ties the stage records name: probed, or failed unprobed on a full network."""
    return {(a, p.tie) for a, entry in zip(ordering, state.record) for p in probes(entry)}


def test_a_run_holds_capacities_only_for_ties_its_records_name():
    full = 0
    for inst, ordering, liars in CASES:
        assert not FlowNetwork(inst).cap_tie
        state = run_list(base_state(inst, ordering, liars[0]), ordering, liars[0],
                         inst.prefs[liars[0]])
        named = named_ties(state, ordering)
        assert state.cap_tie.keys() <= named
        full += state.cap_tie.keys() < named
    assert full > 0  # some runs fill the network and leave named ties unprobed


def test_a_search_regime_run_holds_capacities_for_exactly_its_probed_ties():
    """Seats outnumber quota, as at 500x800, so no stage meets a full network
    and every named tie is probed: 80 entries where the lists hold 1,196 ties."""
    inst = generate_random_instance(50, 80, 3, 4, 0.4, 1)
    assert sum(inst.capacity.values()) > sum(inst.quota.values())
    ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
    state = run_list(base_state(inst, ordering, "a1"), ordering, "a1", inst.prefs["a1"])
    assert state.cap_tie.keys() == named_ties(state, ordering)
    assert (len(state.cap_tie), sum(map(len, inst.prefs.values()))) == (80, 1196)


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
# Every run one misreport search makes.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("k", range(len(CASES)))
def test_search_equals_reference_and_its_runs_equal_fresh_runs(k):
    """Each run the search makes, stopped or not, holds the probes and arc
    visits of the stages a fresh run of its list serves first."""
    inst, ordering, liars = CASES[k]
    real, runs = run_list, []

    def run(base, ordering, applicant, prefs, stop=None):
        state = real(base, ordering, applicant, prefs, stop)
        runs.append((applicant, prefs, state))
        return state

    with mock.patch.object(oracle, "run_list", run):
        for a in liars:
            got = find_beneficial_misreport(inst, ordering, a, search_limit=40)
            assert got == reference_misreport(inst, ordering, a, 40)
    stopped = 0
    for a, prefs, state in runs:
        fresh = run_gsdt(with_prefs(inst, a, prefs), ordering)
        n = len(state.record)
        stopped += n < len(ordering)
        assert tuple(state.record) == fresh.record[:n]
        # The probes of its n stages, with 0 for each probe of a full
        # network, which made no arc-visit entry and comes last.
        probed, searched = sum(len(probes(e)) for e in state.record), len(state.arc_visits)
        assert searched <= probed
        assert fresh.arc_visits[:probed] == (*state.arc_visits, *[0] * (probed - searched))
        if n == len(ordering):
            assert_equals_fresh(ordering, state, fresh, trace=False)
    assert stopped > 0


def long_list_case():
    """A liar with ten singleton ties over ten courses and three seats spread
    through the ordering."""
    inst = generate_random_instance(14, 10, 3, 2, 0.4, 77)
    inst = with_quotas(inst, {**inst.quota, "a1": 3})
    inst = with_prefs(inst, "a1", [[c] for c in inst.courses])
    return inst, shuffled_ordering(inst, 5)


def test_a_long_list_search_equals_the_reference():
    inst, ordering = long_list_case()
    assert ordering.index("a1") > 0
    got = find_beneficial_misreport(inst, ordering, "a1", search_limit=400)
    assert got == reference_misreport(inst, ordering, "a1", 400)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(instances, st.integers(0, 2**32 - 1), st.integers(0, 60), st.data())
def test_property_search_equals_the_reference(inst, seed, limit, data):
    liar = data.draw(st.sampled_from(inst.applicants), label="liar")
    ordering = shuffled_ordering(inst, seed)
    got = find_beneficial_misreport(inst, ordering, liar, search_limit=limit)
    assert got == reference_misreport(inst, ordering, liar, limit)


# ----------------------------------------------------------------------
# Runs stopped after her last stage.
# ----------------------------------------------------------------------

def her_vector(instance, state, applicant):
    """Her characteristic vector under her list in ``instance``, read off a
    run state whose instance may give her another list."""
    prefs = state.instance.prefs[applicant]
    held = [c for t, tie in enumerate(prefs) for c in tie if (applicant, t) in state.holders[c]]
    return characteristic_vector(instance, applicant, held)


def fresh_vector(instance, ordering, applicant, prefs):
    run = run_gsdt(with_prefs(instance, applicant, prefs), ordering)
    return characteristic_vector(instance, applicant, run.matching.of_applicant(applicant))


def searched_with_final_vectors(instance, ordering, applicant, limit=200_000):
    """The misreport search, after checking that every run it makes, stopped
    or not, leaves her the vector a fresh full run of that list gives her.
    Returns the search and, per run, its list and the stages it served."""
    runs, real = [], run_list

    def spy(base, ordering, applicant, prefs, stop=None):
        state = real(base, ordering, applicant, prefs, stop)
        runs.append((tuple(prefs), her_vector(instance, state, applicant),
                     len(state.record)))
        return state

    with mock.patch.object(oracle, "run_list", spy):
        search = find_beneficial_misreport(instance, ordering, applicant, limit)
    for prefs, vector, _ in runs:
        assert vector == fresh_vector(instance, ordering, applicant, prefs), prefs
    return search, [(prefs, stages) for prefs, _, stages in runs]


def live_in_base(instance, ordering, applicant):
    """The courses that reach the sink in the state before her first stage,
    by the whole-network reference of ``test_gsdt_dead_set``."""
    return {v[1] for v in sink_reachers(base_state(instance, ordering, applicant))
            if v[0] == "crs"}


def bound(instance, applicant, prefs, live=None):
    """Her vector of her ``quota`` best courses that ``prefs`` lists, under
    her true ties, of those in ``live`` if given: no outcome of ``prefs``
    beats it, with or without the base's live set."""
    listed = sorted((c for tie in prefs for c in tie if live is None or c in live),
                    key=lambda c: instance.tie_of(applicant, c))
    return characteristic_vector(instance, applicant, listed[:instance.quota[applicant]])


def skipped_lists(instance, ordering, applicant, examined):
    """How many of the first ``examined`` lists the search counts without a
    run: the truthful list, which ran before them, and those that cannot
    beat the truthful outcome within the base's live set."""
    true = instance.prefs[applicant]
    truthful = fresh_vector(instance, ordering, applicant, true)
    live = live_in_base(instance, ordering, applicant)
    lists = itertools.islice(misreport_space(instance, applicant), examined)
    return sum(prefs == true or bound(instance, applicant, prefs, live) <= truthful
               for prefs in lists)


def merging_counterexample():
    """a1 reports her two true ties as one; a2, served after a1's only
    stage, moves her from c1 to c2 within it."""
    inst = parse_instance(
        "courses: c1=1 c2=1\n"
        "applicant a1 quota=1 prefs: ( c1 ) ( c2 )\n"
        "applicant a2 quota=1 prefs: ( c1 )\n")
    return inst, ("a1", "a2"), [["c1", "c2"]]


def test_a_list_that_merges_true_ties_can_change_her_vector_after_her_last_stage():
    inst, ordering, merged = merging_counterexample()
    base = base_state(inst, ordering, "a1")
    stopped = run_list(base, ordering, "a1", merged, stop=1)
    finished = run_list(base, ordering, "a1", merged)
    assert her_vector(inst, stopped, "a1") == (1, 0)
    assert her_vector(inst, finished, "a1") == (0, 1)


def merging_case_the_bound_keeps():
    """As ``merging_counterexample``, but a1's truthful outcome is not her
    best among the courses live in her base, so the search runs the merging
    list. a5 fills c5 before her first stage, so c5 is dead. She takes c1,
    a3 fills c2, and her second stage takes c3 of the merged tie ( c3 c4 );
    a4's stage, the last, moves her to c4. She needs a quota of 2: her first
    stage takes a course of her best live tie, so with one stage no list
    could beat the truthful one."""
    inst = parse_instance(
        "courses: c1=1 c2=1 c3=1 c4=1 c5=1\n"
        "applicant a1 quota=2 prefs: ( c5 ) ( c1 ) ( c2 ) ( c3 ) ( c4 )\n"
        "applicant a2 quota=1 prefs: ( c1 )\n"
        "applicant a3 quota=1 prefs: ( c2 )\n"
        "applicant a4 quota=1 prefs: ( c3 )\n"
        "applicant a5 quota=1 prefs: ( c5 )\n")
    return inst, ("a5", "a1", "a2", "a3", "a1", "a4"), [["c1"], ["c2"], ["c3", "c4"]]


def test_the_search_runs_a_merging_list_to_the_end():
    inst, ordering, merged = merging_case_the_bound_keeps()
    truthful = fresh_vector(inst, ordering, "a1", inst.prefs["a1"])
    base = base_state(inst, ordering, "a1")
    stopped = run_list(base, ordering, "a1", merged, stop=5)  # after her last stage
    assert truthful == her_vector(inst, stopped, "a1") == (0, 1, 0, 1, 0)
    assert fresh_vector(inst, ordering, "a1", merged) == (0, 1, 0, 0, 1)
    assert bound(inst, "a1", merged, live_in_base(inst, ordering, "a1")) > truthful

    search, runs = searched_with_final_vectors(inst, ordering, "a1")
    assert search == reference_misreport(inst, ordering, "a1")
    assert search.status is MisreportStatus.NONE
    skipped = skipped_lists(inst, ordering, "a1", search.examined)
    assert 0 < skipped < search.examined
    # Most of the runs the bound alone makes are of lists that name the dead
    # c5 or start with blocks an earlier losing run probed short of its last.
    assert (len(runs), 1 + search.examined - skipped) == (87, 808)
    merged = tuple(map(frozenset, merged))
    assert [stages for prefs, stages in runs if prefs == merged] == [len(ordering)]


def test_a_stop_at_one_of_her_stages_is_refused():
    inst = worked_example("walkthrough")
    base = base_state(inst, ORDERING, "a1")
    for ordering in (ORDERING, list(ORDERING)):
        with pytest.raises(AssertionError):
            run_list(base, ordering, "a1", inst.prefs["a1"], stop=ordering.index("a1"))


def small_cases(count, seed):
    """Instances of 2-5 applicants and 2-4 courses with dense ties, each with
    a shuffled ordering and a liar."""
    rng = random.Random(seed)
    for _ in range(count):
        inst = generate_random_instance(
            rng.randint(2, 5), rng.randint(2, 4), 3, 3, 0.6, rng.randrange(2**32))
        yield inst, shuffled_ordering(inst, rng.randrange(2**32)), rng.choice(inst.applicants)


def test_every_run_the_search_reads_leaves_her_final_vector():
    """Over small instances, each run the search makes gives her the vector
    of a full run, and each finding's sets are those of fresh full runs."""
    found = 0
    for inst, ordering, a in small_cases(300, 103):
        search, _ = searched_with_final_vectors(inst, ordering, a)
        assert search == reference_misreport(inst, ordering, a)
        if search.status is MisreportStatus.FOUND:
            found += 1
            f = search.finding
            assert f.truthful_outcome == run_gsdt(inst, ordering).matching.of_applicant(a)
            assert f.lying_outcome == run_gsdt(
                with_prefs(inst, a, f.fabricated_prefs), ordering).matching.of_applicant(a)
    assert found >= 5


def bench_shaped_cases(length, count, seed):
    """10x5 instances drawn as the benchmark's misreport workload draws them,
    with a liar a1 who lists ``length`` of the five courses."""
    cases = []
    while len(cases) < count:
        inst = generate_random_instance(10, 5, 3, 4, 0.4, seed)
        if len(inst.acceptable("a1")) == length:
            cases.append((inst, shuffled_ordering(inst, seed)))
        seed += 1
    return cases


BENCH_SHAPED = bench_shaped_cases(3, 24, 4000) + bench_shaped_cases(5, 3, 5000)


@pytest.mark.parametrize("k", range(len(BENCH_SHAPED)))
def test_stopping_search_equals_the_reference_on_bench_shaped_instances(k):
    inst, ordering = BENCH_SHAPED[k]
    search, _ = searched_with_final_vectors(inst, ordering, "a1")
    assert search == reference_misreport(inst, ordering, "a1")


# ----------------------------------------------------------------------
# Lists that cannot beat the truthful outcome are counted, not run.
# ----------------------------------------------------------------------

def test_no_fresh_run_beats_her_quota_best_listed_courses():
    """Over small instances, every list of the space leaves her, in a fresh
    full run, a vector no better than the bound, and some lists reach it."""
    reached = 0
    for inst, ordering, a in small_cases(120, 307):
        for prefs in misreport_space(inst, a):
            got = fresh_vector(inst, ordering, a, prefs)
            assert got <= bound(inst, a, prefs), prefs
            reached += got == bound(inst, a, prefs)
    assert reached > 100


def test_no_fresh_run_gives_her_a_course_her_base_cannot_lead_to_the_sink():
    """Over the same instances, the base's ``live_courses`` are the
    reference's, no list of the space gives her a course outside them in a
    fresh full run, so her vector never beats the bound within them. Some
    lists reach that bound, and for some it is below the bound over every
    listed course."""
    reached = tighter = 0
    for inst, ordering, a in small_cases(120, 307):
        live = base_state(inst, ordering, a).live_courses()
        assert live == live_in_base(inst, ordering, a)
        for prefs in misreport_space(inst, a):
            held = run_gsdt(with_prefs(inst, a, prefs), ordering).matching.of_applicant(a)
            assert held <= live, prefs
            got, best = characteristic_vector(inst, a, held), bound(inst, a, prefs, live)
            assert got <= best, prefs
            reached += got == best
            tighter += best < bound(inst, a, prefs)
    assert (reached, tighter) == (826, 207)


def round_robin(instance):
    """Each applicant once per round, in file order, while she has quota."""
    rounds = range(max(instance.quota.values()))
    return [a for r in rounds for a in instance.applicants if instance.quota[a] > r]


def served_first(instance, ordering, applicant):
    """``ordering`` with all of ``applicant``'s stages moved to the front."""
    ordering = [b for b in ordering if b != applicant]
    return [applicant] * instance.quota[applicant] + ordering


def best_outcome_cases():
    """A liar whose truthful outcome is already her ``quota`` best courses:
    the merging counterexample, a five-course a1 under the round-robin
    ordering, and the five-course bench-shaped liars served first."""
    inst113 = generate_random_instance(10, 5, 3, 4, 0.4, 113)
    cases = [merging_counterexample()[:2], (inst113, round_robin(inst113))]
    return cases + [(inst, served_first(inst, ordering, "a1")) for inst, ordering in BENCH_SHAPED[-3:]]


@pytest.mark.parametrize("k", range(len(best_outcome_cases())))
def test_a_liar_with_her_best_outcome_runs_only_the_truthful_list(k):
    inst, ordering = best_outcome_cases()[k]
    true = inst.prefs["a1"]
    assert fresh_vector(inst, ordering, "a1", true) == bound(inst, "a1", true)
    search, runs = searched_with_final_vectors(inst, ordering, "a1")
    space = sum(1 for _ in misreport_space(inst, "a1"))
    assert search == MisreportSearch(MisreportStatus.NONE, None, space)
    assert [prefs for prefs, _ in runs] == [true]


def test_the_bound_skips_some_lists_and_runs_the_rest_on_bench_shaped_instances():
    """Per search: the truthful run, one run per other list the bound keeps
    and no earlier run decides, and the two full runs of a FOUND. The totals
    are pinned: the bound alone would leave 90 runs."""
    skipped = runs = found = 0
    for inst, ordering in BENCH_SHAPED:
        search, ran = searched_with_final_vectors(inst, ordering, "a1")
        s = skipped_lists(inst, ordering, "a1", search.examined)
        f = search.status is MisreportStatus.FOUND
        assert [prefs for prefs, _ in ran] == lists_a_per_list_bound_runs(inst, ordering, "a1", search)
        assert len(ran) <= 1 + search.examined - s + 2 * f
        skipped, runs, found = skipped + s, runs + len(ran), found + f
    assert (skipped, runs, found) == (3772, 56, 2)


def test_every_list_the_bound_keeps_and_the_search_counts_without_a_run_loses():
    """A list whose bound wins but which the search does not run is decided
    by an earlier run. In a fresh full run it gives her no more than the
    truthful vector: if it names a course outside the base's live courses,
    exactly the vector of its projection onto them, and otherwise the vector
    of an earlier losing run whose probed blocks, short of its last, it
    starts with."""
    projected = probed = 0
    cases = [(*merging_case_the_bound_keeps()[:2], "a1")]
    cases += [(inst, ordering, "a1") for inst, ordering in SUBSET_CASES[1:] + BENCH_SHAPED]
    for inst, ordering, a in cases + list(small_cases(300, 103)) + list(small_cases(120, 307)):
        real, ran = run_list, []

        def spy(base, ordering, applicant, prefs, stop=None):
            ran.append(tuple(map(frozenset, prefs)))
            return real(base, ordering, applicant, prefs, stop)

        with mock.patch.object(oracle, "run_list", spy):
            search = find_beneficial_misreport(inst, ordering, a)
        truthful = fresh_vector(inst, ordering, a, inst.prefs[a])
        live = live_in_base(inst, ordering, a)
        deciders = {}
        for prefs in ran:
            k = probed_blocks(inst, ordering, a, prefs)
            if k < len(prefs):
                deciders.setdefault(prefs[:k], prefs)
        for prefs in itertools.islice(misreport_space(inst, a), search.examined):
            if prefs in ran or bound(inst, a, prefs, live) <= truthful:
                continue
            got = fresh_vector(inst, ordering, a, prefs)
            assert got <= truthful, prefs
            outside = frozenset().union(*prefs) - live
            if outside:
                projection = tuple(tie - outside for tie in prefs if tie - outside)
                assert got == fresh_vector(inst, ordering, a, projection), prefs
                projected += 1
            else:
                decider = next(deciders[prefs[:k]] for k in range(1, len(prefs) + 1)
                               if prefs[:k] in deciders)
                assert got == fresh_vector(inst, ordering, a, decider), prefs
                probed += 1
    assert (projected, probed) == (1707, 240)


# Ten of the first sixty seeds whose 40x15 instance gives a1 six courses
# (9,366 lists), with the results of a search that ran every list its bound
# kept: three findings, then seven NONEs that ran 7,300-9,200 lists each, in
# 2-5 s. Seed 380 is left out for time: her second stage probes every block
# of every list, so no run decides another.
SIX_COURSE_RUNG = {17: ("FOUND", 73), 18: ("FOUND", 249), 33: ("FOUND", 66),
                   **dict.fromkeys((52, 85, 118, 148, 178, 225, 296), ("NONE", 9366))}


def test_six_course_liars_at_40x15_keep_their_results():
    digest = hashlib.sha256()
    for seed, want in SIX_COURSE_RUNG.items():
        inst = generate_random_instance(40, 15, 3, 4, 0.4, seed)
        assert len(inst.acceptable("a1")) == 6
        search = find_beneficial_misreport(inst, shuffled_ordering(inst, seed), "a1")
        assert (search.status.name, search.examined) == want, seed
        digest.update("\n".join(search.to_lines()).encode() + b"\n")
    assert digest.hexdigest()[:16] == "fa5dceb9c7abfd0d"


def test_no_search_runs_a_list_to_the_same_stop_twice():
    """The space lists the truthful list again after it has run first. Its
    bound may let it through, yet a rerun to the same stop could only tie
    with the truthful outcome, so the search makes none."""
    rerun_before = 0
    for inst, ordering in BENCH_SHAPED:
        real, runs = run_list, []

        def spy(base, ordering, applicant, prefs, stop=None):
            runs.append((tuple(map(frozenset, prefs)), stop))
            return real(base, ordering, applicant, prefs, stop)

        with mock.patch.object(oracle, "run_list", spy):
            search = find_beneficial_misreport(inst, ordering, "a1")
        assert len(set(runs)) == len(runs)
        true = inst.prefs["a1"]
        listed = true in itertools.islice(misreport_space(inst, "a1"), search.examined)
        live = live_in_base(inst, ordering, "a1")
        rerun_before += listed and bound(inst, "a1", true, live) > fresh_vector(
            inst, ordering, "a1", true)
    assert rerun_before == 3


@st.composite
def inside_lists(draw, true):
    """A list whose every tie lies inside one tie of ``true``: each true tie
    keeps some of its courses, split into blocks, and the blocks come in any
    order."""
    blocks = []
    for tie in true:
        courses = draw(st.permutations(sorted(tie)))
        kept = courses[:draw(st.integers(0, len(courses)))]
        joins = draw(st.lists(st.booleans(), min_size=len(kept), max_size=len(kept)))
        first = len(blocks)
        for c, join in zip(kept, joins):
            if join and len(blocks) > first:
                blocks[-1].append(c)
            else:
                blocks.append([c])
    return draw(st.permutations(blocks))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(instances, st.integers(0, 2**32 - 1), st.data())
def test_property_an_inside_list_has_her_final_vector_after_her_last_stage(inst, seed, data):
    liar = data.draw(st.sampled_from(inst.applicants), label="liar")
    prefs = data.draw(inside_lists(inst.prefs[liar]), label="prefs")
    ordering = shuffled_ordering(inst, seed)
    last = max(i for i, b in enumerate(ordering) if b == liar) + 1
    stopped = run_list(base_state(inst, ordering, liar), ordering, liar, prefs, stop=last)
    assert len(stopped.record) == last
    assert her_vector(inst, stopped, liar) == fresh_vector(inst, ordering, liar, prefs)


# ----------------------------------------------------------------------
# Her declared list needs no rebuild, and every list runs like a fresh run.
# ----------------------------------------------------------------------

def test_with_prefs_returns_the_instance_itself_for_her_declared_tuple(monkeypatch):
    """Her declared tuple is the one ``build`` checked, so ``with_prefs``
    returns the instance without checking it again; an equal list built
    afresh is checked and rebuilt, and a bad list or applicant still raises."""
    inst = worked_example("walkthrough")
    real, checked = instance_module._tie_sets, []

    def tie_sets(*args):
        checked.append(args[0])
        return real(*args)

    monkeypatch.setattr(instance_module, "_tie_sets", tie_sets)
    assert with_prefs(inst, "a1", inst.prefs["a1"]) is inst
    assert checked == []
    equal = tuple(frozenset(tie) for tie in inst.prefs["a1"])
    assert equal == inst.prefs["a1"] and equal is not inst.prefs["a1"]
    rebuilt = with_prefs(inst, "a1", equal)
    assert rebuilt is not inst and rebuilt == inst and checked == ["a1"]
    with pytest.raises(InstanceSemanticError, match="empty tie group"):
        with_prefs(inst, "a1", [["c1"], []])
    with pytest.raises(InstanceSemanticError, match="unknown course 'zz'"):
        with_prefs(inst, "a1", [["c1", "zz"]])
    with pytest.raises(InstanceSemanticError, match="unknown applicant 'zz'"):
        with_prefs(inst, "zz", inst.prefs["a1"])


def random_list(rng, instance, applicant):
    """A list over a random subset of her courses: shuffled, each course
    opening a new tie or joining the one before."""
    courses = sorted(instance.acceptable(applicant))
    rng.shuffle(courses)
    ties: list[list[str]] = []
    for c in courses[:rng.randint(1, len(courses))]:
        if ties and rng.random() < 0.4:
            ties[-1].append(c)
        else:
            ties.append([c])
    return ties


@pytest.mark.parametrize("seed", range(8))
def test_run_list_from_the_base_equals_fresh_runs_at_40x15(seed):
    """The truthful list, which runs on the instance itself, and sampled
    fabricated lists, each served by ``run_list`` from one base, equal
    fresh runs: matching, record, arc visits and trace."""
    inst = generate_random_instance(40, 15, 3, 4, 0.4, 4015 + seed)
    ordering, rng = shuffled_ordering(inst, seed), random.Random(seed)
    for a in rng.sample([a for a in inst.applicants if inst.prefs[a]], 3):
        base = base_state(inst, ordering, a)
        assert run_list(base, ordering, a, inst.prefs[a]).instance is inst
        assert_resumes_like_fresh(inst, ordering, a, [random_list(rng, inst, a) for _ in range(5)])
