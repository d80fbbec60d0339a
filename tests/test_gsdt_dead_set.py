"""The dead set and the paths of the GSDT search against whole-network
references. No node marked dead, by a failed probe's search or by the
augmentation that fills a tie, may reach the sink in the residual network,
before or after any probe of seeded canonical and guided runs, and on
Hypothesis-drawn instances after any stage; every canonical probe takes
the lexicographically least shortest path of the whole network; once
every seat is taken the stage loop decides each probe without a search; and
``FlowNetwork.live_courses`` are the courses that reach the sink, before and
after every stage."""

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
from camatch.gsdt import SNK, SRC
from instances import ProbeRecord, probes, worked_example


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


def least_shortest_path(net, applicant, tie):
    """The lexicographically least shortest path from the probed tie to the
    sink, by brute force over the whole residual network rebuilt from
    ``net.holders`` and the instance, ``dead`` ignored: every shortest path is
    listed and the least one taken. ``None`` when the sink is out of reach.
    Applicant nodes are left out: their arcs to other ties are saturated, so
    through them a path only reaches the source or the probed tie again.

    Under a policy, ``net.guided_order``, its first course in the probed tie
    that the tie does not hold and that has a free seat is taken directly, as
    the guided search does."""
    inst, holders = net.instance, net.holders
    start = ("tie", applicant, tie)
    for c in (net.guided_order or {}).get((applicant, tie), ()):
        held = holders[c]
        if c in inst.prefs[applicant][tie] and (applicant, tie) not in held \
                and len(held) < inst.capacity[c]:
            return [SRC, ("app", applicant), start, ("crs", c), SNK]
    succ = {SNK: []}
    for a in inst.applicants:
        for t, courses in enumerate(inst.prefs[a]):
            succ[("tie", a, t)] = [
                ("crs", c) for c in courses if (a, t) not in holders[c]]
    for c in inst.courses:
        succ[("crs", c)] = [("tie", a, t) for a, t in holders[c]]
        if len(holders[c]) < inst.capacity[c]:
            succ[("crs", c)].append(SNK)
    pred = {u: [] for u in succ}
    for u, outs in succ.items():
        for v in outs:
            pred[v].append(u)
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
    if start not in dist:
        return None

    def shortest(u):
        if u == SNK:
            yield [SNK]
        for v in succ[u]:
            if dist.get(v) == dist[u] - 1:
                for rest in shortest(v):
                    yield [u, *rest]

    return [SRC, ("app", applicant), *min(shortest(start))]


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
# Once every seat is taken the stage loop fails each probe without a search,
# and marks nothing dead. The cases whose network never fills:
NEVER_FULL = {16, 20, 22}
# The cases whose dead starts all come once the network is full:
DEAD_STARTS_ONLY_ON_A_FULL_NETWORK = {2, 7, 8, 11, 23, 26, 28}
# The cases where no node is ever marked dead:
NOTHING_DEAD = {8}


@pytest.mark.parametrize("k", range(len(CASES)))
def test_dead_nodes_never_reach_the_sink(monkeypatch, k):
    inst, ordering = CASES[k]
    search = gsdt.find_augmenting_path
    dead_starts = searches = 0
    networks = []

    def checked(net, applicant, tie):
        nonlocal dead_starts, searches
        searches += 1
        if not networks or networks[-1] is not net:
            networks.append(net)
        assert_dead_cannot_reach_sink(net)
        dead_starts += ("tie", applicant, tie) in net.dead
        path = search(net, applicant, tie)
        assert_dead_cannot_reach_sink(net)
        return path

    monkeypatch.setattr(gsdt, "find_augmenting_path", checked)
    canonical = run_gsdt(inst, ordering)
    optimum = canonical.matching
    guided = run_gsdt(inst, derive_ordering(inst, optimum), GuidedToward(optimum))
    # The last augmentation of each run happens after its last probe.
    assert len(networks) == 2
    for net in networks:
        assert_dead_cannot_reach_sink(net)
        assert bool(net.dead) == (k not in NOTHING_DEAD)
    # Every probe the search did not see was decided on a full network.
    full_probes = canonical.searches + guided.searches - searches
    assert dead_starts + full_probes > 0
    assert (dead_starts > 0) == (k not in DEAD_STARTS_ONLY_ON_A_FULL_NETWORK)


def test_live_courses_are_the_courses_that_reach_the_sink(monkeypatch):
    """Before and after every stage of every case's canonical and guided
    runs, ``live_courses`` is the set of course nodes the reference reaches
    and holds no dead course. Some full courses are live, and some courses
    are not while seats are free."""
    stage = gsdt._stage
    full_and_live = cut_off = 0

    def assert_live(net):
        nonlocal full_and_live, cut_off
        live, inst = net.live_courses(), net.instance
        assert live == {v[1] for v in sink_reachers(net) if v[0] == "crs"}
        assert not live & {v[1] for v in net.dead if v[0] == "crs"}
        full_and_live += any(len(net.holders[c]) == inst.capacity[c] for c in live)
        cut_off += net.free > 0 and len(live) < len(inst.courses)

    def checked(net, a):
        if not net.record:  # a later stage starts where the one before ended
            assert_live(net)
        stage(net, a)
        assert_live(net)

    monkeypatch.setattr(gsdt, "_stage", checked)
    for inst, ordering in CASES:
        optimum = run_gsdt(inst, ordering).matching
        run_gsdt(inst, derive_ordering(inst, optimum), GuidedToward(optimum))
    assert (full_and_live, cut_off) == (469, 1017)


# (n1, n2): checks, checks with a free seat and a course not live, and the
# least live set. At 160x40 the network fills; at 200x300 there are 743 seats
# for 402 units of quota, so live sets stay large.
LARGER_RUNS = {(160, 40): (31, 10, 0), (200, 300): (40, 40, 194)}


@pytest.mark.parametrize("n1, n2", LARGER_RUNS)
def test_live_courses_reach_the_sink_at_every_tenth_stage_of_larger_runs(monkeypatch, n1, n2):
    """The cases above are at most 60x15. After every 10th stage of a
    canonical file-order run, ``live_courses`` is the set of course nodes the
    whole-network reference reaches."""
    inst = generate_random_instance(n1, n2, 3, 4, 0.4, seed=1)
    stage = gsdt._stage
    served, sizes = 0, []

    def checked(net, a):
        nonlocal served
        stage(net, a)
        served += 1
        if served % 10 == 0:
            live = net.live_courses()
            assert live == {v[1] for v in sink_reachers(net) if v[0] == "crs"}
            sizes.append((len(live), net.free > 0 and len(live) < n2))

    monkeypatch.setattr(gsdt, "_stage", checked)
    run_gsdt(inst, [a for a in inst.applicants for _ in range(inst.quota[a])])
    assert (len(sizes), sum(cut for _, cut in sizes), min(size for size, _ in sizes)) \
        == LARGER_RUNS[n1, n2]


@pytest.mark.parametrize("k", range(len(CASES)))
def test_canonical_path_is_the_whole_network_least_shortest_one(monkeypatch, k):
    """Every canonical probe returns the reference path of the whole residual
    network, dead set or not; a guided probe fails exactly when it has none."""
    inst, ordering = CASES[k]
    search = gsdt.find_augmenting_path
    found = 0

    def checked(net, applicant, tie):
        nonlocal found
        expected = least_shortest_path(net, applicant, tie)
        path = search(net, applicant, tie)
        if net.guided_order is None:
            assert path == expected
            found += path is not None
        else:
            assert (path is None) == (expected is None)
        return path

    monkeypatch.setattr(gsdt, "find_augmenting_path", checked)
    optimum = run_gsdt(inst, ordering).matching
    run_gsdt(inst, derive_ordering(inst, optimum), GuidedToward(optimum))
    assert found == len(optimum)


def seats_left(net):
    """The free seats of all courses, counted off ``holders``."""
    return sum(net.instance.capacity[c] - len(held) for c, held in net.holders.items())


@pytest.mark.parametrize("k", range(len(CASES)))
def test_a_full_network_fails_the_rest_of_each_stage_without_a_search(monkeypatch, k):
    """Once every seat is taken no search runs, in canonical and guided runs:
    the stage loop fails each tie the applicant has left, with 0 arc visits,
    and the whole-network reference finds no path from any of them."""
    inst, ordering = CASES[k]
    search, stage = gsdt.find_augmenting_path, gsdt._stage
    decided = 0

    def spied_search(net, applicant, tie):
        assert seats_left(net) > 0
        return search(net, applicant, tie)

    def spied_stage(net, a):
        nonlocal decided
        if seats_left(net):
            return stage(net, a)
        left = range(net.curr[a], len(inst.prefs[a]))
        for t in left:
            assert least_shortest_path(net, a, t) is None
        searched = len(net.arc_visits)
        stage(net, a)
        assert len(net.arc_visits) == searched  # no search, so no entry
        assert probes(net.record[-1]) == tuple(ProbeRecord(t, None) for t in left)
        decided += len(left)

    monkeypatch.setattr(gsdt, "find_augmenting_path", spied_search)
    monkeypatch.setattr(gsdt, "_stage", spied_stage)
    canonical = run_gsdt(inst, ordering)
    in_canonical = decided
    guided = run_gsdt(inst, derive_ordering(inst, canonical.matching), GuidedToward(canonical.matching))
    assert (decided > 0) == (k not in NEVER_FULL)
    # The probes decided without a search come last in each run, and the
    # ``arc_visits`` view reads 0 for each of them.
    for result, n in ((canonical, in_canonical), (guided, decided - in_canonical)):
        assert len(result.visits) == result.searches - n
        assert result.arc_visits[result.searches - n:] == (0,) * n


def test_a_filled_tie_is_dead_and_its_next_probe_inspects_nothing():
    """On the manipulation instance a1's first stage fills her first tie
    ( c2 ), so the augmentation marks it dead. c1 is still free, so a probe
    of that tie is not decided by a full network: the dead-tie exit fails it
    at once, with a 0 entry. After a2 takes c1, a1's second stage meets a
    full network and fails the tie unprobed."""
    net = gsdt.FlowNetwork(worked_example("manipulation"))
    gsdt.serve(net, ["a1"])
    assert ("tie", "a1", 0) in net.dead
    assert net.free > 0
    probe = net.copy(net.instance)
    assert gsdt.find_augmenting_path(probe, "a1", 0) is None
    assert probe.arc_visits == [*net.arc_visits, 0]
    gsdt.serve(net, ["a2", "a1"])
    assert probes(net.record[2])[0] == ProbeRecord(0, None)
    assert len(net.arc_visits) == 2  # no entry, so the ``arc_visits`` view reads 0


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

    # run_gsdt checks the network after every stage that probes and once more
    # at the end; a stage on a full network changes no arc the search crosses.
    with mock.patch.object(gsdt.FlowNetwork, "check", checked):
        run_gsdt(inst, shuffled_ordering(inst, seed))


@PROPERTY
@given(instances, st.integers(0, 2**32 - 1))
def test_property_canonical_output_is_pareto_optimal_and_replays(inst, seed):
    optimum = run_gsdt(inst, shuffled_ordering(inst, seed)).matching
    assert is_pareto_optimal(inst, optimum)
    replay = run_gsdt(inst, derive_ordering(inst, optimum), GuidedToward(optimum))
    assert replay.matching == optimum
