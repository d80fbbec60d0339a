"""The GSDT stage loop against a frozen copy of the loop it replaced.

``_stage``, ``find_augmenting_path`` and ``FlowNetwork.augment`` below are
verbatim copies of the loop that built a closure per stage and per probe and
a fresh record for each failed probe. The eager reference in
``test_gsdt_trace_differential.py`` calls the live search and ``augment``,
so only this copy can catch a rewrite of them. After every stage the live
network (served one stage at a time by ``gsdt.serve``) and the reference
must agree on the probe records and the arc visits (the live compact record
expanded, ``instances.probes``), the dead set, every
``cap_tie`` entry (zero entries included), the tie pointers, the holders,
the free seats and each course's sink flow, which the reference counts apart
from its holders: on seeded 40x15 canonical runs and their guided replays, the
same on 20 popularity-correlated 40x60 instances, whose canonical runs take
155 7-node paths, against 60 on uniform 40x60 ones, so their searches
often expand past the first level, and on
``oracle.run_list`` runs of liar lists at 10x5."""

from __future__ import annotations

import itertools
import random
from typing import Callable, Sequence

import pytest

from camatch import GuidedToward, derive_ordering, generate_random_instance, gsdt, run_gsdt
from camatch.gsdt import SNK, SRC, FlowNetwork, Node
from camatch.instance import with_prefs
from camatch.oracle import misreport_space, run_list
from instances import ProbeRecord, correlated_instance, probes

_FAILED: tuple[ProbeRecord, ...] = ()


class ReferenceNetwork(FlowNetwork):
    """The live network state with the frozen ``augment``, and the record
    the frozen loop kept: every stage's probes, one arc-visit entry per
    probe, 0 for each probe of a full network, and the units on each
    course's sink arc, ``flow_snk``, counted apart from ``holders``."""

    def __init__(self, instance):
        super().__init__(instance)
        self.stage_probes: list[tuple[ProbeRecord, ...]] = []
        self.flow_snk = dict.fromkeys(instance.courses, 0)

    def augment(self, path: Sequence[Node]) -> None:
        """Push one unit along a source-sink path; tie-course arcs on the
        path toggle, which adds and removes matched pairs. The path's first
        tie, the probed one, is marked dead once it holds all its courses."""
        for u, v in zip(path[2:], path[3:]):
            if u[0] == "tie":
                held = self.holders[v[1]]
                assert (u[1], u[2]) not in held
                held.add((u[1], u[2]))
            elif v[0] == "tie":
                self.holders[u[1]].remove((v[1], v[2]))
        self.flow_snk[path[-2][1]] += 1
        self.free -= 1
        _, a, t = path[2]
        if all((a, t) in self.holders[c] for c in self.instance.prefs[a][t]):
            self.dead.add(path[2])


def find_augmenting_path(
    net: FlowNetwork,
    applicant: str,
    tie: int,
    guided_order: dict[tuple[str, int], list[str]] | None = None,
) -> list[Node] | None:
    """Search the residual network for a source-sink path through the
    applicant's probed tie.

    Any augmenting path must enter through the only unsaturated source and
    tie arcs, so the search starts at the tie node. It is breadth-first over
    residual arcs: unmatched tie-course arcs, course-sink arcs with a free
    seat, and backward arcs from a course to the ties that hold it. Each
    node's successors are taken in ascending key order and a node's parent
    is the one that first reaches it, so every level is reached in the order
    of its nodes' least shortest paths, and the path read back from the sink
    is the lexicographically least shortest one of the whole network. Dead
    nodes (``FlowNetwork.dead``) are skipped, and a dead probed tie fails at
    once, as does any probe with no free seat left (``FlowNetwork.free``); no
    dead node reaches the sink, so the path is unchanged. A failed search
    adds every node it reached to the dead set, a successful one none. Each
    call appends its arc inspections to ``net.arc_visits``: |tie| for a tie
    it expands, 1 + |holders| for a course, 0 when it fails at once.

    A ``guided_order`` (per ``(applicant, tie)``, a guided target's courses in
    that tie, ascending, from ``run_gsdt``) is tried first for the probed tie,
    one arc visit per course: its first that the tie does not hold and has a free seat is taken.
    """
    inst = net.instance
    holders = net.holders
    dead = net.dead
    visits = 0

    def finish(path: list[Node] | None) -> list[Node] | None:
        net.arc_visits.append(visits)
        return path

    # A dead tie has no free course to take directly either.
    start = ("tie", applicant, tie)
    if start in dead or not net.free:
        return finish(None)

    if guided_order is not None:
        # Every candidate lies in the probed tie, so only that tie can hold it.
        for c in guided_order.get((applicant, tie), ()):
            visits += 1
            if (applicant, tie) not in holders[c] and net.flow_snk[c] < inst.capacity[c]:
                return finish([SRC, ("app", applicant), start, ("crs", c), SNK])

    # Breadth-first search over live residual arcs, successors in ascending
    # key order; the sink's key sorts first, so a free course ends it at once.
    parent: dict[Node, Node | None] = {start: None}
    queue = [start]
    for u in queue:  # the queue grows as the loop reads it
        if u[0] == "tie":
            a, t = u[1], u[2]
            courses = inst.prefs[a][t]
            visits += len(courses)
            outs = [("crs", c) for c in courses if (a, t) not in holders[c]]
        else:
            c = u[1]
            held = holders[c]
            visits += 1 + len(held)
            if net.flow_snk[c] < inst.capacity[c]:
                break
            outs = [("tie", a, t) for a, t in held]
        for v in sorted(outs):
            if v not in parent and v not in dead:
                parent[v] = u
                queue.append(v)
    else:  # no free course is reachable
        dead.update(parent)
        return finish(None)
    path = [SNK]
    node: Node | None = u
    while node is not None:
        path.append(node)
        node = parent[node]
    return finish([SRC, ("app", applicant), *reversed(path)])


def _stage(net: FlowNetwork, a: str,
           probe: Callable[[int], Sequence[Node] | None]) -> tuple[ProbeRecord, ...]:
    """The stage rules, shared by the live run and the checked replay in
    ``GsdtResult.stages``: serve one quota unit of ``a``; return its probes.

    Raise her source capacity and probe her ties from ``net.curr[a]`` on;
    ``probe(t)`` gives a path through tie ``t`` or ``None``. A failed probe
    rolls the tie capacity back and advances ``curr[a]``; the first success
    augments. ``FlowNetwork.check`` then covers the ties probed and the ties
    and courses on the path. Her bound ``out <= cap_src`` is left to the
    full check: she gains a unit of source capacity and at most one of flow,
    and the path's other ties each swap one course for another. With no free
    seat her remaining ties fail unprobed, with 0 arc visits, as a slice of
    ``_FAILED``, only ever replaced by a longer tuple. Then only ``cap_src[a]``
    (her bound loosens) and ``curr[a]`` (read by no check) change: no check."""
    global _FAILED
    net.cap_src[a] += 1
    first, ties = net.curr[a], len(net.instance.prefs[a])
    if not net.free:
        failed = _FAILED
        if len(failed) < ties:
            failed = _FAILED = tuple(ProbeRecord(t, None) for t in range(2 * ties))
        net.curr[a] = ties
        net.arc_visits += [0] * (ties - first)
        return failed[first:ties]
    path: Sequence[Node] = ()
    probes = []
    for t in range(first, ties):
        net.cap_tie[a, t] += 1
        path = probe(t) or ()
        probes.append(ProbeRecord(t, tuple(path) or None))
        if path:
            net.augment(path)
            break
        net.cap_tie[a, t] -= 1
        net.curr[a] += 1
    net.check(a, range(first, first + len(probes)), path)
    return tuple(probes)


def reference_stage(net: ReferenceNetwork, a: str, guided_order=None) -> None:
    net.stage_probes.append(_stage(
        net, a, lambda t: find_augmenting_path(net, a, t, guided_order)))


def assert_same(live: FlowNetwork, ref: ReferenceNetwork, where: str) -> None:
    assert tuple(map(probes, live.record)) == tuple(ref.stage_probes), where
    # The live network makes no arc-visit entry for a probe of a full
    # network; such probes come last, and the reference counts 0 for each.
    searched = len(live.arc_visits)
    assert live.arc_visits == ref.arc_visits[:searched], where
    assert ref.arc_visits[searched:] == [0] * (len(ref.arc_visits) - searched), where
    assert live.dead == ref.dead, where
    assert dict(live.cap_tie) == dict(ref.cap_tie), where
    assert live.curr == ref.curr, where
    assert live.holders == ref.holders, where
    assert live.free == ref.free, where
    assert live.cap_src == ref.cap_src, where
    assert ref.flow_snk == {c: len(held) for c, held in live.holders.items()}, where


def guided_courses(instance, target):
    """The target's courses per ``(applicant, tie)``, ascending, as
    ``run_gsdt`` groups them."""
    order = {}
    for a, c in target.canonical_pairs():
        order.setdefault((a, instance.tie_of(a, c)), []).append(c)
    return order


def lockstep(instance, ordering, policy=None) -> FlowNetwork:
    """Serve both loops one stage at a time; compare after every stage. The
    reference groups a guided policy's courses itself."""
    live, ref = FlowNetwork(instance, policy), ReferenceNetwork(instance)
    guided_order = None if policy is None else guided_courses(instance, policy.target)
    for i, a in enumerate(ordering, start=1):
        gsdt.serve(live, [a])
        reference_stage(ref, a, guided_order)
        assert_same(live, ref, f"stage {i}")
    return ref


def shuffled_quota(instance, seed):
    ordering = [a for a in sorted(instance.applicants) for _ in range(instance.quota[a])]
    random.Random(seed).shuffle(ordering)
    return tuple(ordering)


@pytest.mark.parametrize("correlated, seed", [
    *(pytest.param(False, seed, id=str(seed)) for seed in range(75)),
    *(pytest.param(True, seed, id=f"correlated-40x60-{seed}") for seed in range(20))])
def test_canonical_and_guided_runs_match_the_frozen_loop(correlated, seed):
    inst = (correlated_instance(40, 60, 3, 4, 0.4, seed) if correlated
            else generate_random_instance(40, 15, 3, 4, 0.4, seed=seed))
    ordering = shuffled_quota(inst, seed)
    ref = lockstep(inst, ordering)
    result = run_gsdt(inst, ordering)
    assert tuple(map(probes, result.record)) == tuple(ref.stage_probes)
    assert result.arc_visits == tuple(ref.arc_visits)
    assert result.matching == ref.matching()

    target = result.matching
    derived = derive_ordering(inst, target)
    ref = lockstep(inst, derived, GuidedToward(target))
    replay = run_gsdt(inst, derived, GuidedToward(target))
    assert tuple(map(probes, replay.record)) == tuple(ref.stage_probes)
    assert replay.arc_visits == tuple(ref.arc_visits)
    assert replay.matching == target == ref.matching()


@pytest.mark.parametrize("seed", range(8))
def test_liar_lists_served_by_run_list_match_the_frozen_loop(seed):
    """Each liar list is served on a copy of the state before a1's first
    stage, one stage at a time, against the frozen loop run from scratch on
    the liar's instance; ``run_list`` must end where both do."""
    inst = generate_random_instance(10, 5, 3, 4, 0.4, seed=seed)
    ordering = shuffled_quota(inst, 100 + seed)
    first = ordering.index("a1")
    base = FlowNetwork(inst)
    gsdt.serve(base, ordering[:first])
    space = list(itertools.islice(misreport_space(inst, "a1"), 400))
    for prefs in random.Random(seed).sample(space, min(12, len(space))):
        liar = with_prefs(inst, "a1", prefs)
        live, ref = base.copy(liar), ReferenceNetwork(liar)
        for i, a in enumerate(ordering, start=1):
            if i > first:
                gsdt.serve(live, [a])
            reference_stage(ref, a)
            if i >= first:
                assert_same(live, ref, f"list {prefs}, stage {i}")
        assert_same(run_list(base, ordering, "a1", prefs), ref, f"list {prefs}, run_list")
