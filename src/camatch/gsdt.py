"""Serial dictatorship with ties, run as staged network flow.

Applicants are served one quota unit at a time along a priority multisequence,
one stage each (``_stage``), in a flow network with source -> applicant -> tie
-> course -> sink layers. Augmenting paths reshuffle courses only within a
tie, so nobody ever trades down, and every stage output is Pareto optimal for
the stage quotas.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from . import envy
from .errors import NotParetoOptimalError
from .instance import Instance, PriorityOrdering, validate_ordering
from .matching import (
    Matching, Pair, _weakly_prefers_course, require_feasible, weakly_envied)
from .scc import strongly_connected_components

SRC = ("src",)
SNK = ("snk",)
_FAILED: tuple[ProbeRecord, ...] = ()  # ProbeRecord(t, None) at index t (see _stage)

Node = tuple


def render_node(node: Node) -> str:
    if node == SRC:
        return "sigma"
    if node == SNK:
        return "tau"
    if node[0] == "tie":
        return f"{node[1]}:t{node[2] + 1}"
    return node[1]  # an applicant or a course


class FlowNetwork:
    """The state of one GSDT run: the flow network, the tie pointers
    ``curr``, the arcs each probe inspected (``arc_visits``, one entry
    per probe) and the recorded probes.
    Tie-to-course arcs have capacity 1 and course-to-sink arcs capacity
    q(c); source and tie arc capacities evolve with the stages, and
    ``cap_tie`` has entries only for probed ties (any other has 0).
    ``holders[c]`` is the one record of tie-course flow: the arc from tie
    ``(a, t)`` to course ``c`` carries a unit exactly when ``(a, t)`` is in
    ``holders[c]``; matched pairs, residual arcs and the flow out of each
    tie and applicant are read off it. ``flow_snk[c]`` counts the units on
    the course's sink arc, which the search's free-seat test reads, and
    ``free`` the seats left in all courses. Every augmenting path ends at
    one and only ``augment`` lowers it, so once it is 0 every probe fails.

    ``dead`` holds tie and course nodes known not to reach the sink in the
    residual network; they stay dead for the rest of the run. A failed
    search marks every node it reached, and ``augment`` marks a tie
    it fills. An augmentation creates residual arcs only out of nodes on its
    path, all of which reach the sink; its other changes only remove arcs (a
    full course's sink arc), and source and tie capacities act on arcs the
    search never crosses. So no arc from a dead node to a live one ever
    appears. A full tie has no residual arc out, so no path passes through
    it and it never gains one."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.curr = dict.fromkeys(instance.applicants, 0)
        self.cap_src = dict.fromkeys(instance.applicants, 0)
        self.cap_tie: defaultdict[tuple[str, int], int] = defaultdict(int)
        self.holders: dict[str, set[tuple[str, int]]] = {c: set() for c in instance.courses}
        self.flow_snk = dict.fromkeys(instance.courses, 0)
        self.free = sum(instance.capacity.values())
        self.dead: set[Node] = set()
        self.arc_visits: list[int] = []
        self.stage_probes: list[tuple[ProbeRecord, ...]] = []

    def copy(self, instance: Instance) -> FlowNetwork:
        """An independent copy of the state, read against ``instance``."""
        new = object.__new__(FlowNetwork)
        new.__dict__ = {name: getattr(self, name).copy() for name in (
            "curr", "cap_src", "cap_tie", "flow_snk", "dead", "arc_visits", "stage_probes")}
        new.instance, new.free = instance, self.free
        new.holders = {c: held.copy() for c, held in self.holders.items()}
        return new

    def live_courses(self) -> set[str]:
        """The courses that reach the sink in the residual network, empty
        with no free seat; by the dead-set argument above, no later stage of
        the run gives a course outside it to anyone. Between stages every
        applicant-to-tie arc is full, so no path to the sink crosses an
        applicant, and a tie's arcs on such a path run in from a course it
        holds and out to one it lists and does not hold. Contracted, a tie
        passes liveness from the latter to the former, and a tie that holds
        nothing passes none: one search over courses, from those with a free
        seat, reads only the ties in ``holders``."""
        inst, holders = self.instance, self.holders
        feeds: defaultdict[str, list[str]] = defaultdict(list)  # d -> courses live once d is
        for c, keys in holders.items():
            for a, t in keys:
                for d in inst.prefs[a][t]:
                    if (a, t) not in holders[d]:
                        feeds[d].append(c)
        live = {c for c in inst.courses if self.flow_snk[c] < inst.capacity[c]}
        queue = list(live)
        for d in queue:  # the queue grows as the loop reads it
            fresh = set(feeds[d]) - live
            live |= fresh
            queue += fresh
        return live

    def matching(self) -> Matching:
        return Matching((a, c) for c, held in self.holders.items() for a, _ in held)

    def augment(self, path: Sequence[Node]) -> None:
        """Push one unit along a source-sink path; tie-course arcs on the
        path toggle, which adds and removes matched pairs. The probed tie,
        the path's first, is marked dead once it holds all its courses, that
        is once its capacity (the courses it holds, ``check``) is its size."""
        for taker, course, giver in zip(path[2::2], path[3::2], path[4::2]):
            held, key = self.holders[course[1]], (taker[1], taker[2])
            assert key not in held
            held.add(key)
            if giver[0] == "tie":  # not the sink
                held.remove((giver[1], giver[2]))
        self.flow_snk[path[-2][1]] += 1
        self.free -= 1
        _, a, t = path[2]
        if self.cap_tie.get((a, t)) == len(self.instance.prefs[a][t]):
            self.dead.add(path[2])

    def check(self, ties: Iterable[tuple[str, int]] | None = None,
              courses: Iterable[str] | None = None) -> None:
        """Exact conservation and capacity bounds, node by node, for the
        quiescent state between stages, where also every applicant-to-tie
        arc sits at its capacity. Each invariant involves one node's own
        arcs, so ``ties`` (``(a, t)`` keys) and ``courses`` can scope the
        check; ``None`` means all. The full tie check counts held units once
        off ``holders`` against the nonzero ``cap_tie`` entries; only it
        bounds each applicant's out by ``cap_src``. No check adds an entry."""
        inst, holders, cap_tie = self.instance, self.holders, self.cap_tie
        for c in inst.courses if courses is None else courses:
            held = holders[c]
            assert len(held) == self.flow_snk[c] <= inst.capacity[c]
            for a, t in held:
                assert c in inst.prefs[a][t]
        if courses is None:
            assert self.free == sum(inst.capacity[c] - self.flow_snk[c] for c in inst.courses)
        for key in () if ties is None else ties:
            held = 0
            for c in inst.prefs[key[0]][key[1]]:
                held += key in holders[c]
            assert cap_tie.get(key, 0) == held
        if ties is None:
            counted, out = {}, dict.fromkeys(inst.applicants, 0)
            for held in holders.values():
                for key in held:
                    counted[key] = counted.get(key, 0) + 1
                    out[key[0]] += 1
            assert counted == {key: n for key, n in cap_tie.items() if n}
            assert all(n <= self.cap_src[a] for a, n in out.items())


@dataclass(frozen=True)
class GuidedToward:
    """Prefer direct paths onto the target matching's courses, each
    applicant's in ascending id; used to replay a Pareto optimal matching.
    Only her courses in the probed tie can be taken; they form one component
    of the target's pair-priority order, sorted inside, so the paths match."""

    target: Matching


def find_augmenting_path(net: FlowNetwork, applicant: str, tie: int,
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
    dead node reaches the sink, so the path is unchanged. Each call appends
    its arc inspections to ``net.arc_visits``: |tie| for a tie it expands,
    1 + |holders| for a course, 0 when it fails at once.

    A ``guided_order`` (per ``(applicant, tie)``, a guided target's courses in
    that tie, ascending, from ``run_gsdt``) is tried first for the probed tie,
    one arc visit per course: its first that the tie does not hold and has a free seat is taken.
    """
    inst, holders, dead, visits = net.instance, net.holders, net.dead, 0
    # A dead tie has no free course to take directly either.
    start = ("tie", applicant, tie)
    if start in dead or not net.free:
        net.arc_visits.append(visits)
        return None

    if guided_order is not None:
        # Every candidate lies in the probed tie, so only that tie can hold it.
        key = applicant, tie
        for c in guided_order.get(key, ()):
            visits += 1
            if key not in holders[c] and net.flow_snk[c] < inst.capacity[c]:
                net.arc_visits.append(visits)
                return [SRC, ("app", applicant), start, ("crs", c), SNK]

    # Breadth-first search over live residual arcs, successors in ascending
    # key order; the sink's key sorts first, so a free course ends it at once.
    parent: dict[Node, Node | None] = {start: None}
    queue = [start]
    for u in queue:  # the queue grows as the loop reads it
        if u[0] == "tie":
            key = u[1], u[2]
            courses = inst.prefs[key[0]][key[1]]
            visits += len(courses)
            outs = [("crs", c) for c in courses if key not in holders[c]]
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
        net.arc_visits.append(visits)
        return None
    net.arc_visits.append(visits)
    path = [SNK]
    node: Node | None = u
    while node is not None:
        path.append(node)
        node = parent[node]
    return [SRC, ("app", applicant), *reversed(path)]


# ----------------------------------------------------------------------
# The mechanism.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeRecord:
    tie: int
    path: tuple[Node, ...] | None


def _stage(net: FlowNetwork, a: str,
           probe: Callable[[int], Sequence[Node] | None]) -> tuple[ProbeRecord, ...]:
    """The stage rules, shared by the live run and the checked replay in
    ``GsdtResult.stages``: serve one quota unit of ``a``; return its probes.

    Raise her source capacity and probe her ties from ``net.curr[a]`` on;
    ``probe(t)`` gives a path through tie ``t`` or ``None``. A failed probe
    rolls the tie capacity back and advances ``curr[a]``, and its record is
    a slice of the shared ``_FAILED`` (only ever replaced by a longer tuple);
    the first success augments. ``FlowNetwork.check`` (not under ``-O``)
    then covers the ties probed and the ties and courses on the path. Her
    bound ``out <= cap_src`` is left to the full check: she gains a unit of
    source capacity and at most one of flow, and the path's other ties each
    swap one course for another. With no free seat her remaining ties fail
    unprobed, with 0 arc visits; only ``cap_src[a]`` (her bound loosens) and
    ``curr[a]`` (read by no check) change: no check."""
    global _FAILED
    net.cap_src[a] += 1
    first, ties = net.curr[a], len(net.instance.prefs[a])
    if len(_FAILED) < ties:
        _FAILED = tuple(ProbeRecord(t, None) for t in range(2 * ties))
    if not net.free:
        net.curr[a] = ties
        net.arc_visits += [0] * (ties - first)
        return _FAILED[first:ties]
    cap_tie, t, path = net.cap_tie, first, ()
    while t < ties:
        cap_tie[a, t] += 1
        path = probe(t) or ()
        if path:
            break
        cap_tie[a, t] -= 1
        t += 1
    net.curr[a] = t
    probes = _FAILED[first:t]
    if path:
        net.augment(path)
        probes, t = probes + (ProbeRecord(t, tuple(path)),), t + 1
    if __debug__:  # the probed ties, then the ties and the courses on the path
        net.check(ties=[(a, s) for s in range(first, t)] + [u[1:] for u in path[4:-1:2]],
                  courses=[u[1] for u in path[3:-1:2]])
    return probes


@dataclass(frozen=True)
class StageRecord:
    stage: int
    applicant: str
    probes: tuple[ProbeRecord, ...]
    matching: Matching
    curr_after: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class GsdtResult:
    """The final matching and the arc inspections of each probe of a run,
    plus what the run recorded to explain itself: each stage's probes.
    ``searches`` counts the probes, one per entry of ``arc_visits``.

    ``stages`` and ``capacity_history`` are built on first read and cached.
    ``stages`` replays the recorded paths through ``_stage`` on a fresh
    network, with the full ``FlowNetwork.check`` after every stage, and
    raises ``AssertionError``, under ``-O`` too, unless the rules re-derive
    the recorded probes; ``render_trace`` renders a forged record as it is.
    ``capacity_history`` holds the source-arc capacities before the first
    stage and after each one.
    """

    instance: Instance
    ordering: PriorityOrdering
    matching: Matching
    stage_probes: tuple[tuple[ProbeRecord, ...], ...]
    arc_visits: tuple[int, ...]

    @property
    def searches(self) -> int:
        return len(self.arc_visits)

    @cached_property
    def stages(self) -> tuple[StageRecord, ...]:
        net = FlowNetwork(self.instance)
        stages = []
        for i, (a, recorded) in enumerate(zip(self.ordering, self.stage_probes), start=1):
            probes = _stage(net, a, {p.tie: p.path for p in recorded}.get)
            if probes != recorded:
                raise AssertionError(f"stage {i}: the record breaks the stage rules")
            if __debug__:
                net.check()
            stages.append(StageRecord(i, a, probes, net.matching(),
                                      tuple(sorted(net.curr.items()))))
        return tuple(stages)

    @cached_property
    def capacity_history(self) -> tuple[tuple[int, ...], ...]:
        counts = {a: 0 for a in self.instance.applicants}
        history = [tuple(counts.values())]
        for a in self.ordering:
            counts[a] += 1
            history.append(tuple(counts.values()))
        return tuple(history)


def serve(net: FlowNetwork, stages: Sequence[str],
          guided_order: dict[tuple[str, int], list[str]] | None = None) -> None:
    """The stage loop: one ``_stage`` per entry, probed by the live search,
    then the full check; one probe callable reads each stage's applicant."""
    def probe(t: int) -> list[Node] | None:
        return find_augmenting_path(net, a, t, guided_order)
    for a in stages:
        net.stage_probes.append(_stage(net, a, probe))
    if __debug__:
        net.check()


def run_gsdt(instance: Instance, ordering: Sequence[str],
             policy: GuidedToward | None = None) -> GsdtResult:
    """Run the mechanism for a priority multisequence.

    Each entry of the ordering is one stage (``_stage``) probed by the live
    search; one full ``FlowNetwork.check`` runs before the final matching is
    read off. The run records only each stage's probes, which ``render_trace``
    reads unchecked (``solve --trace`` checks no more than ``solve``) and
    ``GsdtResult.stages`` replays and checks. The stage loop is ``serve``,
    which the misreport search also runs on copies of one shared state.

    With no ``policy`` every probe takes the canonical path, the
    lexicographically least shortest one; any augmenting path would do, so
    this only makes runs reproducible. A ``GuidedToward`` target must be a
    feasible matching; otherwise ``FeasibilityError`` is raised before any
    stage runs. Its courses are grouped by the applicant's tie that lists
    them and tried in ascending id: the fast path reads only the probed tie's
    group, where an applicant's target pairs form one component of the
    target's pair-priority order, sorted, so the paths are that order's.
    """
    validate_ordering(instance, ordering)
    net = FlowNetwork(instance)
    guided_order = None
    if policy is not None:
        require_feasible(instance, policy.target)
        guided_order = {}
        for a, c in policy.target.canonical_pairs():  # ascending
            guided_order.setdefault((a, instance.tie_of(a, c)), []).append(c)

    serve(net, ordering, guided_order)
    return GsdtResult(
        instance=instance, ordering=tuple(ordering), matching=net.matching(),
        stage_probes=tuple(net.stage_probes), arc_visits=tuple(net.arc_visits))


def render_trace(result: GsdtResult) -> list[str]:
    """Line-oriented stage trace, read off the record unchecked: the ordering
    gives each stage's applicant, a successful probe's path the course it adds.

    One line per probed tie; a stage whose active tie is already exhausted
    (no probe at all) renders a single line with ``tie=-``. Tie numbers are
    1-based in the rendering.
    """
    lines = []
    for i, (a, probes) in enumerate(zip(result.ordering, result.stage_probes), start=1):
        stage = f"stage={i} applicant={a}"
        if not probes:
            lines.append(f"{stage} tie=- path=FAIL added=none")
        for probe in probes:
            if probe.path is None:
                shown, delta = "FAIL", "none"
            else:
                shown = ",".join(render_node(n) for n in probe.path)
                delta = f"{a},{probe.path[3][1]}"
            lines.append(f"{stage} tie={probe.tie + 1} path={shown} added={delta}")
    return lines


# ----------------------------------------------------------------------
# Deriving a priority ordering that replays a given Pareto optimal matching.
# ----------------------------------------------------------------------

def _pair_priority_order(instance: Instance, matching: Matching) -> list[Pair]:
    """Order the matched pairs so that every pair comes after all pairs it
    weakly envies.

    Build the digraph on matched pairs with an arc from ac to a'c' whenever
    ac weakly envies c' (``weakly_envied``, the verifier's relation), or a'c'
    is another seat of a herself (same applicant, weakly better course): without
    the same-applicant arcs, a seat served too early can absorb capacity an
    earlier-priority pair still needs. Contract strongly connected
    components; lay the components out sinks first; sort pairs inside a
    component for determinism.
    """
    pairs = matching.canonical_pairs()
    ids = {p: i for i, p in enumerate(pairs)}  # ids sort as the pairs do
    adj: list[list[int]] = []
    for a, c in pairs:
        succ = [
            ids[a, c2] for c2 in matching.of_applicant(a)
            if c2 != c and _weakly_prefers_course(instance, a, c2, c)
        ]
        for c2, _ in weakly_envied(instance, matching, a, c):
            succ.extend(ids[a2, c2] for a2 in matching.of_course(c2))
        adj.append(sorted(succ))

    components = strongly_connected_components(adj)
    return [pairs[i] for comp in components for i in sorted(comp)]


def derive_ordering(instance: Instance, pom: Matching) -> PriorityOrdering:
    """Build a priority ordering under which the guided mechanism reproduces
    the given Pareto optimal matching exactly.

    The matched pairs are served in pair-priority order; leftover quota
    copies are appended by applicant id and cannot change the outcome.
    """
    check = envy.is_pareto_optimal(instance, pom)
    if not check:
        raise NotParetoOptimalError(
            "cannot derive an ordering for a dominated matching", check.coalition)
    order = _pair_priority_order(instance, pom)
    sigma = [a for a, _ in order]
    for a in sorted(instance.applicants):
        sigma.extend([a] * (instance.quota[a] - len(pom.of_applicant(a))))
    return tuple(sigma)
