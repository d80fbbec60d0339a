"""Serial dictatorship with ties, run as staged network flow.

Applicants are served one quota unit at a time along a priority multisequence,
one stage each (``_stage``), in a flow network with source -> applicant -> tie
-> course -> sink layers. Augmenting paths reshuffle courses only within a
tie, so nobody ever trades down, and every stage output is Pareto optimal for
the stage quotas.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from . import envy
from .errors import NotParetoOptimalError
from .instance import Instance, PriorityOrdering, validate_ordering
from .matching import Matching, Pair, require_feasible

SRC = ("src",)
SNK = ("snk",)

Node = tuple
Entry = tuple[int, int, tuple | None]  # a stage: first tie probed, tie reached, path


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
    ``curr``, the arc inspections of each probe that searched
    (``arc_visits``) and the compact ``record``, one entry per stage.
    Tie-to-course arcs have capacity 1, course-to-sink arcs q(c); ``cap_tie``
    has entries only for probed ties. ``holders[c]`` is the only record of
    flow: tie ``(a, t)`` sends ``c`` a unit exactly when ``(a, t)`` is in it,
    and the sink arc of ``c`` carries ``len(holders[c])`` units. ``free``
    counts the seats left; once it is 0 every probe fails.
    ``guided_order`` is the policy, and the search reads it only there.

    ``dead`` holds tie and course nodes known not to reach the sink; they
    stay dead. A failed search marks every node it reached, and ``augment``
    a tie it fills. An augmentation adds residual arcs only out of nodes on
    its path, which all reach the sink, and otherwise only removes arcs, so
    no arc from a dead node to a live one appears. A full tie has none out."""

    def __init__(self, instance: Instance, policy: GuidedToward | None = None):
        self.instance, self.guided_order = instance, None
        if policy is not None:  # FeasibilityError before any stage runs
            require_feasible(instance, policy.target)
            self.guided_order = order = {}
            for a, c in policy.target.canonical_pairs():  # ascending
                order.setdefault((a, instance.tie_of(a, c)), []).append(c)
        self.curr = dict.fromkeys(instance.applicants, 0)
        self.cap_src = dict.fromkeys(instance.applicants, 0)
        self.cap_tie: defaultdict[tuple[str, int], int] = defaultdict(int)
        self.holders: dict[str, set[tuple[str, int]]] = {c: set() for c in instance.courses}
        self.free = sum(instance.capacity.values())
        self.dead: set[Node] = set()
        self.arc_visits: list[int] = []
        self.record: list[Entry] = []

    def copy(self, instance: Instance) -> FlowNetwork:
        """An independent copy of the state, read against ``instance``."""
        new = object.__new__(FlowNetwork)
        new.__dict__ = {name: getattr(self, name).copy() for name in (
            "curr", "cap_src", "cap_tie", "dead", "arc_visits", "record")}
        new.instance, new.free, new.guided_order = instance, self.free, self.guided_order
        new.holders = {c: held.copy() for c, held in self.holders.items()}
        return new

    def live_courses(self) -> set[str]:
        """The courses that reach the sink in the residual network; no later
        stage gives a course outside it to anyone. Between stages a path
        crosses a tie from a course it holds to one it lists and does not
        hold, so one search over courses, from those with a free seat, reads
        only the ties in ``holders``."""
        inst, holders = self.instance, self.holders
        feeds: defaultdict[str, list[str]] = defaultdict(list)  # d -> courses live once d is
        for c, keys in holders.items():
            for a, t in keys:
                for d in inst.prefs[a][t]:
                    if (a, t) not in holders[d]:
                        feeds[d].append(c)
        live = {c for c in inst.courses if len(holders[c]) < inst.capacity[c]}
        queue = list(live)
        for d in queue:  # the queue grows as the loop reads it
            fresh = set(feeds[d]) - live
            live |= fresh
            queue += fresh
        return live

    def matching(self) -> Matching:
        return Matching((a, c) for c, held in self.holders.items() for a, _ in held)

    def augment(self, path: Sequence[Node]) -> None:
        """Push one unit along a source-sink path, toggling its tie-course
        arcs. The probed tie, the path's first, is marked dead once its
        capacity (the courses it holds, ``check``) is its size."""
        for k in range(2, len(path) - 2, 2):  # path[k] takes path[k + 1] from path[k + 2]
            held, taker, giver = self.holders[path[k + 1][1]], path[k], path[k + 2]
            assert (taker[1], taker[2]) not in held
            held.add((taker[1], taker[2]))
            if giver[0] == "tie":  # not the sink
                held.remove((giver[1], giver[2]))
        self.free -= 1
        _, a, t = path[2]
        if self.cap_tie.get((a, t)) == len(self.instance.prefs[a][t]):
            self.dead.add(path[2])

    def check(self, a: str | None = None, probed: range = range(0),
              path: Sequence[Node] = ()) -> None:
        """Capacity bounds between stages, node by node; ``holders`` is the
        only record of flow, so every course conserves it. A stage's check,
        ``check(a, probed, path)``, walks the courses on its path, then the
        ties of ``a`` in ``probed`` and the path's other ties. The full check
        reads every course, reconciles ``free`` with ``holders``, counts held
        units once off them against the nonzero ``cap_tie`` entries, and
        bounds each applicant's out by ``cap_src``. No check adds an entry."""
        inst, holders, cap_tie = self.instance, self.holders, self.cap_tie
        for k in inst.courses if a is None else range(3, len(path), 2):
            c = k if a is None else path[k][1]
            held = holders[c]
            assert len(held) <= inst.capacity[c]
            for b, s in held:
                assert c in inst.prefs[b][s]
        # probed[j], j < 0, sits at position 4 + 2j, before the path's other ties at 4, 6, ...
        for k in range(4 - 2 * len(probed), max(len(path) - 1, 4), 2):
            key = (a, probed[k // 2 - 2]) if k < 4 else path[k][1:]
            held = 0
            for c in inst.prefs[key[0]][key[1]]:
                held += key in holders[c]
            assert cap_tie.get(key, 0) == held
        if a is None:
            assert self.free == sum(inst.capacity[c] - len(holders[c]) for c in inst.courses)
            counted, out = {}, dict.fromkeys(inst.applicants, 0)
            for held in holders.values():
                for key in held:
                    counted[key] = counted.get(key, 0) + 1
                    out[key[0]] += 1
            assert counted == {key: n for key, n in cap_tie.items() if n}
            assert all(n <= self.cap_src[a] for a, n in out.items())


@dataclass(frozen=True)
class GuidedToward:
    """Prefer direct paths onto the target matching's courses in the probed
    tie, ascending; used to replay a Pareto optimal matching. They form one
    component of the target's pair-priority order, sorted, so paths match."""

    target: Matching


def find_augmenting_path(net: FlowNetwork, applicant: str, tie: int) -> list[Node] | None:
    """Search the residual network for a path from the applicant's probed
    tie to the sink, breadth-first over residual arcs (unmatched tie-course
    arcs, course-sink arcs with a free seat, backward arcs from a course to
    its holders), successors ascending, a node's parent the first to reach
    it: the lexicographically least shortest path. Dead nodes are skipped.
    A dead probed tie or a full network fails at once (0 visits), as does an
    empty first level, the tie's live courses it does not hold (|tie|
    visits; the tie is dead). A level-one course with a free seat is the
    direct path; else the level seeds the search. Visits go to
    ``net.arc_visits``: |tie| for a tie expanded, 1 + |holders| for a
    course. ``net.guided_order``, the policy, is tried first, one visit per
    course: its first course with a free seat that the tie does not hold wins."""
    inst, holders, dead, visits = net.instance, net.holders, net.dead, 0
    # A dead tie has no free course to take directly either.
    start, key = ("tie", applicant, tie), (applicant, tie)
    if start in dead or not net.free:
        net.arc_visits.append(visits)
        return None

    if (order := net.guided_order) is not None:
        # Every candidate lies in the probed tie, so only that tie can hold it.
        for c in order.get(key, ()):
            visits += 1
            if key not in holders[c] and len(holders[c]) < inst.capacity[c]:
                net.arc_visits.append(visits)
                return [SRC, ("app", applicant), start, ("crs", c), SNK]

    courses = inst.prefs[applicant][tie]
    visits += len(courses)
    level: list[Node] = []  # the first level, then the queue
    for c in courses:
        if key not in holders[c] and (u := ("crs", c)) not in dead:
            level.append(u)
    if not level:
        dead.add(start)
        net.arc_visits.append(visits)
        return None
    level.sort()
    direct = visits
    for u in level:  # counted again below when none is free
        direct += 1 + (taken := len(holders[u[1]]))
        if taken < inst.capacity[u[1]]:
            net.arc_visits.append(direct)
            return [SRC, ("app", applicant), start, u, SNK]

    # Breadth-first search over live residual arcs, successors in ascending
    # key order; the sink's key sorts first, so a free course ends it at once.
    parent: dict[Node, Node | None] = dict.fromkeys(level, start)
    parent[start] = None
    for u in level:  # the queue grows as the loop reads it
        outs: list[Node] = []  # the node's new live successors
        if u[0] == "tie":
            key, courses = u[1:], inst.prefs[u[1]][u[2]]
            visits += len(courses)
            for c in courses:
                if key not in holders[c] and (v := ("crs", c)) not in parent and v not in dead:
                    outs.append(v)
        else:
            held = holders[u[1]]
            visits += 1 + len(held)
            if len(held) < inst.capacity[u[1]]:
                break
            for a, t in held:
                if (v := ("tie", a, t)) not in parent and v not in dead:
                    outs.append(v)
        outs.sort()
        for v in outs:
            parent[v] = u
        level += outs
    else:  # no free course is reachable
        dead.update(parent)
        net.arc_visits.append(visits)
        return None
    net.arc_visits.append(visits)
    path, node = [SNK], u
    while node is not None:
        path.append(node)
        node = parent[node]
    return [SRC, ("app", applicant), *reversed(path)]


# ----------------------------------------------------------------------
# The mechanism.
# ----------------------------------------------------------------------

def _stage(net: FlowNetwork, a: str) -> None:
    """The stage rules: serve one quota unit of ``a``, raising her source
    capacity and probing her ties from ``net.curr[a]`` on. A failed probe
    rolls the tie capacity back and advances ``curr[a]``; the first success
    augments. ``net.record`` gains (first tie probed, tie reached, path or
    ``None``), then the stage's ``FlowNetwork.check`` (not under ``-O``)
    runs; her bound ``out <= cap_src`` is left to the full check. With no
    free seat her remaining ties fail unprobed: the entry is (first, her tie
    count, ``None``), and only ``cap_src[a]`` and ``curr[a]`` change."""
    net.cap_src[a] += 1
    first, ties = net.curr[a], len(net.instance.prefs[a])
    if not net.free:
        net.curr[a] = ties
        net.record.append((first, ties, None))
        return
    cap_tie, t, path = net.cap_tie, first, ()
    while t < ties:
        cap_tie[a, t] += 1
        if path := find_augmenting_path(net, a, t) or ():
            net.augment(path)
            break
        cap_tie[a, t] -= 1
        t += 1
    net.curr[a] = t
    net.record.append((first, t, tuple(path) or None))
    if __debug__:  # the probed ties, then the ties and the courses on the path
        net.check(a, range(first, t + bool(path)), path)


@dataclass(frozen=True)
class StageRecord:
    """One stage as ``GsdtResult.stages`` served it again: its record
    ``entry``, its applicant's tie pointer ``curr`` after it and its
    ``delta``, the pairs its path adds and removes. ``run`` is the list of
    every record of the read, shared by them all; ``matching`` applies the
    deltas of its records up to this one, built on first read."""

    stage: int
    applicant: str
    entry: Entry
    run: Sequence[StageRecord] = field(repr=False, compare=False)

    @property
    def curr(self) -> int:
        return self.entry[1]

    @property
    def delta(self) -> tuple[list[Pair], list[Pair]]:
        path = self.entry[2] or ()
        return ([(u[1], c[1]) for u, c in zip(path[2::2], path[3::2])],
                [(u[1], c[1]) for c, u in zip(path[3::2], path[4::2]) if u[0] == "tie"])

    @cached_property
    def matching(self) -> Matching:
        pairs: set[Pair] = set()
        for added, removed in (stage.delta for stage in self.run[:self.stage]):
            pairs.difference_update(removed)  # a path adds no pair it removes
            pairs.update(added)
        return Matching(pairs)


@dataclass(frozen=True)
class GsdtResult:
    """The final matching and the compact record of a run (``_stage``),
    with the arc inspections of each probe that searched (``visits``) and
    the run's ``policy``. ``arc_visits`` (0 per probe on a full network) and
    ``searches`` are views of the record. ``stages``, built on first read,
    serves the run again one ``serve`` per stage on a fresh network, and
    raises ``AssertionError``, under ``-O`` too, unless the record, the
    ``matching`` and the ``visits`` are the served ones."""

    instance: Instance
    ordering: PriorityOrdering
    matching: Matching
    record: tuple[Entry, ...]
    visits: tuple[int, ...]
    policy: GuidedToward | None = None

    @property
    def searches(self) -> int:
        return sum(t - first + (path is not None) for first, t, path in self.record)

    @cached_property
    def arc_visits(self) -> tuple[int, ...]:
        # The probes without an entry all come last: once full, a network stays full.
        return self.visits + (0,) * (self.searches - len(self.visits))

    @cached_property
    def stages(self) -> tuple[StageRecord, ...]:
        net, stages = FlowNetwork(self.instance, self.policy), []
        for i, (a, entry) in enumerate(zip(self.ordering, self.record), start=1):
            serve(net, (a,))
            if net.record[-1] != entry:
                raise AssertionError(f"stage {i}: the record breaks the stage rules")
            stages.append(StageRecord(i, a, entry, stages))
        if len(self.record) != len(self.ordering):  # stage k is the first missing or extra
            raise AssertionError(f"stage {len(stages) + 1}: the record breaks the stage rules")
        for name, served in ("matching", net.matching()), ("visits", tuple(net.arc_visits)):
            if getattr(self, name) != served:
                raise AssertionError(f"{name}: not what the replay served")
        return tuple(stages)


def serve(net: FlowNetwork, stages: Sequence[str]) -> None:
    """The stage loop: one ``_stage`` per entry, then the full check."""
    for a in stages:
        _stage(net, a)
    if __debug__:
        net.check()


def run_gsdt(instance: Instance, ordering: Sequence[str],
             policy: GuidedToward | None = None) -> GsdtResult:
    """Run the mechanism for a priority multisequence, one ``_stage`` per
    entry through ``serve``, keeping only the compact record, which
    ``render_trace`` reads unchecked and ``GsdtResult.stages`` checks.

    With no ``policy`` every probe takes the canonical path, the
    lexicographically least shortest one, so runs are reproducible. A
    ``GuidedToward`` target must be a feasible matching, or ``FlowNetwork``
    raises ``FeasibilityError`` before any stage runs."""
    validate_ordering(instance, ordering)
    net = FlowNetwork(instance, policy)
    serve(net, ordering)
    return GsdtResult(instance=instance, ordering=tuple(ordering), matching=net.matching(),
                      record=tuple(net.record), visits=tuple(net.arc_visits), policy=policy)


def render_trace(result: GsdtResult) -> Iterator[str]:
    """Line-oriented stage trace, read off the compact record unchecked:
    one line per probed tie, 1-based, and ``tie=-`` for a stage that probes
    none; the ordering gives each stage's applicant, a path the pair it adds."""
    for i, (a, (first, t, path)) in enumerate(zip(result.ordering, result.record), start=1):
        stage = f"stage={i} applicant={a}"
        if first == t and path is None:
            yield f"{stage} tie=- path=FAIL added=none"
        for s in range(first, t):
            yield f"{stage} tie={s + 1} path=FAIL added=none"
        if path is not None:
            shown = ",".join(render_node(n) for n in path)
            yield f"{stage} tie={t + 1} path={shown} added={a},{path[3][1]}"


# ----------------------------------------------------------------------
# Deriving a priority ordering that replays a given Pareto optimal matching.
# ----------------------------------------------------------------------

def derive_ordering(instance: Instance, pom: Matching) -> PriorityOrdering:
    """A priority ordering under which the guided mechanism reproduces the
    Pareto optimal matching exactly: its pairs in pair-priority order, then
    the leftover quota copies by applicant id, which change nothing."""
    check = envy.is_pareto_optimal(instance, pom)
    if not check:
        raise NotParetoOptimalError(
            "cannot derive an ordering for a dominated matching", check.coalition)
    sigma = [a for a, _ in envy._pair_priority_order(instance, pom)]
    for a in sorted(instance.applicants):
        if left := instance.quota[a] - len(pom.of_applicant(a)):
            sigma += [a] * left
    return tuple(sigma)
