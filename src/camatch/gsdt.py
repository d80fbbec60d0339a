"""Serial dictatorship with ties, run as staged network flow.

Applicants are served one quota unit at a time along a priority multisequence,
one stage each (``_stage``), in a flow network with source -> applicant -> tie
-> course -> sink layers. Augmenting paths reshuffle courses only within a
tie, so nobody ever trades down, and every stage output is Pareto optimal for
the stage quotas.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import NotParetoOptimalError
from .instance import Instance, PriorityOrdering, validate_ordering
from .matching import (
    Matching, Pair, _weakly_prefers_course, require_feasible, weakly_envied)
from .scc import strongly_connected_components

SRC = ("src",)
SNK = ("snk",)
SNAPSHOT_CAP = 64  # states held by one SnapshotCache

Node = tuple


def _app(a: str) -> Node:
    return ("app", a)


def _tie(a: str, t: int) -> Node:
    return ("tie", a, t)


def _crs(c: str) -> Node:
    return ("crs", c)


def render_node(node: Node) -> str:
    if node == SRC:
        return "sigma"
    if node == SNK:
        return "tau"
    if node[0] == "app":
        return node[1]
    if node[0] == "tie":
        return f"{node[1]}:t{node[2] + 1}"
    return node[1]


class FlowNetwork:
    """Mutable flow state. Tie-to-course arcs have capacity 1 and course-to-
    sink arcs capacity q(c); source and tie arc capacities evolve with the
    stages. ``holders[c]`` is the one record of tie-course flow: the arc
    from tie ``(a, t)`` to course ``c`` carries a unit exactly when
    ``(a, t)`` is in ``holders[c]``; matched pairs and residual arcs are
    read off it.

    ``dead`` holds tie and course nodes known not to reach the sink in the
    residual network; they stay dead for the rest of the run. An
    augmentation creates residual arcs only out of nodes on its path, all
    of which reach the sink; its other changes only remove arcs (a full
    course's sink arc), and source and tie capacities act on arcs the
    search never crosses. So no arc from a dead node to a live one ever
    appears."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.cap_src = {a: 0 for a in instance.applicants}
        self.flow_src = {a: 0 for a in instance.applicants}
        self.cap_tie = {
            (a, t): 0
            for a in instance.applicants
            for t in range(len(instance.prefs[a]))
        }
        self.flow_tie = dict.fromkeys(self.cap_tie, 0)
        self.holders: dict[str, set[tuple[str, int]]] = {
            c: set() for c in instance.courses}
        self.flow_snk = {c: 0 for c in instance.courses}
        self.dead: set[Node] = set()

    def matching(self) -> Matching:
        return Matching(
            (a, c) for c, held in self.holders.items() for a, _ in held)

    def augment(self, path: Sequence[Node]) -> None:
        """Push one unit along a source-sink path; tie-course arcs on the
        path toggle, which adds and removes matched pairs."""
        a = path[1][1]
        t = path[2][2]
        self.flow_src[a] += 1
        self.flow_tie[(a, t)] += 1
        for u, v in zip(path[2:], path[3:]):
            if u[0] == "tie":
                held = self.holders[v[1]]
                assert (u[1], u[2]) not in held
                held.add((u[1], u[2]))
            elif v[0] == "tie":
                self.holders[u[1]].remove((v[1], v[2]))
        self.flow_snk[path[-2][1]] += 1

    def check(
        self,
        applicants: Iterable[str] | None = None,
        courses: Iterable[str] | None = None,
    ) -> None:
        """Exact conservation and capacity bounds, node by node.

        Each invariant involves one node and its own arcs, so a check can be
        scoped: ``applicants`` (each with all her ties) and ``courses`` name
        the nodes to check, and either left as ``None`` means all of them.
        Meant for the quiescent state between stages, where additionally
        every applicant-to-tie arc must sit exactly at its capacity (probes
        saturate on success and roll the capacity back on failure).
        """
        inst, holders, flow_tie, cap_tie = self.instance, self.holders, self.flow_tie, self.cap_tie
        for c in inst.courses if courses is None else courses:
            held = holders[c]
            assert len(held) == self.flow_snk[c] <= inst.capacity[c]
            for a, t in held:
                assert c in inst.prefs[a][t]
        for a in inst.applicants if applicants is None else applicants:
            out = 0
            for t, tie in enumerate(inst.prefs[a]):
                key, held = (a, t), 0
                for c in tie:
                    held += key in holders[c]
                assert flow_tie[key] == cap_tie[key] == held
                out += held
            assert 0 <= self.flow_src[a] == out <= self.cap_src[a]


# ----------------------------------------------------------------------
# Path selection policies.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BreadthFirstCanonical:
    """Shortest augmenting path, ties broken toward the lexicographically
    least node sequence. Purely a reproducibility device; any augmenting
    path preserves correctness."""


@dataclass(frozen=True)
class GuidedToward:
    """Prefer direct paths onto the target matching's courses, in the
    target's derived pair-priority order; used to replay a specific
    Pareto optimal matching."""

    target: Matching


CANONICAL = BreadthFirstCanonical()

Policy = BreadthFirstCanonical | GuidedToward


@dataclass
class GsdtState:
    instance: Instance
    network: FlowNetwork
    curr: dict[str, int]
    searches: int = 0
    arc_visits: list[int] = field(default_factory=list)
    stage_probes: list[tuple[ProbeRecord, ...]] = field(default_factory=list)

    def copy(self, instance: Instance) -> GsdtState:
        old, net = self.network, object.__new__(FlowNetwork)
        net.__dict__ = {name: getattr(old, name).copy() for name in (
            "cap_src", "flow_src", "cap_tie", "flow_tie", "flow_snk", "dead")}
        net.instance, net.holders = instance, {c: h.copy() for c, h in old.holders.items()}
        return GsdtState(instance, net, self.curr.copy(), self.searches,
                         self.arc_visits.copy(), self.stage_probes.copy())


def find_augmenting_path(
    state: GsdtState,
    applicant: str,
    tie: int,
    policy: Policy = CANONICAL,
    guided_order: dict[str, list[str]] | None = None,
) -> list[Node] | None:
    """Search the residual network for a source-sink path through the
    applicant's probed tie.

    Any augmenting path must enter through the only unsaturated source and
    tie arcs, so the search starts at the tie node. It first collects the
    region reachable from there over residual arcs: unmatched tie-course
    arcs, course-sink arcs with a free seat, and backward arcs from a course
    to the ties that hold it. If the sink lies outside the region the probe
    fails at once. The region is closed under successors, so the distances
    to the sink found inside it equal those in the whole network, and the
    path is the lexicographically least shortest one of the whole network.
    Dead nodes (``FlowNetwork.dead``) are left out of the region, and a dead
    probed tie fails at once; dead nodes have no distance to the sink, so
    the path is unchanged. A failed probe adds its whole region to the dead
    set, a successful one the region nodes its distance search did not
    reach. Arc inspections inside the region are counted into the state's
    work counters.
    """
    net = state.network
    inst = state.instance
    holders = net.holders
    dead = net.dead
    visits = 0

    def finish(path: list[Node] | None) -> list[Node] | None:
        state.searches += 1
        state.arc_visits.append(visits)
        return path

    # A dead tie has no free course to take directly either.
    start = _tie(applicant, tie)
    if start in dead:
        return finish(None)

    if isinstance(policy, GuidedToward) and guided_order is not None:
        # Every candidate lies in the probed tie, so only that tie can hold it.
        probed = inst.prefs[applicant][tie]
        for c in guided_order.get(applicant, ()):
            visits += 1
            if (
                c in probed
                and (applicant, tie) not in holders[c]
                and net.flow_snk[c] < inst.capacity[c]
            ):
                return finish([SRC, _app(applicant), start, _crs(c), SNK])

    # Residual adjacency of the live region reachable from the probed tie.
    succ: dict[Node, list[Node]] = {}
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        outs = []
        if u[0] == "tie":
            a, t = u[1], u[2]
            for c in inst.prefs[a][t]:
                visits += 1
                if (a, t) not in holders[c]:
                    outs.append(_crs(c))
        elif u[0] == "crs":
            c = u[1]
            visits += 1
            if net.flow_snk[c] < inst.capacity[c]:
                outs.append(SNK)
            for a, t in holders[c]:
                visits += 1
                outs.append(_tie(a, t))
        succ[u] = outs = [v for v in outs if v not in dead]
        for v in outs:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if SNK not in seen:
        dead.update(succ)
        return finish(None)

    # Distance-to-sink by reverse breadth-first search inside the region.
    pred: dict[Node, list[Node]] = {u: [] for u in succ}
    for u, outs in succ.items():
        for v in outs:
            pred[v].append(u)
    dist = {SNK: 0}
    frontier = [SNK]
    while frontier:
        nxt = []
        for v in frontier:
            for u in pred[v]:
                visits += 1
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    dead.update(u for u in succ if u not in dist)

    # Greedy walk: among successors one step closer to the sink, always take
    # the least node key, giving the lexicographically least shortest path.
    path = [SRC, _app(applicant), start]
    node = start
    while node != SNK:
        best = None
        for v in succ[node]:
            visits += 1
            if dist.get(v) == dist[node] - 1 and (best is None or v < best):
                best = v
        assert best is not None
        path.append(best)
        node = best
    return finish(path)


# ----------------------------------------------------------------------
# The mechanism.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeRecord:
    tie: int
    path: tuple[Node, ...] | None


def _stage(net: FlowNetwork, curr: dict[str, int], a: str,
           probe: Callable[[int], Sequence[Node] | None]) -> tuple[ProbeRecord, ...]:
    """The stage rules, shared by the live run and the trace replay: serve
    one quota unit of applicant ``a`` and return the stage's probes.

    Raise her source capacity and probe her ties from the active one,
    ``curr[a]``, onward; ``probe(t)`` gives an augmenting path through tie
    ``t`` or ``None``. A failed probe rolls the tie capacity back and advances
    ``curr[a]``; the first success augments the flow. Then ``FlowNetwork.check``
    runs on the nodes the stage could change: ``a`` and, on success, the
    applicant of every tie and every course on the path.
    """
    net.cap_src[a] += 1
    probes: list[ProbeRecord] = []
    path: Sequence[Node] | None = None
    while path is None and curr[a] < len(net.instance.prefs[a]):
        t = curr[a]
        net.cap_tie[(a, t)] += 1
        path = probe(t)
        probes.append(ProbeRecord(t, tuple(path) if path else None))
        if path is None:
            net.cap_tie[(a, t)] -= 1
            curr[a] += 1
    if path is not None:
        net.augment(path)
    changed = path or ()
    net.check(applicants={a, *(u[1] for u in changed if u[0] == "tie")},
              courses={u[1] for u in changed if u[0] == "crs"})
    return tuple(probes)


@dataclass(frozen=True)
class StageRecord:
    stage: int
    applicant: str
    probes: tuple[ProbeRecord, ...]
    added: Pair | None
    matching: Matching
    curr_after: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class GsdtResult:
    """The final matching and work counters of a run, plus what the run
    recorded to explain itself: each stage's probes.

    ``stages`` and ``capacity_history`` are built on first read and cached.
    ``stages`` replays the recorded paths through ``_stage`` on a fresh
    network, with the full ``FlowNetwork.check`` after every stage, and
    asserts that the rules re-derive the recorded probes, so a record they
    would not produce never renders as a trace. ``capacity_history`` holds
    the source-arc capacities before the first stage and after each one.
    """

    instance: Instance
    ordering: PriorityOrdering
    matching: Matching
    stage_probes: tuple[tuple[ProbeRecord, ...], ...]
    searches: int
    arc_visits: tuple[int, ...]

    @cached_property
    def stages(self) -> tuple[StageRecord, ...]:
        net = FlowNetwork(self.instance)
        curr = {a: 0 for a in self.instance.applicants}
        stages = []
        for i, (a, recorded) in enumerate(zip(self.ordering, self.stage_probes), start=1):
            probes = _stage(net, curr, a, {p.tie: p.path for p in recorded}.get)
            assert probes == recorded, f"stage {i}: the record breaks the stage rules"
            net.check()
            path = probes[-1].path if probes else None
            stages.append(StageRecord(
                stage=i,
                applicant=a,
                probes=probes,
                added=(a, path[3][1]) if path is not None else None,
                matching=net.matching(),
                curr_after=tuple(sorted(curr.items())),
            ))
        return tuple(stages)

    @cached_property
    def capacity_history(self) -> tuple[tuple[int, ...], ...]:
        counts = {a: 0 for a in self.instance.applicants}
        history = [tuple(counts.values())]
        for a in self.ordering:
            counts[a] += 1
            history.append(tuple(counts.values()))
        return tuple(history)


def _serve(state: GsdtState, stages: Sequence[str], policy: Policy,
           guided_order: dict[str, list[str]] | None, offer: Callable = lambda _: None) -> None:
    """The stage loop: one ``_stage`` per entry, probed by the live search.
    ``offer`` sees the state before each stage and after the last."""
    for a in stages:
        offer(state)
        state.stage_probes.append(_stage(
            state.network, state.curr, a,
            lambda t: find_augmenting_path(state, a, t, policy, guided_order)))
    offer(state)


class SnapshotCache:
    """Canonical runs of ``instance`` and ``ordering`` that vary only
    ``applicant``'s list, as one misreport search makes them.

    A run reads her list only at the stage loop's test ``curr[a] <
    len(prefs[a])``, at the probe of tie ``curr[a]``, and in searches that
    enter her ties through courses she holds, which lie in ties she has
    probed. So the state before one of her stages, or after the last, depends
    on her list only through ``read``, the ties she has probed, and
    ``exhausted``, whether she has run out of ties: every list that starts
    with ``read``, and equals it if ``exhausted``, fits that state. Up to
    ``SNAPSHOT_CAP`` states are kept, keyed by ``(read, exhausted)``; the
    least recently used goes first, but never the base state before her first
    stage, which every list fits.
    """

    def __init__(self, instance: Instance, ordering: Sequence[str], applicant: str):
        validate_ordering(instance, ordering)
        if applicant not in instance.quota:
            raise ValueError(f"unknown applicant {applicant!r}")
        self.instance, self.ordering, self.applicant = instance, tuple(ordering), applicant
        # The first run replaces this empty state with the one before her first stage.
        state = GsdtState(instance, FlowNetwork(instance), dict.fromkeys(instance.applicants, 0))
        self.states = OrderedDict({((), False): state})

    def run(self, prefs: Iterable[Iterable[str]]) -> GsdtState:
        """The finished run with ``prefs`` as her list, equal to a fresh
        ``run_gsdt``'s, counters and probes included. A copy of the deepest
        state the list fits (the longest key: keys only grow along a run)
        resumes once her unread ties are shown to hold zeros, no course and no
        dead node, and are rebuilt. The result may be stored: do not change it."""
        a, prefs = self.applicant, tuple(frozenset(tie) for tie in prefs)
        instance = replace(self.instance, prefs={**self.instance.prefs, a: prefs})
        keys = [(prefs, True)] + [(prefs[:n], False) for n in range(len(prefs), -1, -1)]
        key = next(k for k in keys if k in self.states)
        self.states.move_to_end(key)
        cached = self.states[key]
        old, s, state = cached.network, cached.instance, cached.copy(instance)
        for t in range(len(key[0]), len(s.prefs[a])):
            assert old.cap_tie[a, t] == old.flow_tie[a, t] == 0 and _tie(a, t) not in old.dead
            assert not any((a, t) in old.holders[c] for c in s.prefs[a][t])
            del state.network.cap_tie[a, t], state.network.flow_tie[a, t]
        for t in range(len(key[0]), len(prefs)):
            state.network.cap_tie[a, t] = state.network.flow_tie[a, t] = 0
        _serve(state, self.ordering[len(state.stage_probes):], CANONICAL, None, self._offer)
        state.network.check()
        return state

    def _offer(self, state: GsdtState) -> None:
        a, depth = self.applicant, len(state.stage_probes)
        if depth < len(self.ordering) and self.ordering[depth] != a:
            return
        prefs, t, served = state.instance.prefs[a], state.curr[a], state.network.cap_src[a] > 0
        key = (prefs[:t + 1] if served else (), served and t == len(prefs))
        if key not in self.states or len(self.states[key].stage_probes) < depth:
            # A finished run never changes its state again, so that one is kept as is.
            self.states[key] = state if depth == len(self.ordering) else state.copy(state.instance)
            self.states.move_to_end(key)
            if len(self.states) > SNAPSHOT_CAP:
                del self.states[next(k for k in self.states if k != ((), False))]


def run_gsdt(
    instance: Instance,
    ordering: Sequence[str],
    policy: Policy = CANONICAL,
) -> GsdtResult:
    """Run the mechanism for a priority multisequence.

    Each entry of the ordering is one stage (``_stage``) probed by the live
    search; one full ``FlowNetwork.check`` runs before the final matching is
    read off. The run records only each stage's probes; ``GsdtResult.stages``
    replays the trace from them on first read. ``SnapshotCache`` runs many
    lists of one applicant, each resumed from the stages it shares.

    A guided target must be a feasible matching; otherwise
    ``FeasibilityError`` is raised before any stage runs.
    """
    validate_ordering(instance, ordering)
    state = GsdtState(instance, FlowNetwork(instance), dict.fromkeys(instance.applicants, 0))
    guided_order = None
    if isinstance(policy, GuidedToward):
        require_feasible(instance, policy.target)
        guided_order = {}
        for a, c in _pair_priority_order(instance, policy.target):
            guided_order.setdefault(a, []).append(c)

    _serve(state, ordering, policy, guided_order)
    state.network.check()
    return GsdtResult(
        instance=instance, ordering=tuple(ordering), matching=state.network.matching(),
        stage_probes=tuple(state.stage_probes), searches=state.searches,
        arc_visits=tuple(state.arc_visits))


def render_trace(result: GsdtResult) -> list[str]:
    """Line-oriented stage trace.

    One line per probed tie; a stage whose active tie is already exhausted
    (no probe at all) renders a single line with ``tie=-``. Tie numbers are
    1-based in the rendering.
    """
    lines = []
    for rec in result.stages:
        if not rec.probes:
            lines.append(
                f"stage={rec.stage} applicant={rec.applicant} tie=- "
                f"path=FAIL added=none"
            )
            continue
        for probe in rec.probes:
            if probe.path is None:
                shown, delta = "FAIL", "none"
            else:
                shown = ",".join(render_node(n) for n in probe.path)
                delta = f"{rec.added[0]},{rec.added[1]}"
            lines.append(
                f"stage={rec.stage} applicant={rec.applicant} "
                f"tie={probe.tie + 1} path={shown} added={delta}"
            )
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

    components = strongly_connected_components(range(len(pairs)), adj)
    return [pairs[i] for comp in components for i in sorted(comp)]


def derive_ordering(instance: Instance, pom: Matching) -> PriorityOrdering:
    """Build a priority ordering under which the guided mechanism reproduces
    the given Pareto optimal matching exactly.

    The matched pairs are served in pair-priority order; leftover quota
    copies are appended by applicant id and cannot change the outcome.
    """
    from .envy import is_pareto_optimal

    check = is_pareto_optimal(instance, pom)
    if not check:
        raise NotParetoOptimalError(
            "cannot derive an ordering for a dominated matching", check.coalition)
    order = _pair_priority_order(instance, pom)
    sigma = [a for a, _ in order]
    for a in sorted(instance.applicants):
        sigma.extend([a] * (instance.quota[a] - len(pom.of_applicant(a))))
    return tuple(sigma)
