"""Pareto-optimality verification through the extended envy graph.

The graph has one node per applicant, per course, and per matched pair.
Exposed courses point at every non-course node with weight 0; exposed
applicants point at acceptable unheld courses (and the pairs holding them)
with weight -1; a pair node ac points at every course c' the applicant would
weakly trade c for (and at the pairs holding c'), weight 0 on indifference
and -1 on strict envy. The matching is Pareto optimal exactly when no
negative-cost cycle exists.

Nodes are numbered in the sort order of their tagged tuples, so comparing
ids compares nodes. Every stored arc enters a hub: one per course lists the
course and its holders, and one fan hub, shared by every exposed course,
lists every applicant and pair. So |E| is C + A + 2P hub arcs, one arc per
exposed course, per (exposed applicant, unheld acceptable course) and per
(pair, weakly envied course), where the expanded graph repeats each arc into
a hub once per node the hub lists.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Mapping, Sequence

from .errors import CoalitionError
from .instance import Instance
from .matching import (
    CoalitionKind,
    ImprovingCoalition,
    Matching,
    _sequence_error,
    _strictly_prefers_course,
    coalition_error,
    is_exposed_applicant,
    is_exposed_course,
    require_feasible,
    satisfy_coalition,
    weakly_envied,
)
from .scc import strongly_connected_components

# Nodes are tagged tuples: ("a", applicant), ("c", course), ("p", applicant, course).
Node = tuple
Arc = tuple[Node, Node, int]


@dataclass(frozen=True)
class EnvyGraph:
    """The extended envy graph on int ids, stored real -> hub -> real.

    Real node ``i < len(hub_of)`` is ``node(i)``: applicants, courses, then
    matched ``pairs``, each sorted. Hub ``len(hub_of) + k`` lists
    ``courses[k]`` and then its holders, ascending; ``hub_of[i]`` is the hub
    listing real node ``i`` (-1 for an applicant). The last hub, the fan,
    lists every applicant and pair. A real node's ``out`` holds only hubs:
    the fan for an exposed course, else the hubs it envies, unordered.
    Arc ``i -> j`` weighs -1 if ``hub_of[j] in strict[i]``, else 0.
    ``nodes``, the expanded ascending ``succ`` and ``arcs`` are views derived
    on first read; the verdict path reads none of them."""

    applicants: tuple[str, ...]
    courses: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    out: list[Sequence[int]]
    strict: list[Collection[int]]
    hub_of: list[int]

    def node(self, i: int) -> Node:
        a, c = len(self.applicants), len(self.courses)
        if i < a:
            return ("a", self.applicants[i])
        return ("c", self.courses[i - a]) if i < a + c else ("p", *self.pairs[i - a - c])

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(map(self.node, range(len(self.hub_of))))

    @cached_property
    def succ(self) -> list[Sequence[int]]:
        comp = dict.fromkeys(range(len(self.out)), 0)
        return [_expanded(self, i, comp, 0) for i in range(len(self.hub_of))]

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """All expanded arcs as (tail, head, weight), in canonical order."""
        n = self.nodes
        return tuple((n[u], n[v], -1 if self.hub_of[v] in self.strict[u] else 0)
                     for u, outs in enumerate(self.succ) for v in outs)


def _expanded(graph: EnvyGraph, i: int, comp: Mapping[int, int], cc: int) -> Sequence[int]:
    """Real node ``i``'s successors, ascending: the lists of its hubs in
    component ``cc``; a hub outside lists no node inside."""
    return sorted(v for h in graph.out[i] if comp[h] == cc for v in graph.out[h])


@dataclass(frozen=True)
class CycleWitness:
    """A simple negative-cost cycle; consecutive nodes (wrapping around) are
    joined by arcs of the graph."""

    nodes: tuple[Node, ...]
    weight: int


def build_envy_graph(instance: Instance, matching: Matching) -> EnvyGraph:
    """Construct the extended envy graph of a feasible matching."""
    require_feasible(instance, matching)
    applicants, courses = tuple(sorted(instance.applicants)), tuple(sorted(instance.courses))
    pairs = tuple(matching.canonical_pairs())
    first_pair = len(applicants) + len(courses)
    size = first_pair + len(pairs)
    hub = {c: k for k, c in enumerate(courses, size)}
    hub_of = [-1] * len(applicants) + list(hub.values()) + [hub[c] for _, c in pairs]
    out: list[Sequence[int]] = [()] * size + [[k] for k in range(len(applicants), first_pair)]
    for k in range(first_pair, size):
        out[hub_of[k]].append(k)  # type: ignore[attr-defined]
    strict: list[Collection[int]] = [range(size, len(out))] * len(applicants) + [()] * len(courses)

    # Exposed courses reach every non-course node at cost 0, through the fan hub.
    fan = len(out)
    out.append([*range(len(applicants)), *range(first_pair, size)])
    for k, c in enumerate(courses, len(applicants)):
        if is_exposed_course(instance, matching, c):
            out[k] = [fan]

    # Exposed applicants envy every acceptable course they do not hold, and
    # the pairs holding it (never their own).
    for k, a in enumerate(applicants):
        if is_exposed_applicant(instance, matching, a):
            out[k] = [hub[c] for c in instance.acceptable(a) - matching.of_applicant(a)]

    # A pair node ac reaches each course it weakly envies, and the pairs
    # holding it; cost 0 within the same tie, -1 above it.
    for k, (a, c) in enumerate(pairs, first_pair):
        envied = [(hub[c2], w) for c2, w in weakly_envied(instance, matching, a, c)]
        out[k] = [h for h, _ in envied]
        strict.append({h for h, w in envied if w})

    return EnvyGraph(applicants, courses, pairs, out, strict, hub_of)


def find_negative_cycle(graph: EnvyGraph) -> CycleWitness | None:
    """Find a negative-cost cycle from the strongly connected components.

    Arcs weigh 0 or -1, so a negative cycle exists exactly when some -1 arc
    has both ends in one component. Hubs change no reachability between real
    nodes, so Tarjan on the stored graph gives the expanded graph's
    components. The first -1 arc in canonical order is closed by a
    breadth-first shortest path inside its component, from head back to tail,
    expanding each dequeued node's successors in ascending order until the
    tail has its parent. The witness starts at the arc's tail and is simple
    and deterministic. O(V + E) on the stored graph, plus the hubs expanded.
    """
    out, strict, size = graph.out, graph.strict, len(graph.hub_of)
    components = strongly_connected_components(range(len(out)), out)
    comp = {v: i for i, members in enumerate(components) for v in members}
    for tail in range(size):
        # No arc is a loop, so a node alone in its component closes no cycle. A
        # hub in the component lists nodes in it; the least is its least head.
        cc = comp[tail]
        if strict[tail] and len(components[cc]) > 1:
            heads = [next(v for v in out[h] if comp[v] == cc)
                     for h in out[tail] if h in strict[tail] and comp[h] == cc]
            if heads:
                head = min(heads)
                break
    else:
        return None
    parent = [-1] * size
    parent[head] = head
    queue = [head]
    for x in queue:  # breadth-first: the loop also visits appended nodes
        for y in _expanded(graph, x, comp, cc):
            if parent[y] < 0 and comp[y] == cc:
                parent[y] = x
                queue.append(y)
        if parent[tail] >= 0:
            break
    back = [tail]  # the BFS path read backwards, tail to head
    while back[-1] != head:
        back.append(parent[back[-1]])
    cycle = [tail] + back[:0:-1]  # tail, head, ..., tail's BFS parent
    total = -sum(graph.hub_of[v] in strict[u] for u, v in zip(cycle, cycle[1:] + cycle[:1]))
    return CycleWitness(tuple(map(graph.node, cycle)), total)


# ----------------------------------------------------------------------
# From a witness cycle to a genuine improving coalition.
# ----------------------------------------------------------------------

Element = tuple[str, str]  # ("course"|"applicant", id)


@dataclass(frozen=True)
class Pseudocoalition:
    """A coalition-shaped sequence in which elements may repeat."""

    kind: CoalitionKind
    applicants: tuple[str, ...]
    courses: tuple[str, ...]

    def elements(self) -> list[Element]:
        coalition = ImprovingCoalition(self.kind, self.applicants, self.courses)
        return list(coalition.sequence())


def pseudocoalition_error(
    instance: Instance, matching: Matching, pseudo: Pseudocoalition
) -> str | None:
    return _sequence_error(instance, matching, pseudo.kind, pseudo.applicants,
                           pseudo.courses, allow_repeats=True)


def _first_repeat(elements: list[Element]) -> tuple[int, int] | None:
    first_pos: dict[Element, int] = {}
    for pos, el in enumerate(elements):
        if el in first_pos:
            return first_pos[el], pos
        first_pos[el] = pos
    return None


def reduce_pseudocoalition(
    instance: Instance, matching: Matching, pseudo: Pseudocoalition
) -> ImprovingCoalition:
    """Shrink a pseudocoalition to a genuine improving coalition.

    Repeats are repaired one at a time, earliest second occurrence first;
    every repair strictly shortens the sequence, so at most its original
    length many rounds run. A repaired prefix/suffix seam always inherits
    the membership and preference conditions it needs from the original
    sequence, case by case.
    """
    error = pseudocoalition_error(instance, matching, pseudo)
    if error is not None:
        raise CoalitionError(f"not a pseudocoalition: {error}")

    kind, elements = pseudo.kind, pseudo.elements()

    rounds = len(elements)  # every repair strictly shortens the sequence
    while True:
        repeat = _first_repeat(elements)
        if repeat is None:
            break
        rounds -= 1
        if rounds < 0:  # pragma: no cover
            raise AssertionError("pseudocoalition reduction failed to shrink")
        x, y = repeat
        role, a = elements[x]
        if role == "course":
            if x == 0 and kind is not CoalitionKind.AUGMENTING_PATH:
                # Repeated leading course: the prefix up to just before the
                # second occurrence closes into a cycle.
                elements = elements[:y]
                kind = CoalitionKind.CYCLIC
            else:
                # Splice out everything between the two occurrences.
                del elements[x:y]
        else:
            if x == 0:
                # Leading applicant of an augmenting path seen again: she can
                # aim directly at the course after the second occurrence.
                elements = [elements[0]] + elements[y + 1:]
            else:
                c_after_x = elements[x + 1][1]
                c_before_y = elements[y - 1][1]
                if _strictly_prefers_course(instance, a, c_after_x, c_before_y):
                    # The stretch between the occurrences closes into a cycle
                    # entered at the course before the second occurrence.
                    elements = [elements[y - 1]] + elements[x:y - 1]
                    kind = CoalitionKind.CYCLIC
                elif y == len(elements) - 1:
                    # Trailing applicant of a cycle: cut the tail, the head
                    # still closes (she weakly gains the leading course).
                    elements = elements[:x + 1]
                else:
                    # Skip the stretch; the course after the second occurrence
                    # is weakly better than the one before the first.
                    elements = elements[:x + 1] + elements[y + 1:]

    coalition = ImprovingCoalition(
        kind, tuple(x for role, x in elements if role == "applicant"),
        tuple(x for role, x in elements if role == "course"))
    error = coalition_error(instance, matching, coalition)
    if error is not None:  # pragma: no cover - the reduction preserves validity
        raise CoalitionError(f"reduction produced an invalid coalition: {error}")
    return coalition


def _unroll_cycle(
    instance: Instance, matching: Matching, cycle: list[Node], weights: list[int]
) -> Pseudocoalition:
    """Rewrite a negative envy-graph cycle as a pseudocoalition; ``weights[i]``
    is the weight of the arc leaving ``cycle[i]``."""
    i = weights.index(-1)  # the first strict arc
    if not any(node[0] == "c" for node in cycle):
        # Pure pair-node cycle: rotate the strict arc to the front and read
        # off a cyclic sequence.
        pairs = cycle[i:] + cycle[:i]
        return Pseudocoalition(CoalitionKind.CYCLIC, tuple(p[1] for p in pairs),
                               tuple(p[2] for p in pairs))

    # Shorten around the strict arc: from its head, walk to the first course
    # node; that course is exposed, so it closes back to the tail directly.
    # The result has exactly one course node.
    u = cycle[i]
    ahead = cycle[i + 1:] + cycle[:i + 1]
    j = next(k for k, node in enumerate(ahead) if node[0] == "c")
    course, middle = ahead[j][1], ahead[:j]  # middle: the pair nodes on the way

    if u[0] == "a":
        applicants = (u[1],) + tuple(p[1] for p in middle)
        courses = tuple(p[2] for p in middle) + (course,)
        return Pseudocoalition(CoalitionKind.AUGMENTING_PATH, applicants, courses)

    pairs = [u] + middle
    applicants = tuple(p[1] for p in pairs)
    held = tuple(p[2] for p in pairs)
    if is_exposed_applicant(instance, matching, applicants[0]):
        # Her strict envy does not need the trade-away: she has a free slot.
        return Pseudocoalition(CoalitionKind.AUGMENTING_PATH, applicants, held[1:] + (course,))
    return Pseudocoalition(CoalitionKind.ALTERNATING_PATH, applicants, held + (course,))


def extract_improving_coalition(
    instance: Instance, matching: Matching, witness: CycleWitness
) -> ImprovingCoalition:
    """Turn a negative-cycle witness into a valid improving coalition."""
    graph = build_envy_graph(instance, matching)
    return _coalition_from_witness(instance, matching, graph, witness)


def _coalition_from_witness(
    instance: Instance, matching: Matching, graph: EnvyGraph, witness: CycleWitness
) -> ImprovingCoalition:
    """Validate the witness against ``graph``, then unroll and reduce it."""
    cycle = list(witness.nodes)
    if not cycle:
        raise CoalitionError("empty witness cycle")
    weights, ids = [], range(len(graph.hub_of))
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        try:  # ids follow the tagged order, so a binary search finds them
            i, j = (bisect_left(ids, x, key=graph.node) for x in (u, v))
            found = (graph.node(i), graph.node(j)) == (u, v)
        except (TypeError, IndexError):  # incomparable, or past the last node
            found = False
        # Every arc enters a hub: a course's hub or, from a course, the fan.
        if not found or not any(j in graph.out[h] for h in graph.out[i]):
            raise CoalitionError(f"witness uses a non-arc {u} -> {v}")
        weights.append(-1 if graph.hub_of[j] in graph.strict[i] else 0)
    if sum(weights) >= 0:
        raise CoalitionError("witness cycle is not negative")
    pseudo = _unroll_cycle(instance, matching, cycle, weights)
    return reduce_pseudocoalition(instance, matching, pseudo)


@dataclass(frozen=True)
class ParetoCheck:
    """Verdict of the verifier, with a certificate when negative."""

    is_optimal: bool
    coalition: ImprovingCoalition | None = None
    dominating: Matching | None = None

    def __bool__(self) -> bool:
        return self.is_optimal


def is_pareto_optimal(instance: Instance, matching: Matching) -> ParetoCheck:
    """Decide Pareto optimality; on failure ship an improving coalition and
    the strictly dominating matching obtained by satisfying it. A positive
    verdict is kept on the matching for this ``instance`` object (both are
    immutable) and returned again building nothing; a negative one never is."""
    if matching._optimal_in is instance:
        return ParetoCheck(True)
    graph = build_envy_graph(instance, matching)
    witness = find_negative_cycle(graph)
    if witness is None:
        matching._optimal_in = instance
        return ParetoCheck(True)
    coalition = _coalition_from_witness(instance, matching, graph, witness)
    return ParetoCheck(False, coalition, satisfy_coalition(instance, matching, coalition))
