"""Pareto-optimality verification through the extended envy graph.

The graph has one node per applicant, per course, and per matched pair.
Exposed courses point at every non-course node with weight 0; exposed
applicants point at acceptable unheld courses (and the pairs holding them)
with weight -1; a pair node ac points at every course c' the applicant would
weakly trade c for (and at the pairs holding c'), weight 0 on indifference
and -1 on strict envy. The matching is Pareto optimal exactly when no
negative-cost cycle exists.

Nodes are numbered in the sort order of their tagged tuples, so comparing
ids compares nodes. Each node keeps an ascending successor list and the set
of its -1 heads, so walking the nodes and then their successors gives the
arcs in canonical (sorted) order without a sort. All exposed courses share
one fan-out list, and Tarjan runs on the int lists directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Sequence

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
    """The extended envy graph on int ids: node ``i`` is ``nodes[i]`` and
    ``succ[i]`` lists its successors in ascending order. Arc ``i -> j``
    weighs -1 when ``j in strict[i]`` and 0 otherwise; applicant nodes share
    the range of all ids, since all their arcs weigh -1, and pair nodes keep
    the set of their -1 heads. ``arcs`` and ``weights()`` are the tagged
    view, derived on first read."""

    nodes: tuple[Node, ...]
    succ: list[Sequence[int]]
    strict: list[Collection[int]]

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """All arcs as (tail, head, weight), in canonical order."""
        n = self.nodes
        return tuple((n[u], n[v], -1 if v in self.strict[u] else 0)
                     for u, outs in enumerate(self.succ) for v in outs)

    def weights(self) -> dict[tuple[Node, Node], int]:
        return {(u, v): w for u, v, w in self.arcs}


@dataclass(frozen=True)
class CycleWitness:
    """A simple negative-cost cycle; consecutive nodes (wrapping around) are
    joined by arcs of the graph."""

    nodes: tuple[Node, ...]
    weight: int


def build_envy_graph(instance: Instance, matching: Matching) -> EnvyGraph:
    """Construct the extended envy graph of a feasible matching."""
    require_feasible(instance, matching)
    applicants, courses = sorted(instance.applicants), sorted(instance.courses)
    pair_list = matching.canonical_pairs()
    nodes = tuple([("a", a) for a in applicants] + [("c", c) for c in courses]
                  + [("p", a, c) for a, c in pair_list])
    first_pair = len(applicants) + len(courses)
    course_id = {c: k for k, c in enumerate(courses, len(applicants))}
    pair_heads = [(k, c) for k, (_, c) in enumerate(pair_list, first_pair)]
    holders: dict[str, list[int]] = {c: [] for c in courses}  # ascending ids
    for k, c in pair_heads:
        holders[c].append(k)
    succ: list[Sequence[int]] = [()] * len(nodes)
    strict: list[Collection[int]] = [range(len(nodes))] * len(applicants)
    strict += [()] * (len(nodes) - len(applicants))

    # Exposed courses reach every non-course node at cost 0, through one list.
    fan = [*range(len(applicants)), *range(first_pair, len(nodes))]
    for c in courses:
        if is_exposed_course(instance, matching, c):
            succ[course_id[c]] = fan

    # Exposed applicants envy every acceptable course they do not hold, and
    # the pairs holding it (never their own). Walking the courses, then the
    # pairs, in id order appends each id to the lists of the applicants
    # wanting its course, so every list comes out ascending.
    wanted_by: dict[str, list[list[int]]] = {c: [] for c in courses}
    for k, a in enumerate(applicants):
        if is_exposed_applicant(instance, matching, a):
            succ[k] = []
            for c in instance.acceptable(a) - matching.of_applicant(a):
                wanted_by[c].append(succ[k])
    for k, c in [*enumerate(courses, len(applicants)), *pair_heads]:
        for out in wanted_by[c]:
            out.append(k)

    # A pair node ac reaches each course it weakly envies, and the pairs
    # holding it; cost 0 within the same tie, -1 above it.
    for k, (a, c) in enumerate(pair_list, first_pair):
        out: list[int] = []
        neg: set[int] = set()
        for c2, w in weakly_envied(instance, matching, a, c):
            heads = [course_id[c2], *holders[c2]]
            out += heads
            if w:
                neg.update(heads)
        succ[k], strict[k] = sorted(out), neg

    return EnvyGraph(nodes, succ, strict)


def find_negative_cycle(graph: EnvyGraph) -> CycleWitness | None:
    """Find a negative-cost cycle from the strongly connected components.

    Arcs weigh 0 or -1, so a negative cycle exists exactly when some -1 arc
    has both ends in one component. The first such arc in canonical order is
    closed by a breadth-first shortest path inside its component, from head
    back to tail, scanning successors in canonical order. The witness starts
    at the arc's tail and is simple and deterministic. Runs in O(V + E).
    """
    succ, strict = graph.succ, graph.strict
    components = strongly_connected_components(range(len(succ)), succ)
    comp = [0] * len(succ)
    for i, members in enumerate(components):
        for v in members:
            comp[v] = i
    for tail, outs in enumerate(succ):
        # No arc is a loop, so a node alone in its component closes no cycle.
        if strict[tail] and len(components[comp[tail]]) > 1:
            inside = (v for v in outs if v in strict[tail] and comp[v] == comp[tail])
            head = next(inside, -1)
            if head >= 0:
                break
    else:
        return None
    parent = [-1] * len(succ)
    parent[head] = head
    queue = [head]
    for x in queue:  # breadth-first: the loop also visits appended nodes
        for y in succ[x]:
            if parent[y] < 0 and comp[y] == comp[head]:
                parent[y] = x
                queue.append(y)
    back = [tail]  # the BFS path read backwards, tail to head
    while back[-1] != head:
        back.append(parent[back[-1]])
    cycle = [tail] + back[:0:-1]  # tail, head, ..., tail's BFS parent
    total = -sum(v in strict[u] for u, v in zip(cycle, cycle[1:] + cycle[:1]))
    return CycleWitness(tuple(graph.nodes[v] for v in cycle), total)


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

    kind = pseudo.kind
    elements = pseudo.elements()

    rounds = len(elements)  # every repair strictly shortens the sequence
    while True:
        repeat = _first_repeat(elements)
        if repeat is None:
            break
        rounds -= 1
        if rounds < 0:  # pragma: no cover
            raise AssertionError("pseudocoalition reduction failed to shrink")
        x, y = repeat
        role, ident = elements[x]
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
            a = ident
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
        return Pseudocoalition(
            CoalitionKind.AUGMENTING_PATH, applicants, held[1:] + (course,)
        )
    return Pseudocoalition(
        CoalitionKind.ALTERNATING_PATH, applicants, held + (course,)
    )


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
    ids = {v: i for i, v in enumerate(graph.nodes)}
    weights = []
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        i, j = ids.get(u), ids.get(v)
        if i is None or j not in graph.succ[i]:
            raise CoalitionError(f"witness uses a non-arc {u} -> {v}")
        weights.append(-1 if j in graph.strict[i] else 0)
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
    the strictly dominating matching obtained by satisfying it."""
    graph = build_envy_graph(instance, matching)
    witness = find_negative_cycle(graph)
    if witness is None:
        return ParetoCheck(True)
    coalition = _coalition_from_witness(instance, matching, graph, witness)
    dominating = satisfy_coalition(instance, matching, coalition)
    return ParetoCheck(False, coalition, dominating)
