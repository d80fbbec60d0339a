"""Pareto-optimality verification through the extended envy graph.

The graph has one node per applicant, per course, and per matched pair.
Exposed courses point at every non-course node with weight 0; exposed
applicants point at acceptable unheld courses (and the pairs holding them)
with weight -1; a pair node ac points at every course c' the applicant would
weakly trade c for (and at the pairs holding c'), weight 0 on indifference
and -1 on strict envy. The matching is Pareto optimal exactly when no
negative-cost cycle exists.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    nodes: tuple[Node, ...]
    arcs: tuple[Arc, ...]

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
    pair_list = matching.canonical_pairs()
    nodes = sorted(
        [("a", a) for a in instance.applicants]
        + [("c", c) for c in instance.courses]
        + [("p", a, c) for a, c in pair_list]
    )
    arcs: list[Arc] = []

    # Exposed courses reach every non-course node at cost 0.
    for c in instance.courses:
        if is_exposed_course(instance, matching, c):
            arcs.extend((("c", c), ("a", a), 0) for a in instance.applicants)
            arcs.extend((("c", c), ("p", a2, c2), 0) for a2, c2 in pair_list)

    # Exposed applicants envy every acceptable course they do not hold.
    for a in instance.applicants:
        if not is_exposed_applicant(instance, matching, a):
            continue
        wanted = instance.acceptable(a) - matching.of_applicant(a)
        arcs.extend((("a", a), ("c", c), -1) for c in wanted)
        arcs.extend(
            (("a", a), ("p", a2, c2), -1)
            for a2, c2 in pair_list
            if c2 in wanted and a2 != a
        )

    # A pair node ac reaches each course it weakly envies, and the pairs
    # holding it; cost 0 within the same tie, -1 above it.
    for a, c in pair_list:
        for c2, w in weakly_envied(instance, matching, a, c):
            arcs.append((("p", a, c), ("c", c2), w))
            arcs.extend(
                (("p", a, c), ("p", a2, c2), w) for a2 in sorted(matching.of_course(c2))
            )

    return EnvyGraph(tuple(nodes), tuple(sorted(arcs)))


def find_negative_cycle(graph: EnvyGraph) -> CycleWitness | None:
    """Find a negative-cost cycle from the strongly connected components.

    Arcs weigh 0 or -1, so a negative cycle exists exactly when some -1 arc
    has both ends in one component. The first such arc in canonical order is
    closed by a breadth-first shortest path inside its component, from head
    back to tail, scanning successors in canonical order. The witness starts
    at the arc's tail and is simple and deterministic. Runs in O(V + E).
    """
    succ: dict[Node, list[Node]] = {v: [] for v in graph.nodes}
    for u, v, _ in graph.arcs:
        succ[u].append(v)
    components = strongly_connected_components(graph.nodes, succ)
    comp_of = {v: i for i, comp in enumerate(components) for v in comp}
    for tail, head, w in graph.arcs:
        if w < 0 and comp_of[tail] == comp_of[head]:
            break
    else:
        return None
    parent: dict[Node, Node] = {head: head}
    queue = [head]
    for x in queue:  # breadth-first: the loop also visits appended nodes
        for y in succ[x]:
            if y not in parent and comp_of[y] == comp_of[head]:
                parent[y] = x
                queue.append(y)
    back = [tail]  # the BFS path read backwards, tail to head
    while back[-1] != head:
        back.append(parent[back[-1]])
    cycle = [tail] + back[:0:-1]  # tail, head, ..., tail's BFS parent
    weights = graph.weights()
    total = sum(weights[arc] for arc in zip(cycle, cycle[1:] + cycle[:1]))
    return CycleWitness(tuple(cycle), total)


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
        return list(
            ImprovingCoalition(self.kind, self.applicants, self.courses).sequence()
        )


def pseudocoalition_error(
    instance: Instance, matching: Matching, pseudo: Pseudocoalition
) -> str | None:
    return _sequence_error(
        instance,
        matching,
        pseudo.kind,
        pseudo.applicants,
        pseudo.courses,
        allow_repeats=True,
    )


def _split_elements(elements: list[Element]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    applicants = tuple(x for role, x in elements if role == "applicant")
    courses = tuple(x for role, x in elements if role == "course")
    return applicants, courses


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

    applicants, courses = _split_elements(elements)
    coalition = ImprovingCoalition(kind, applicants, courses)
    error = coalition_error(instance, matching, coalition)
    if error is not None:  # pragma: no cover - the reduction preserves validity
        raise CoalitionError(f"reduction produced an invalid coalition: {error}")
    return coalition


def _unroll_cycle(
    instance: Instance, matching: Matching, cycle: list[Node], weights: dict
) -> Pseudocoalition:
    """Rewrite a negative envy-graph cycle as a pseudocoalition."""
    n = len(cycle)

    def arc_weight(i: int) -> int:
        return weights[(cycle[i], cycle[(i + 1) % n])]

    course_positions = [i for i, node in enumerate(cycle) if node[0] == "c"]

    if not course_positions:
        # Pure pair-node cycle: rotate a strict envy arc to the front and
        # read off a cyclic sequence.
        start = next(i for i in range(n) if arc_weight(i) == -1)
        pairs = [cycle[(start + k) % n] for k in range(n)]
        applicants = tuple(p[1] for p in pairs)
        courses = tuple(p[2] for p in pairs)
        return Pseudocoalition(CoalitionKind.CYCLIC, applicants, courses)

    # Shorten around a strict arc: from the head of some -1 arc, walk to the
    # first course node; that course is exposed, so it closes back to the
    # tail directly. The result has exactly one course node.
    i = next(k for k in range(n) if arc_weight(k) == -1)
    u = cycle[i]
    segment = []
    k = (i + 1) % n
    while True:
        segment.append(cycle[k])
        if cycle[k][0] == "c":
            break
        k = (k + 1) % n
    course = segment[-1][1]
    middle = segment[:-1]  # pair nodes between the strict arc's head and the course

    if u[0] == "a":
        applicant = u[1]
        applicants = (applicant,) + tuple(p[1] for p in middle)
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
    weights = graph.weights()
    cycle = list(witness.nodes)
    if not cycle:
        raise CoalitionError("empty witness cycle")
    arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
    for u, v in arcs:
        if (u, v) not in weights:
            raise CoalitionError(f"witness uses a non-arc {u} -> {v}")
    if sum(weights[arc] for arc in arcs) >= 0:
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
