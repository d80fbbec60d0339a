"""Pareto-optimality verification through the extended envy graph.

The graph has one node per applicant, per course, and per matched pair.
Exposed courses point at every non-course node with weight 0; exposed
applicants at acceptable unheld courses (and the pairs holding them) with
weight -1; a pair node ac at every course c' its applicant would weakly
trade c for (and the pairs holding c'), weight 0 in c's tie and -1 above
it. The matching is Pareto optimal exactly when no negative cycle exists.

Nodes are numbered in the sort order of their tagged tuples, so comparing
ids compares nodes. Every stored arc enters a hub (``EnvyGraph``). So |E| is
C + A + 2P hub arcs, one arc per exposed course, per (exposed applicant,
unheld acceptable course) and per (pair, weakly envied course), where the
expanded graph repeats each arc into a hub once per node the hub lists.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Sequence

from .errors import CoalitionError
from .instance import Instance
from .matching import (
    CoalitionKind,
    ImprovingCoalition,
    Matching,
    _sequence_error,
    _strictly_prefers_course,
    _traded,
    coalition_error,
    is_exposed_applicant,
    is_exposed_course,
    require_feasible,
    satisfy_coalition,  # not called here: the benchmark's tracer wraps this name
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
    lists every applicant and pair. A real node's ``_out`` holds only hubs:
    the fan for an exposed course, else the hubs it envies, unordered. Arc
    ``i -> j`` weighs -1 if ``hub_of[j] in _strict[i]``, else 0; ``out_of(i)``
    builds ``_out[i]`` and ``_strict[i]`` on first read. ``nodes`` and the
    expanded ``arcs`` are views built on first read, which no verdict reads."""

    applicants: tuple[str, ...]
    courses: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    hub_of: list[int]
    _out: list[Sequence[int] | None]  # None until built
    _strict: list[Collection[int] | None]
    _build: Callable[[Iterable[int]], None]  # builds the given unbuilt slots in one loop

    def node(self, i: int) -> Node:
        a, c = len(self.applicants), len(self.courses)
        if i < a:
            return ("a", self.applicants[i])
        return ("c", self.courses[i - a]) if i < a + c else ("p", *self.pairs[i - a - c])

    def out_of(self, i: int) -> Sequence[int]:
        if self._out[i] is None:
            self._build((i,))
        return self._out[i]  # type: ignore[return-value]

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(map(self.node, range(len(self.hub_of))))

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """All expanded arcs as (tail, head, weight), in canonical order."""
        n = self.nodes
        return tuple((n[u], n[v], -1 if self.hub_of[v] in self._strict[u] else 0)
                     for u in range(len(n)) for v in _expanded(self, u))  # builds _strict[u]


def _expanded(graph: EnvyGraph, i: int) -> Sequence[int]:
    """Real node ``i``'s successors, ascending: the lists of its hubs."""
    return sorted(v for h in graph.out_of(i) for v in graph._out[h])  # type: ignore[union-attr]


@dataclass(frozen=True)
class CycleWitness:
    """A simple negative-cost cycle: arcs join consecutive nodes, wrapping."""

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
    out = [None] * size + [[k] for k in range(len(applicants), first_pair)]
    for k in range(first_pair, size):
        out[hub_of[k]].append(k)  # type: ignore[attr-defined]
    strict = [range(size, len(out))] * len(applicants) + [()] * len(courses) + [None] * len(pairs)

    # Exposed courses reach every non-course node at cost 0, through the fan hub.
    fan = len(out)
    out.append([*range(len(applicants)), *range(first_pair, size)])
    for k, c in enumerate(courses, len(applicants)):
        out[k] = [fan] if is_exposed_course(instance, matching, c) else ()

    def build(ids: Iterable[int]) -> None:
        for k in ids:
            if k < first_pair:  # an applicant, as every course's list is built
                a = applicants[k]  # if exposed, she envies each acceptable course she lacks
                out[k] = ([hub[c] for c in instance.acceptable(a) - matching.of_applicant(a)]
                          if is_exposed_applicant(instance, matching, a) else ())
            else:  # a pair ac envies each course a weakly prefers: -1 above c's tie, 0 in it
                a, c = pairs[k - first_pair]
                out[k], strict[k] = hubs, above = [], set()
                for c2, w in weakly_envied(instance, matching, a, c):
                    hubs.append(h := hub[c2])
                    if w:
                        above.add(h)

    return EnvyGraph(applicants, courses, pairs, hub_of, out, strict, build)


def _close(graph: EnvyGraph, tail: int, head: int, parent: list[int],
           spent: set[int]) -> list[int] | None:
    """The cycle through arc ``tail -> head``: the tail, then the least
    shortest path from the head back to it, or ``None`` if the head misses
    the tail. Breadth-first, successors in ascending order, each hub in
    ``spent`` once read: the first read gives every member a parent. Nodes
    an earlier search gave a parent are skipped, which changes no path to a
    tail they miss: a node that reaches the tail has only parents that do."""
    parent[head], queue = head, [head]
    for x in queue:  # breadth-first: the loop also visits appended nodes
        fresh = [h for h in graph.out_of(x) if h not in spent]
        spent.update(fresh)
        for y in sorted(v for h in fresh for v in graph._out[h]):  # type: ignore[union-attr]
            if parent[y] < 0:
                parent[y] = x
                queue.append(y)
        if parent[tail] >= 0:
            back = [tail]  # the path read backwards, tail to head
            while back[-1] != head:
                back.append(parent[back[-1]])
            return [tail] + back[:0:-1]
    return None


def find_negative_cycle(graph: EnvyGraph) -> CycleWitness | None:
    """Find a negative-cost cycle: the first -1 arc, in canonical order,
    whose ends share a strongly connected component, closed by ``_close``.

    Arcs weigh 0 or -1, so a negative cycle exists exactly when such an arc
    does. An applicant's arcs all weigh -1, and she is on a cycle exactly
    when she reaches the fan, the only hub listing applicants, which only
    exposed courses enter. So if a course is exposed, each applicant with
    arcs, in id order, tries her heads in ascending order. The searches
    share one ``parent`` and ``spent``: a failed one never read the fan, so
    nothing it reached reaches an applicant, and a head it reached is
    skipped. If none closes, no applicant is on a cycle, so Tarjan runs on
    the stored lists (hubs change no reachability between real nodes) with
    the applicants' left empty, and the fan's too if no arc enters it. The
    arc it finds has a pair tail, the only -1 tails left, and is closed on
    fresh state, not kept in the component: a node the head reaches that
    reaches the tail is in it. O(V + E) stored for the searches together.
    """
    size, first_pair = len(graph.hub_of), len(graph.hub_of) - len(graph.pairs)
    a, parent, spent = len(graph.applicants), [-1] * size, set()
    exposed = any(graph._out[a:first_pair])  # else no arc enters the fan
    closed = (_close(graph, tail, head, parent, spent) for tail in range(a if exposed else 0)
              for head in _expanded(graph, tail) if parent[head] < 0)
    if (cycle := next(filter(None, closed), None)) is None:
        graph._build([k for k in range(first_pair, size) if graph._out[k] is None])
        out = [()] * a + graph._out[a:-1] + [graph._out[-1] if exposed else ()]
        components = strongly_connected_components(out)
        comp = {v: i for i, members in enumerate(components) for v in members}
        for tail in range(first_pair, size):  # the pairs: other strict sets are empty here
            cc, strict = comp[tail], graph._strict[tail]
            if strict and len(components[cc]) > 1:  # no arc is a loop, so a lone node closes none
                heads = [next(v for v in out[h] if comp[v] == cc)  # a hub in cc lists its head
                         for h in out[tail] if h in strict and comp[h] == cc]
                if heads:
                    break
        else:
            return None
        head = min(heads)
        if (cycle := _close(graph, tail, head, [-1] * size, set())) is None:
            raise AssertionError(f"head {head} does not reach tail {tail} of arc {tail} -> {head}")
    # Each strict set is built: _close dequeued all but the tail, an applicant or Tarjan's.
    total = -sum(graph.hub_of[v] in graph._strict[u] for u, v in zip(cycle, cycle[1:] + cycle[:1]))
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
    if (error := pseudocoalition_error(instance, matching, pseudo)) is not None:
        raise CoalitionError(f"not a pseudocoalition: {error}")

    kind, elements = pseudo.kind, pseudo.elements()

    rounds = len(elements)  # every repair strictly shortens the sequence
    while repeat := _first_repeat(elements):
        rounds -= 1
        if rounds < 0:  # pragma: no cover
            raise AssertionError("pseudocoalition reduction failed to shrink")
        x, y = repeat
        role, a = elements[x]
        if role == "course" and x == 0 and kind is not CoalitionKind.AUGMENTING_PATH:
            # Repeated leading course: the prefix up to just before the
            # second occurrence closes into a cycle.
            elements = elements[:y]
            kind = CoalitionKind.CYCLIC
        elif role == "course":
            # Splice out everything between the two occurrences.
            del elements[x:y]
        elif x and _strictly_prefers_course(instance, a, elements[x + 1][1], elements[y - 1][1]):
            # The stretch between the occurrences closes into a cycle
            # entered at the course before the second occurrence.
            elements = [elements[y - 1]] + elements[x:y - 1]
            kind = CoalitionKind.CYCLIC
        else:
            # Skip the stretch; the course after the second occurrence is
            # weakly better than the one before the first. If she ends a
            # cycle, the tail is cut and she weakly gains the leading course;
            # if she leads an augmenting path, she aims directly at it.
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
    instance: Instance, matching: Matching, graph: EnvyGraph, witness: CycleWitness
) -> ImprovingCoalition:
    """Check each arc of ``witness`` against ``graph``, then unroll and reduce
    the cycle into a coalition valid for ``matching``; ``CoalitionError`` if
    either step fails, as it may when ``graph`` is another matching's."""
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
        if not found or not any(j in graph.out_of(h) for h in graph.out_of(i)):
            raise CoalitionError(f"witness uses a non-arc {u} -> {v}")
        weights.append(-1 if graph.hub_of[j] in graph._strict[i] else 0)
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
    the strictly dominating matching obtained by satisfying it, derived from
    the input's maps without a second check, as the reduction checked the
    coalition. A positive verdict and its graph are kept on the matching for
    this ``instance`` object (both immutable) and returned again building
    nothing; a negative one never is."""
    if matching._optimal_in is instance:
        return ParetoCheck(True)
    graph = build_envy_graph(instance, matching)
    if (witness := find_negative_cycle(graph)) is None:
        matching._optimal_in, matching._graph = instance, graph
        return ParetoCheck(True)
    coalition = extract_improving_coalition(instance, matching, graph, witness)
    return ParetoCheck(False, coalition, _traded(matching, coalition))


def _pair_priority_order(instance: Instance, matching: Matching) -> list[tuple[str, str]]:
    """Order the matched pairs so that each comes after every pair it weakly
    envies and its applicant's other seats in a tie no worse (else a seat
    served too early can absorb capacity an earlier pair still needs): the
    strongly connected components, sinks first, each sorted. Envied seats are
    read off the graph ``is_pareto_optimal(instance, matching)`` has just kept."""
    graph = matching._graph
    pairs, out, size = graph.pairs, graph._out, len(graph.hub_of)
    first = size - len(pairs)
    holders = [[v - first for v in hub[1:]] for hub in out[size:-1]]  # per course, by pair index
    ties, adj, lo = [instance.tie_of(a, c) for a, c in pairs], [], 0
    for i, (a, _) in enumerate(pairs):
        lo = lo if pairs[lo][0] == a else i  # her seats are one run of the sorted pairs
        adj.append(succ := [])
        for j in range(lo, lo + len(matching.of_applicant(a))):
            if j != i and ties[j] <= ties[i]:
                succ.append(j)
        for h in out[first + i]:
            succ += holders[h - size]
        succ.sort()
    return [pairs[i] for comp in strongly_connected_components(adj) for i in sorted(comp)]
