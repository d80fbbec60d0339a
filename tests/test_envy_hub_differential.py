"""The hub-compressed envy graph against the expanded-list construction it
replaced: same arcs, same witness, same coalition and dominating matching,
on seeded instances of 5-80 applicants and 2-30 courses at three tie
densities, plus 80x30 instances shaped like the benchmark's audit inputs.
On the same cases the stored graph must keep its shape, real -> hub -> real
with one fan hub, and its arc count is pinned at the 500x800 optimum."""

import random
from dataclasses import dataclass
from functools import cached_property

import pytest

from camatch import generate_random_instance, run_gsdt
from camatch.envy import (
    CycleWitness,
    EnvyGraph,
    _unroll_cycle,
    build_envy_graph,
    find_negative_cycle,
    is_pareto_optimal,
    reduce_pseudocoalition,
)
from camatch.matching import (
    Matching,
    is_exposed_applicant,
    is_exposed_course,
    require_feasible,
    satisfy_coalition,
    weakly_envied,
)
from camatch.scc import strongly_connected_components


# ----------------------------------------------------------------------
# The reference: every node keeps its expanded, ascending successor list.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceGraph:
    nodes: tuple
    succ: list
    strict: list

    @cached_property
    def arcs(self):
        n = self.nodes
        return tuple((n[u], n[v], -1 if v in self.strict[u] else 0)
                     for u, outs in enumerate(self.succ) for v in outs)


def reference_build_envy_graph(instance, matching):
    require_feasible(instance, matching)
    applicants, courses = sorted(instance.applicants), sorted(instance.courses)
    pair_list = matching.canonical_pairs()
    nodes = tuple([("a", a) for a in applicants] + [("c", c) for c in courses]
                  + [("p", a, c) for a, c in pair_list])
    first_pair = len(applicants) + len(courses)
    course_id = {c: k for k, c in enumerate(courses, len(applicants))}
    pair_heads = [(k, c) for k, (_, c) in enumerate(pair_list, first_pair)]
    holders = {c: [] for c in courses}
    for k, c in pair_heads:
        holders[c].append(k)
    succ = [()] * len(nodes)
    strict = [range(len(nodes))] * len(applicants)
    strict += [()] * (len(nodes) - len(applicants))
    fan = [*range(len(applicants)), *range(first_pair, len(nodes))]
    for c in courses:
        if is_exposed_course(instance, matching, c):
            succ[course_id[c]] = fan
    wanted_by = {c: [] for c in courses}
    for k, a in enumerate(applicants):
        if is_exposed_applicant(instance, matching, a):
            succ[k] = []
            for c in instance.acceptable(a) - matching.of_applicant(a):
                wanted_by[c].append(succ[k])
    for k, c in [*enumerate(courses, len(applicants)), *pair_heads]:
        for out in wanted_by[c]:
            out.append(k)
    for k, (a, c) in enumerate(pair_list, first_pair):
        out, neg = [], set()
        for c2, w in weakly_envied(instance, matching, a, c):
            heads = [course_id[c2], *holders[c2]]
            out += heads
            if w:
                neg.update(heads)
        succ[k], strict[k] = sorted(out), neg
    return ReferenceGraph(nodes, succ, strict)


def reference_find_negative_cycle(graph):
    succ, strict = graph.succ, graph.strict
    components = strongly_connected_components(range(len(succ)), succ)
    comp = [0] * len(succ)
    for i, members in enumerate(components):
        for v in members:
            comp[v] = i
    for tail, outs in enumerate(succ):
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
    for x in queue:
        for y in succ[x]:
            if parent[y] < 0 and comp[y] == comp[head]:
                parent[y] = x
                queue.append(y)
    back = [tail]
    while back[-1] != head:
        back.append(parent[back[-1]])
    cycle = [tail] + back[:0:-1]
    total = -sum(v in strict[u] for u, v in zip(cycle, cycle[1:] + cycle[:1]))
    return CycleWitness(tuple(graph.nodes[v] for v in cycle), total)


def reference_certificate(instance, matching, graph, witness):
    """The coalition and dominating matching the reference witness yields."""
    weights = {(u, v): w for u, v, w in graph.arcs}
    cycle = list(witness.nodes)
    arc_weights = [weights[arc] for arc in zip(cycle, cycle[1:] + cycle[:1])]
    pseudo = _unroll_cycle(instance, matching, cycle, arc_weights)
    coalition = reduce_pseudocoalition(instance, matching, pseudo)
    return coalition, satisfy_coalition(instance, matching, coalition)


# ----------------------------------------------------------------------
# Seeded cases: the optimum, half of it, and one bounded greedy draw.
# ----------------------------------------------------------------------

def greedy_draw(instance, rng):
    """One random greedy matching: applicants in shuffled order each take
    random acceptable courses with free seats, up to a random count within
    their quota. One draw, never retried, so it may be Pareto optimal."""
    free = dict(instance.capacity)
    visit = sorted(instance.applicants)
    rng.shuffle(visit)
    pairs = []
    for a in visit:
        options = sorted(instance.acceptable(a))
        rng.shuffle(options)
        want = rng.randint(0, instance.quota[a])
        for c in options:
            if want == 0:
                break
            if free[c] > 0:
                free[c] -= 1
                want -= 1
                pairs.append((a, c))
    return Matching(pairs)


def case_matchings(inst, rng):
    ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
    rng.shuffle(ordering)
    optimum = run_gsdt(inst, ordering).matching
    pairs = optimum.canonical_pairs()
    return {
        "optimum": optimum,
        "half": Matching(rng.sample(pairs, len(pairs) // 2)),
        "greedy": greedy_draw(inst, rng),
    }


def seeded_instances():
    rng = random.Random(1507_2866)
    for k in range(300):
        density = (0.0, 0.4, 0.9)[k % 3]
        yield generate_random_instance(
            rng.randint(5, 80), rng.randint(2, 30), 3, 4, density, rng.randrange(2**31))
    for _ in range(12):  # shaped like the benchmark's audit inputs
        yield generate_random_instance(80, 30, 3, 4, 0.4, rng.randrange(2**31))


INSTANCES = list(seeded_instances())
CHUNK = 12
CHUNKS = [INSTANCES[i:i + CHUNK] for i in range(0, len(INSTANCES), CHUNK)]


def chunk_cases(chunk):
    rng = random.Random(chunk)
    for inst in CHUNKS[chunk]:
        for matching in case_matchings(inst, rng).values():
            yield inst, matching


@pytest.mark.parametrize("chunk", range(len(CHUNKS)))
def test_hub_graph_equals_expanded_reference(chunk):
    for inst, matching in chunk_cases(chunk):
        graph = build_envy_graph(inst, matching)
        assert_real_hub_real(inst, matching, graph)
        reference = reference_build_envy_graph(inst, matching)
        witness = find_negative_cycle(graph)
        assert witness == reference_find_negative_cycle(reference)
        check = is_pareto_optimal(inst, matching)
        assert check.is_optimal == (witness is None)
        if witness is not None:
            coalition, dominating = reference_certificate(inst, matching, reference, witness)
            assert check.coalition == coalition
            assert check.dominating == dominating
        assert graph.nodes == reference.nodes
        assert graph.arcs == reference.arcs


def test_cases_cover_both_verdicts_and_all_shapes():
    assert len(INSTANCES) >= 300
    verdicts = [bool(is_pareto_optimal(inst, matching))
                for chunk in range(0, len(CHUNKS), 5) for inst, matching in chunk_cases(chunk)]
    assert 10 <= sum(verdicts) <= len(verdicts) - 10
    sizes = [(len(inst.applicants), len(inst.courses)) for inst in INSTANCES]
    assert min(sizes) <= (10, 5) and (80, 30) in sizes


# ----------------------------------------------------------------------
# The stored graph's shape: real -> hub -> real, with one fan hub.
# ----------------------------------------------------------------------

def assert_real_hub_real(inst, matching, graph):
    """Real nodes store only hubs, hubs list only real nodes, ascending, and
    no two nodes share a non-empty list. An exposed course stores the fan
    hub alone; the fan, the last hub, lists every applicant and pair."""
    real, out = len(graph.hub_of), graph.out
    first_pair = len(graph.applicants) + len(graph.courses)
    assert len(out) == real + len(graph.courses) + 1
    for i in range(real):
        assert all(h >= real for h in out[i]), i
    for h in range(real, len(out)):
        assert all(v < real for v in out[h]), h
        assert all(u < v for u, v in zip(out[h], out[h][1:])), h
    lists = [id(outs) for outs in out if outs]
    assert len(set(lists)) == len(lists)
    fan = len(out) - 1
    assert out[fan] == [*range(len(graph.applicants)), *range(first_pair, real)]
    for k, c in enumerate(graph.courses, len(graph.applicants)):
        assert (out[k] == [fan]) if is_exposed_course(inst, matching, c) else not out[k]


def test_stored_arcs_at_the_wide_optimum():
    """At the file-order optimum of the 500x800 rung 511 courses are exposed.
    Each stores one arc, into the fan hub; a copy of the fan's 1,468 nodes
    stored for each of them would make about 750,000 arcs."""
    inst = generate_random_instance(500, 800, 3, 4, 0.4, 1)
    optimum = run_gsdt(inst, [a for a in inst.applicants for _ in range(inst.quota[a])]).matching
    graph = build_envy_graph(inst, optimum)
    assert_real_hub_real(inst, optimum, graph)
    assert sum(map(len, graph.out)) <= 5_000
    assert is_pareto_optimal(inst, optimum)


# ----------------------------------------------------------------------
# The verdict path reads no expanded view.
# ----------------------------------------------------------------------

def test_verdict_never_reads_expanded_views(monkeypatch):
    def refuse(self):
        raise AssertionError("the verdict path read an expanded view")

    for view in ("succ", "arcs", "nodes"):
        monkeypatch.setattr(EnvyGraph, view, property(refuse))
    verdicts = [bool(is_pareto_optimal(inst, matching))
                for chunk in range(3) for inst, matching in chunk_cases(chunk)]
    assert not all(verdicts)
