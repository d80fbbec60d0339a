"""The hub-compressed envy graph against the expanded-list construction it
replaced: same arcs, same witness, same coalition and dominating matching,
on seeded instances of 5-80 applicants and 2-30 courses at three tie
densities, plus 80x30 instances shaped like the benchmark's audit inputs.
On the same cases the stored graph must keep its shape, real -> hub -> real
with one fan hub, and its arc count is pinned at the 500x800 optimum. The
cases reach every way the verifier decides: a witness from an applicant,
found and closed by one breadth-first search per head tried, each ending
at the first exposed course it finds, all sharing their parents, and
Tarjan after those searches fail or when no course is exposed, for
negative and positive verdicts. Applicant and pair lists are
built on first read, and Tarjan reads only the pair lists, as no applicant
is on a cycle by then: each regime's count of lists built is pinned exactly,
as the searches sort what they read and depend on no string hash, and the
graph a verdict leaves completes to a fresh build's lists exactly."""

import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import pytest

from camatch import envy, generate_random_instance, parse_instance, run_gsdt
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
from instances import completed


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
    components = strongly_connected_components(succ)
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
# Seeded cases: the optimum, half of it, a bounded greedy draw and a greedy
# draw that fills each applicant to quota where it can.
# ----------------------------------------------------------------------

def greedy_draw(instance, rng, fill=False):
    """One random greedy matching: applicants in shuffled order each take
    random acceptable courses with free seats, up to a random count within
    their quota, or up to the quota itself with ``fill``. One draw, never
    retried, so it may be Pareto optimal. A filled draw seldom leaves an
    applicant exposed, so its witnesses tend to start at a pair even where
    courses are exposed."""
    free = dict(instance.capacity)
    visit = sorted(instance.applicants)
    rng.shuffle(visit)
    pairs = []
    for a in visit:
        options = sorted(instance.acceptable(a))
        rng.shuffle(options)
        want = instance.quota[a] if fill else rng.randint(0, instance.quota[a])
        for c in options:
            if want == 0:
                break
            if free[c] > 0:
                free[c] -= 1
                want -= 1
                pairs.append((a, c))
    return Matching(pairs)


def case_matchings(inst, rng, fill_rng):
    """The filled draw takes its own generator, so the other three kinds
    stay the draws they were before it was added."""
    ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
    rng.shuffle(ordering)
    optimum = run_gsdt(inst, ordering).matching
    pairs = optimum.canonical_pairs()
    return {
        "optimum": optimum,
        "half": Matching(rng.sample(pairs, len(pairs) // 2)),
        "greedy": greedy_draw(inst, rng),
        "filled": greedy_draw(inst, fill_rng, fill=True),
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
    rng, fill_rng = random.Random(chunk), random.Random(f"filled {chunk}")
    for inst in CHUNKS[chunk]:
        for matching in case_matchings(inst, rng, fill_rng).values():
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


def regime(inst, matching):
    """Where the witness starts ("a" or "p", or "positive" when there is
    none), and whether some course is exposed, so that an arc enters the fan."""
    witness = find_negative_cycle(build_envy_graph(inst, matching))
    start = "positive" if witness is None else witness.nodes[0][0]
    return start, any(is_exposed_course(inst, matching, c) for c in inst.courses)


# Over the 1,248 cases; every ("p", True) case is a filled draw.
REGIME_COUNTS = {("a", True): 494, ("p", True): 43, ("p", False): 330,
                 ("positive", True): 63, ("positive", False): 318}


@cache
def regimes():
    """Each regime's count over every case, and its first case."""
    counts, first = Counter(), {}
    for chunk in range(len(CHUNKS)):
        for inst, matching in chunk_cases(chunk):
            key = regime(inst, matching)
            counts[key] += 1
            first.setdefault(key, (inst, matching))
    return counts, first


def test_cases_cover_both_verdicts_and_all_shapes():
    assert len(INSTANCES) >= 300
    verdicts = [bool(is_pareto_optimal(inst, matching))
                for chunk in range(0, len(CHUNKS), 5) for inst, matching in chunk_cases(chunk)]
    assert 10 <= sum(verdicts) <= len(verdicts) - 10
    sizes = [(len(inst.applicants), len(inst.courses)) for inst in INSTANCES]
    assert min(sizes) <= (10, 5) and (80, 30) in sizes
    # An applicant's witness needs an arc into the fan, so ("a", False) is no
    # regime; ("p", True) is a pair witness found after the fan searches fail.
    assert regimes()[0] == REGIME_COUNTS


# ----------------------------------------------------------------------
# Only a witness from an applicant skips Tarjan.
# ----------------------------------------------------------------------

def test_an_applicant_witness_never_runs_tarjan(monkeypatch):
    """The applicant scan finds and closes an applicant's witness,
    certificate and all, with Tarjan refused; a pair witness, and a positive verdict with or
    without an exposed course, still reach it."""
    class TarjanRan(Exception):
        pass

    def refuse(succ):
        raise TarjanRan

    first = regimes()[1]
    inst, matching = first["a", True]
    expected = is_pareto_optimal(inst, matching)
    monkeypatch.setattr(envy, "strongly_connected_components", refuse)
    check = is_pareto_optimal(inst, matching)
    assert not check and (check.coalition, check.dominating) == (
        expected.coalition, expected.dominating)
    for key in [("p", True), ("p", False), ("positive", True), ("positive", False)]:
        with pytest.raises(TarjanRan):
            find_negative_cycle(build_envy_graph(*first[key]))


# ----------------------------------------------------------------------
# Applicant and pair lists are built on first read.
# ----------------------------------------------------------------------

@pytest.fixture
def built_graphs(monkeypatch):
    """Every graph the verdicts build while the test runs, in order."""
    graphs = []

    def spy(inst, matching):
        graphs.append(build_envy_graph(inst, matching))
        return graphs[-1]

    monkeypatch.setattr(envy, "build_envy_graph", spy)
    return graphs


def lists_built(graph):
    """How many applicant and pair lists the graph has built, and how many
    it has; read before ``completed``, which builds the rest."""
    lazy = [*range(len(graph.applicants)),
            *range(len(graph.applicants) + len(graph.courses), len(graph.hub_of))]
    return sum(graph._out[k] is not None for k in lazy), len(lazy)


# Per regime, over the 1,248 cases: applicant and pair lists in all.
LISTS = {("a", True): 31_062, ("p", True): 1_749, ("p", False): 31_168,
         ("positive", True): 2_819, ("positive", False): 26_118}


def test_a_verdict_builds_the_lists_it_reads_and_completes_them_exactly(built_graphs, monkeypatch):
    """Each verdict's own graph, spied on: Tarjan (a pair witness, or a
    positive verdict) builds every pair list but no applicant list that
    the applicant scan has not built, so with no course exposed a verdict
    builds no applicant list; a witness from an applicant builds about 3%
    of the lists. A positive verdict keeps its graph on the matching with
    every pair list built, all that ``envy._pair_priority_order`` reads.
    Completed afterwards, the lists and strict sets equal a fresh build's
    entry by entry, in order."""
    witnesses = []

    def spy_find(graph):
        witnesses.append(find_negative_cycle(graph))
        return witnesses[-1]

    monkeypatch.setattr(envy, "find_negative_cycle", spy_find)
    built, total = Counter(), Counter()
    for chunk in range(len(CHUNKS)):
        for inst, matching in chunk_cases(chunk):
            built_graphs.clear()
            witnesses.clear()
            check = is_pareto_optimal(inst, matching)
            (graph,), (witness,) = built_graphs, witnesses
            assert check.is_optimal == (witness is None)
            key = ("positive" if witness is None else witness.nodes[0][0],
                   any(is_exposed_course(inst, matching, c) for c in inst.courses))
            done, lists = lists_built(graph)
            built[key] += done
            total[key] += lists
            if witness is None:  # the kept graph, every pair list built for the pair order
                first_pair = len(graph.applicants) + len(graph.courses)
                assert matching._graph is graph
                assert None not in graph._out[first_pair:len(graph.hub_of)]
            fresh = build_envy_graph(inst, matching)
            assert completed(graph) == completed(fresh)
            assert_real_hub_real(inst, matching, graph)
    assert total == LISTS
    assert built == {("a", True): 944, ("p", True): 1_749, ("p", False): 12_722,
                     ("positive", True): 2_819, ("positive", False): 10_178}


def test_the_wide_half_verdict_builds_few_lists(built_graphs):
    """Every other pair of the 640x100 file-order optimum: the first
    applicant's first head is an exposed course, so her search stops at
    once, without reading the fan, and closes a 2-node cycle: the verdict
    builds 1 of its 772 applicant and pair lists, her own."""
    inst = generate_random_instance(640, 100, 3, 4, 0.4, 1)
    optimum = run_gsdt(inst, [a for a in inst.applicants for _ in range(inst.quota[a])]).matching
    half = Matching(optimum.canonical_pairs()[::2])
    assert not is_pareto_optimal(inst, half)
    assert lists_built(built_graphs[0]) == (1, 772)


def test_the_mid_optimum_verdict_builds_only_pair_lists(built_graphs):
    """The 640x100 file-order optimum leaves no course exposed, so no arc
    enters the fan and no applicant is on a cycle: the positive verdict
    builds all 264 pair lists for Tarjan and none of the 640 applicant
    lists."""
    inst = generate_random_instance(640, 100, 3, 4, 0.4, 1)
    optimum = run_gsdt(inst, [a for a in inst.applicants for _ in range(inst.quota[a])]).matching
    assert not any(is_exposed_course(inst, optimum, c) for c in inst.courses)
    assert is_pareto_optimal(inst, optimum)
    assert lists_built(built_graphs[0]) == (264, 904)


def test_a_head_that_misses_its_tail_moves_the_scan_to_the_next_head(monkeypatch):
    """a1 is exposed and lists c1, held by a2, who envies nothing, and the
    exposed c2. Her first head, c1, misses her; the scan moves on to c2,
    which reaches her through the fan, and never tries the pair a2:c1."""
    inst = parse_instance("courses: c1=1 c2=1\n"
                          "applicant a1 quota=1 prefs: ( c1 c2 )\n"
                          "applicant a2 quota=1 prefs: ( c1 )\n")
    matching = Matching([("a2", "c1")])
    calls, close = [], envy._close

    def spy(graph, tail, head, parent, spent):
        calls.append((tail, head, close(graph, tail, head, parent, spent)))
        return calls[-1][2]

    monkeypatch.setattr(envy, "_close", spy)
    witness = find_negative_cycle(build_envy_graph(inst, matching))
    assert calls == [(0, 2, None), (0, 3, [0, 3])]  # a1 = 0, c1 = 2, c2 = 3
    assert witness == CycleWitness((("a", "a1"), ("c", "c2")), -1)


# a1 is exposed and lists only c1, held by a2, who prefers c2 and c3, held by
# a3 and a4; a3 prefers the exposed c4. The search from a2:c1 finds c2, c3,
# a3:c2 and a4:c3, and a3:c2 finds c4 while a4:c3 is still queued.
QUEUED_PAIR = ("courses: c1=1 c2=1 c3=1 c4=1\n"
               "applicant a1 quota=1 prefs: ( c1 )\n"
               "applicant a2 quota=1 prefs: ( c2 c3 ) ( c1 )\n"
               "applicant a3 quota=1 prefs: ( c4 ) ( c2 )\n"
               "applicant a4 quota=1 prefs: ( c3 )\n")


def test_an_applicant_search_stops_at_the_exposed_course_it_finds():
    """The witness and certificate are the expanded reference's, and the
    search ends when a3:c2's read finds c4, before the queued a4:c3 is read:
    of the 7 applicant and pair lists only a1's, a2:c1's and a3:c2's are
    built."""
    inst = parse_instance(QUEUED_PAIR)
    matching = Matching([("a2", "c1"), ("a3", "c2"), ("a4", "c3")])
    graph = build_envy_graph(inst, matching)
    witness = find_negative_cycle(graph)
    assert witness == CycleWitness(
        (("a", "a1"), ("p", "a2", "c1"), ("p", "a3", "c2"), ("c", "c4")), -3)
    reference = reference_build_envy_graph(inst, matching)
    assert witness == reference_find_negative_cycle(reference)
    check = is_pareto_optimal(inst, matching)
    assert (check.coalition, check.dominating) == reference_certificate(
        inst, matching, reference, witness)
    assert graph.node(10) == ("p", "a4", "c3") and graph._out[10] is None
    assert lists_built(graph) == (3, 7)


def test_an_exposed_head_closes_at_once():
    """a1's head c2 is exposed: the search returns ``[tail, head]``, reading
    no hub, the fan included, and builds no list beyond a1's own."""
    inst = parse_instance("courses: c1=1 c2=2\n"
                          "applicant a1 quota=1 prefs: ( c2 )\n"
                          "applicant a2 quota=1 prefs: ( c1 ) ( c2 )\n")
    matching = Matching([("a2", "c1")])
    graph = build_envy_graph(inst, matching)
    spent = set()
    assert envy._close(graph, 0, 3, [-1] * len(graph.hub_of), spent) == [0, 3]  # a1 = 0, c2 = 3
    assert not spent
    assert lists_built(graph) == (0, 3)
    assert find_negative_cycle(graph) == CycleWitness((("a", "a1"), ("c", "c2")), -1)
    assert lists_built(graph) == (1, 3)


# Pareto optimal: a1 strictly envies a2's c1, which a2 alone accepts, and
# nothing is exposed. A forged component of every node makes Tarjan's branch
# pick the arc a1:c2 -> c1 (4 -> 2), whose head, a full course, has no
# successor. Under python -O too the search must end and raise, naming it.
MISSED_HEAD = """from camatch import Matching, envy, parse_instance
inst = parse_instance("courses: c1=1 c2=1\\napplicant a1 quota=1 prefs: ( c1 ) ( c2 )\\n"
                      "applicant a2 quota=1 prefs: ( c1 )\\n")
graph = envy.build_envy_graph(inst, Matching([("a1", "c2"), ("a2", "c1")]))
envy.strongly_connected_components = lambda succ: [list(range(len(succ)))]
print(__debug__)
try:
    envy.find_negative_cycle(graph)
except AssertionError as error:
    print(error)
"""


@pytest.mark.parametrize("flags, debug", [([], "True"), (["-O"], "False")])
def test_a_head_that_misses_the_tail_in_tarjans_branch_raises(flags, debug):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, *flags, "-c", MISSED_HEAD],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{debug}\nhead 2 does not reach tail 4 of arc 4 -> 2\n"


# ----------------------------------------------------------------------
# The stored graph's shape: real -> hub -> real, with one fan hub.
# ----------------------------------------------------------------------

def assert_real_hub_real(inst, matching, graph):
    """Real nodes store only hubs, hubs list only real nodes, ascending, and
    no two nodes share a non-empty list. An exposed course stores the fan
    hub alone; the fan, the last hub, lists every applicant and pair."""
    real, (out, _) = len(graph.hub_of), completed(graph)
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
    assert sum(map(len, completed(graph)[0])) <= 5_000
    assert is_pareto_optimal(inst, optimum)


# ----------------------------------------------------------------------
# The verdict path reads no expanded view.
# ----------------------------------------------------------------------

def test_verdict_never_reads_expanded_views(monkeypatch):
    def refuse(self):
        raise AssertionError("the verdict path read an expanded view")

    for view in ("arcs", "nodes"):
        monkeypatch.setattr(EnvyGraph, view, property(refuse))
    verdicts = [bool(is_pareto_optimal(inst, matching))
                for chunk in range(3) for inst, matching in chunk_cases(chunk)]
    assert not all(verdicts)
