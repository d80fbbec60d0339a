"""Extended envy graph: construction, negative cycles, witness extraction."""

import itertools
import random

import pytest

from camatch import (
    CoalitionError,
    CoalitionKind,
    CycleWitness,
    FeasibilityError,
    ImprovingCoalition,
    Instance,
    Matching,
    Pseudocoalition,
    build_envy_graph,
    coalition_error,
    extract_improving_coalition,
    find_negative_cycle,
    is_feasible,
    is_pareto_optimal,
    pareto_dominates,
    pseudocoalition_error,
    reduce_pseudocoalition,
    satisfy_coalition,
)
from camatch.oracle import (
    enumerate_feasible_matchings,
    preference_profile,
    profile_dominates,
)
from instances import random_small_instances, worked_examples

MU1 = Matching([("a1", "c2"), ("a2", "c1")])
MU2 = Matching([("a1", "c1"), ("a1", "c2")])


def test_graph_of_empty_matching(t1):
    g = build_envy_graph(t1, Matching())
    assert len(g.nodes) == 6  # no pair nodes
    by_weight = {}
    for u, v, w in g.arcs:
        by_weight.setdefault(w, []).append((u, v))
    # every course exposed: one 0-arc to each applicant; no pair nodes exist
    assert len(by_weight[0]) == 9
    assert all(u[0] == "c" and v[0] == "a" for u, v in by_weight[0])
    # every applicant exposed: one -1 arc per acceptable course
    assert len(by_weight[-1]) == 9
    assert all(u[0] == "a" and v[0] == "c" for u, v in by_weight[-1])


def test_graph_of_manipulation_mu2(ex1):
    g = build_envy_graph(ex1, MU2)
    assert len(g.nodes) == 2 + 2 + 2  # applicants + courses + pairs
    # both courses full, a1 full; only exposed a2 envies toward c1
    assert set(g.arcs) == {
        (("a", "a2"), ("c", "c1"), -1),
        (("a", "a2"), ("p", "a1", "c1"), -1),
    }
    assert find_negative_cycle(g) is None
    assert is_pareto_optimal(ex1, MU2)


def test_graph_single_full_pair():
    inst = Instance.build([("c1", 1)], [("a1", 1, [["c1"]])])
    mu = Matching([("a1", "c1")])
    g = build_envy_graph(inst, mu)
    assert g.arcs == ()
    assert find_negative_cycle(g) is None


def test_node_count_is_applicants_plus_courses_plus_pairs(fleet):
    rng = random.Random(3)
    for inst in rng.sample(fleet, 10):
        for mu in enumerate_feasible_matchings(inst):
            g = build_envy_graph(inst, mu)
            assert len(g.nodes) == len(inst.applicants) + len(inst.courses) + len(mu)


def test_arc_weight_closure(fleet):
    rng = random.Random(4)
    for inst in rng.sample(fleet, 10):
        for mu in enumerate_feasible_matchings(inst):
            g = build_envy_graph(inst, mu)
            for u, v, w in g.arcs:
                assert w in (0, -1)
                if u[0] == "c":
                    assert w == 0
                    assert len(mu.of_course(u[1])) < inst.capacity[u[1]]
                if u[0] == "a":
                    assert w == -1
                    assert len(mu.of_applicant(u[1])) < inst.quota[u[1]]


def test_negative_cycle_found_for_dominated_matching(t1):
    mu = Matching([("a1", "c3")])
    witness = find_negative_cycle(build_envy_graph(t1, mu))
    assert witness is not None
    assert witness.weight <= -1
    weights = {(u, v): w for u, v, w in build_envy_graph(t1, mu).arcs}
    n = len(witness.nodes)
    for i in range(n):
        assert (witness.nodes[i], witness.nodes[(i + 1) % n]) in weights


def test_no_negative_cycle_for_pom(ex1):
    assert find_negative_cycle(build_envy_graph(ex1, MU1)) is None


def test_empty_graph():
    empty = Instance.build([], [])
    g = build_envy_graph(empty, Matching())
    assert find_negative_cycle(g) is None


def test_detection_is_deterministic(t1):
    mu = Matching([("a1", "c3")])
    w1 = find_negative_cycle(build_envy_graph(t1, mu))
    w2 = find_negative_cycle(build_envy_graph(t1, mu))
    assert w1 == w2


# ----------------------------------------------------------------------
# Pseudocoalition reduction.
# ----------------------------------------------------------------------

def test_reduce_identity_on_genuine_coalition(ex1):
    mu = Matching([("a2", "c1")])
    pseudo = Pseudocoalition(CoalitionKind.AUGMENTING_PATH, ("a1",), ("c2",))
    out = reduce_pseudocoalition(ex1, mu, pseudo)
    assert out == ImprovingCoalition(
        CoalitionKind.AUGMENTING_PATH, ("a1",), ("c2",))


def test_reduce_rejects_non_pseudocoalition(ex1):
    mu = Matching([("a2", "c1")])
    bad = Pseudocoalition(CoalitionKind.AUGMENTING_PATH, ("a2",), ("c2",))
    with pytest.raises(CoalitionError, match="not a pseudocoalition"):
        reduce_pseudocoalition(ex1, mu, bad)


def test_reduce_repeated_course():
    inst = Instance.build(
        [("c2", 2), ("c3", 1)],
        [("a1", 1, [["c2"]]),
         ("a2", 1, [["c2", "c3"]]),
         ("a3", 1, [["c2", "c3"]])],
    )
    mu = Matching([("a2", "c2"), ("a3", "c3")])
    pseudo = Pseudocoalition(
        CoalitionKind.AUGMENTING_PATH, ("a1", "a2", "a3"), ("c2", "c3", "c2"))
    assert pseudocoalition_error(inst, mu, pseudo) is None
    out = reduce_pseudocoalition(inst, mu, pseudo)
    assert out == ImprovingCoalition(
        CoalitionKind.AUGMENTING_PATH, ("a1",), ("c2",))


def test_reduce_repeated_leading_applicant():
    inst = Instance.build(
        [("c2", 1), ("c3", 1), ("c4", 1)],
        [("a1", 2, [["c2"], ["c3", "c4"]]),
         ("a2", 1, [["c2", "c3"]])],
    )
    mu = Matching([("a2", "c2"), ("a1", "c3")])
    pseudo = Pseudocoalition(
        CoalitionKind.AUGMENTING_PATH, ("a1", "a2", "a1"), ("c2", "c3", "c4"))
    assert pseudocoalition_error(inst, mu, pseudo) is None
    out = reduce_pseudocoalition(inst, mu, pseudo)
    assert out == ImprovingCoalition(
        CoalitionKind.AUGMENTING_PATH, ("a1",), ("c4",))


def test_reduce_mid_repeat_closes_into_cycle():
    # the stretch between two visits of a1 trades strictly up, so it closes
    # into a cyclic coalition
    inst = Instance.build(
        [("c1", 1), ("c2", 1), ("c3", 1), ("c4", 1)],
        [("a0", 1, [["c1"]]),
         ("a1", 2, [["c1", "c2"], ["c3", "c4"]]),
         ("a2", 1, [["c2", "c3"]])],
    )
    mu = Matching([("a1", "c1"), ("a2", "c2"), ("a1", "c3")])
    pseudo = Pseudocoalition(
        CoalitionKind.AUGMENTING_PATH,
        ("a0", "a1", "a2", "a1"),
        ("c1", "c2", "c3", "c4"),
    )
    assert pseudocoalition_error(inst, mu, pseudo) is None
    out = reduce_pseudocoalition(inst, mu, pseudo)
    assert out == ImprovingCoalition(
        CoalitionKind.CYCLIC, ("a1", "a2"), ("c3", "c2"))
    assert coalition_error(inst, mu, out) is None
    better = satisfy_coalition(inst, mu, out)
    assert pareto_dominates(inst, better, mu)


def test_reduce_repeated_leading_course_closes_prefix():
    # c1 opens the sequence and shows up again later; the prefix is a cycle
    inst = Instance.build(
        [("c1", 2), ("c2", 1), ("c4", 1)],
        [("a1", 1, [["c2"], ["c1"]]),
         ("a2", 1, [["c1", "c2"]]),
         ("a3", 1, [["c1", "c4"]])],
    )
    mu = Matching([("a1", "c1"), ("a2", "c2"), ("a3", "c1")])
    pseudo = Pseudocoalition(
        CoalitionKind.ALTERNATING_PATH,
        ("a1", "a2", "a3"),
        ("c1", "c2", "c1", "c4"),
    )
    assert pseudocoalition_error(inst, mu, pseudo) is None
    out = reduce_pseudocoalition(inst, mu, pseudo)
    assert out == ImprovingCoalition(
        CoalitionKind.CYCLIC, ("a1", "a2"), ("c1", "c2"))
    assert pareto_dominates(inst, satisfy_coalition(inst, mu, out), mu)


def _trailing_repeat_setup(a2_prefs):
    inst = Instance.build(
        [("c1", 1), ("c2", 1), ("c3", 1), ("c4", 1)],
        [("a1", 1, [["c2"], ["c1"]]),
         ("a2", 2, a2_prefs),
         ("a3", 1, [["c3", "c4"]])],
    )
    mu = Matching([("a1", "c1"), ("a2", "c2"), ("a3", "c3"), ("a2", "c4")])
    pseudo = Pseudocoalition(
        CoalitionKind.CYCLIC,
        ("a1", "a2", "a3", "a2"),
        ("c1", "c2", "c3", "c4"),
    )
    return inst, mu, pseudo


def test_reduce_trailing_repeat_strict_stretch():
    # the stretch between the two a2 visits trades strictly up: keep it
    inst, mu, pseudo = _trailing_repeat_setup([["c1", "c3"], ["c2", "c4"]])
    assert pseudocoalition_error(inst, mu, pseudo) is None
    out = reduce_pseudocoalition(inst, mu, pseudo)
    assert out == ImprovingCoalition(
        CoalitionKind.CYCLIC, ("a2", "a3"), ("c4", "c3"))
    assert pareto_dominates(inst, satisfy_coalition(inst, mu, out), mu)


def test_reduce_trailing_repeat_weak_stretch():
    # the stretch only breaks even for a2: cut the tail instead
    inst, mu, pseudo = _trailing_repeat_setup([["c1"], ["c3", "c4"], ["c2"]])
    assert pseudocoalition_error(inst, mu, pseudo) is None
    out = reduce_pseudocoalition(inst, mu, pseudo)
    assert out == ImprovingCoalition(
        CoalitionKind.CYCLIC, ("a1", "a2"), ("c1", "c2"))
    assert pareto_dominates(inst, satisfy_coalition(inst, mu, out), mu)


def test_reduce_mid_repeat_weak_stretch_splices():
    # a1 reappears mid-path without strict gain in between; splice it out
    inst = Instance.build(
        [("c1", 1), ("c2", 1), ("c3", 1), ("c4", 1)],
        [("a0", 1, [["c1"]]),
         ("a1", 2, [["c2", "c3", "c4"], ["c1"]]),
         ("a2", 1, [["c2", "c3"]])],
    )
    mu = Matching([("a1", "c1"), ("a2", "c2"), ("a1", "c3")])
    pseudo = Pseudocoalition(
        CoalitionKind.AUGMENTING_PATH,
        ("a0", "a1", "a2", "a1"),
        ("c1", "c2", "c3", "c4"),
    )
    assert pseudocoalition_error(inst, mu, pseudo) is None
    out = reduce_pseudocoalition(inst, mu, pseudo)
    assert out == ImprovingCoalition(
        CoalitionKind.AUGMENTING_PATH, ("a0", "a1"), ("c1", "c4"))
    assert pareto_dominates(inst, satisfy_coalition(inst, mu, out), mu)


def test_reduce_never_grows_and_output_is_valid(fleet):
    rng = random.Random(77)
    for inst in rng.sample(fleet, 15):
        for mu in enumerate_feasible_matchings(inst):
            g = build_envy_graph(inst, mu)
            witness = find_negative_cycle(g)
            if witness is None:
                continue
            coalition = extract_improving_coalition(inst, mu, witness)
            assert coalition_error(inst, mu, coalition) is None
            assert len(coalition.applicants) + len(coalition.courses) <= 2 * len(
                witness.nodes)


# ----------------------------------------------------------------------
# Witness extraction, by kind.
# ----------------------------------------------------------------------

def test_extract_cyclic_from_pair_only_cycle():
    inst = Instance.build(
        [("c1", 1), ("c2", 1)],
        [("a1", 1, [["c2"], ["c1"]]), ("a2", 1, [["c1"], ["c2"]])],
    )
    mu = Matching([("a1", "c1"), ("a2", "c2")])
    witness = find_negative_cycle(build_envy_graph(inst, mu))
    assert witness is not None
    assert all(node[0] == "p" for node in witness.nodes)
    coalition = extract_improving_coalition(inst, mu, witness)
    assert coalition.kind is CoalitionKind.CYCLIC
    assert satisfy_coalition(inst, mu, coalition) == Matching(
        [("a1", "c2"), ("a2", "c1")])


def test_extract_augmenting_through_exposed_applicant(ex1):
    mu = Matching([("a2", "c1")])
    witness = find_negative_cycle(build_envy_graph(ex1, mu))
    coalition = extract_improving_coalition(ex1, mu, witness)
    assert coalition.kind is CoalitionKind.AUGMENTING_PATH
    assert satisfy_coalition(ex1, mu, coalition) == Matching(
        [("a2", "c1"), ("a1", "c2")])


def test_extract_alternating_from_full_applicant():
    inst = Instance.build(
        [("c1", 1), ("c2", 1)],
        [("a1", 1, [["c2"], ["c1"]])],
    )
    mu = Matching([("a1", "c1")])
    witness = find_negative_cycle(build_envy_graph(inst, mu))
    coalition = extract_improving_coalition(inst, mu, witness)
    assert coalition.kind is CoalitionKind.ALTERNATING_PATH
    assert coalition == ImprovingCoalition(
        CoalitionKind.ALTERNATING_PATH, ("a1",), ("c1", "c2"))


def test_extract_rejects_inconsistent_witness(ex1):
    mu = Matching([("a2", "c1")])
    fake = CycleWitness(((("a", "a1"), ("c", "c1"))), -1)
    with pytest.raises(CoalitionError):
        extract_improving_coalition(ex1, mu, fake)
    zero = CycleWitness((("p", "a2", "c1"),), 0)
    with pytest.raises(CoalitionError):
        extract_improving_coalition(ex1, mu, zero)
    with pytest.raises(CoalitionError, match="empty"):
        extract_improving_coalition(ex1, mu, CycleWitness((), 0))


@pytest.mark.parametrize("odd", [["a", "a1"], ("a", 1), ("z", "a1"), ("p", "a2", "c1", "x")])
def test_extract_rejects_witness_nodes_outside_the_graph(ex1, odd):
    # A list cannot be hashed, ("a", 1) does not compare with the tagged
    # nodes, and the other two sort past or between them: none is a node.
    mu = Matching([("a2", "c1")])
    for nodes in [(odd, ("c", "c1")), (("a", "a1"), odd)]:
        with pytest.raises(CoalitionError, match="witness uses a non-arc"):
            extract_improving_coalition(ex1, mu, CycleWitness(nodes, -1))


def test_a_two_node_witness_is_refused_exactly_when_an_arc_is_missing():
    """Every ordered pair of distinct nodes as a 2-cycle witness, on each
    worked example and up to 40 of its feasible matchings: refused as a
    non-arc exactly when either arc is missing from the expanded graph. Of
    the 2-cycles accepted, 170 start at an exposed course, whose arcs enter
    the fan hub."""
    checked = from_course = 0
    for inst in worked_examples().values():
        for mu in enumerate_feasible_matchings(inst)[:40]:
            graph = build_envy_graph(inst, mu)
            arcs = {(u, v) for u, v, _ in graph.arcs}
            for u, v in itertools.permutations(graph.nodes, 2):
                missing = (u, v) not in arcs or (v, u) not in arcs
                try:
                    extract_improving_coalition(inst, mu, CycleWitness((u, v), -1))
                    refused = False
                except CoalitionError as error:
                    refused = "witness uses a non-arc" in str(error)
                assert refused == missing, (u, v)
                checked += 1
                from_course += not missing and u[0] == "c"
    assert (checked, from_course) == (3742, 170)


# ----------------------------------------------------------------------
# The verifier against brute force.
# ----------------------------------------------------------------------

def test_verifier_known_verdicts(ex1):
    assert is_pareto_optimal(ex1, MU1)
    check = is_pareto_optimal(ex1, Matching([("a2", "c1")]))
    assert not check
    assert check.dominating == Matching([("a2", "c1"), ("a1", "c2")])


def test_verifier_empty_instance():
    empty = Instance.build([], [])
    assert is_pareto_optimal(empty, Matching())


def test_verifier_rejects_infeasible(t1):
    with pytest.raises(FeasibilityError):
        is_pareto_optimal(t1, Matching([("a2", "c2"), ("a3", "c2")]))


def test_verifier_agrees_with_bruteforce_on_small_instances():
    for inst in random_small_instances(60):
        pool = enumerate_feasible_matchings(inst)
        profiles = [preference_profile(inst, m) for m in pool]
        for i, mu in enumerate(pool):
            dominated = any(
                profile_dominates(profiles[j], profiles[i])
                for j in range(len(pool))
                if j != i
            )
            check = is_pareto_optimal(inst, mu)
            assert bool(check) == (not dominated)
            if not check:
                assert coalition_error(inst, mu, check.coalition) is None
                assert is_feasible(inst, check.dominating) is None
                assert pareto_dominates(inst, check.dominating, mu)
