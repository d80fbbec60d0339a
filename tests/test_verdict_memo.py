"""A positive verdict is kept on the matching, with its envy graph, for the
instance object it was reached under; a negative one is never kept, the kept
one never changes what a matching compares, hashes or prints as, and
``derive_ordering`` reads its pair order off the kept graph."""

import pytest

from camatch import (
    Instance,
    Matching,
    NotParetoOptimalError,
    check_reachability,
    coalition_error,
    derive_ordering,
    enumerate_poms,
    is_pareto_optimal,
    pareto_dominates,
    run_gsdt,
    satisfy_coalition,
)
from camatch import envy
from camatch.gsdt import _pair_priority_order
from camatch.instance import with_prefs
from instances import correlated_instance


@pytest.fixture
def builds(monkeypatch):
    """The envy graphs built while the test runs, one entry per build."""
    built = []
    original = envy.build_envy_graph

    def counted(instance, matching):
        built.append(matching)
        return original(instance, matching)

    monkeypatch.setattr(envy, "build_envy_graph", counted)
    return built


@pytest.fixture
def envied(monkeypatch):
    """The pairs whose weak-envy relation is computed while the test runs."""
    pairs = []
    original = envy.weakly_envied

    def counted(instance, matching, a, c):
        pairs.append((a, c))
        return original(instance, matching, a, c)

    monkeypatch.setattr(envy, "weakly_envied", counted)
    return pairs


def swap_instance():
    """Both applicants rank c1 over c2, so giving a1 c1 and a2 c2 is optimal."""
    return Instance.build(
        courses=[("c1", 1), ("c2", 1)],
        applicants=[("a1", 1, [["c1"], ["c2"]]), ("a2", 1, [["c1"], ["c2"]])],
    )


def test_a_positive_verdict_does_not_carry_to_another_instance(builds):
    inst = swap_instance()
    mu = Matching([("a1", "c1"), ("a2", "c2")])
    assert is_pareto_optimal(inst, mu)
    # Once a1 ranks c2 first, she and a2 both gain by swapping.
    lying = with_prefs(inst, "a1", [["c2"], ["c1"]])
    check = is_pareto_optimal(lying, mu)
    assert not check
    assert coalition_error(lying, mu, check.coalition) is None
    assert pareto_dominates(lying, check.dominating, mu)
    assert check.dominating == Matching([("a1", "c2"), ("a2", "c1")])
    assert len(builds) == 2
    # The positive verdict under the first instance object still stands.
    assert is_pareto_optimal(inst, mu)
    assert len(builds) == 2


def test_an_equal_instance_object_verifies_afresh(builds):
    mu = Matching([("a1", "c1"), ("a2", "c2")])
    assert is_pareto_optimal(swap_instance(), mu)
    assert is_pareto_optimal(swap_instance(), mu)
    assert len(builds) == 2


def test_a_negative_verdict_is_built_afresh_every_time(builds):
    inst = swap_instance()
    dominated = Matching([("a2", "c2")])
    first = is_pareto_optimal(inst, dominated)
    second = is_pareto_optimal(inst, dominated)
    assert not first and not second
    assert len(builds) == 2
    assert first == second
    assert first.coalition is not second.coalition
    assert coalition_error(inst, dominated, second.coalition) is None
    assert pareto_dominates(inst, second.dominating, dominated)


def test_the_kept_verdict_is_not_part_of_the_value():
    inst = swap_instance()
    marked = Matching([("a1", "c1"), ("a2", "c2")])
    unmarked = Matching([("a2", "c2"), ("a1", "c1")])
    assert is_pareto_optimal(inst, marked)
    assert marked._optimal_in is inst and unmarked._optimal_in is None
    assert marked == unmarked and unmarked == marked
    assert hash(marked) == hash(unmarked)
    assert repr(marked) == repr(unmarked)
    assert {marked, unmarked} == {unmarked}


def test_derive_ordering_after_a_positive_verdict_builds_no_graph(builds, t1):
    for pom in enumerate_poms(t1).poms:
        expected = derive_ordering(t1, Matching(pom.pairs))  # verifies an equal copy
        assert is_pareto_optimal(t1, pom)
        del builds[:]
        assert derive_ordering(t1, pom) == expected
        assert builds == []


def test_derive_ordering_still_refuses_a_dominated_matching_afresh(builds, t1):
    dominated = Matching([("a1", "c1")])
    for _ in range(2):
        with pytest.raises(NotParetoOptimalError):
            derive_ordering(t1, dominated)
    assert len(builds) == 2


def test_check_reachability_builds_one_graph_per_optimum(builds, t1):
    report = check_reachability(t1)
    assert report.all_reproduced
    assert len(builds) == len(report.entries) == 11
    assert sorted(builds, key=lambda m: m.canonical_pairs()) == sorted(
        (e.pom for e in report.entries), key=lambda m: m.canonical_pairs())


def test_a_verified_optimum_skips_the_pair_scan(monkeypatch):
    # The kept verdict stands for a scan the matching passed before it was
    # verified, so the guided replay's feasibility gate reads no pair; a
    # matching verified under another instance object is scanned.
    from camatch import GuidedToward, generate_random_instance, is_feasible, run_gsdt

    inst = generate_random_instance(40, 15, 3, 4, 0.4, seed=1)
    ordering = [a for a in sorted(inst.applicants) for _ in range(inst.quota[a])]
    mu = run_gsdt(inst, ordering).matching
    derived = derive_ordering(inst, mu)  # verifies mu and keeps the verdict
    other = Instance.build(
        [(c, inst.capacity[c]) for c in inst.courses],
        [(a, inst.quota[a], [sorted(t) for t in inst.prefs[a]]) for a in inst.applicants])
    assert other == inst and other is not inst

    def no_scan(self, applicant):
        raise AssertionError("a pair was scanned")

    monkeypatch.setattr(Instance, "acceptable", no_scan)
    assert is_feasible(inst, mu) is None
    assert run_gsdt(inst, derived, GuidedToward(mu)).matching == mu
    with pytest.raises(AssertionError, match="a pair was scanned"):
        is_feasible(other, mu)


def test_derive_ordering_reads_the_verdicts_graph_computing_no_envy(builds, envied):
    inst = correlated_instance(40, 15, 3, 4, 0.4, 1)
    mu = run_gsdt(inst, [a for a in inst.applicants for _ in range(inst.quota[a])]).matching
    order = _pair_priority_order(inst, Matching(mu.pairs))  # a copy builds a graph of its own
    del builds[:], envied[:]
    assert is_pareto_optimal(inst, mu)
    assert len(builds) == 1 and sorted(envied) == mu.canonical_pairs()
    kept = mu._graph
    del builds[:], envied[:]
    derived = derive_ordering(inst, mu)
    assert builds == [] and envied == [] and mu._graph is kept
    assert derived[:len(mu)] == tuple(a for a, _ in order)


def test_an_equal_instance_object_derives_off_a_graph_of_its_own(builds, envied):
    mu = Matching([("a1", "c1"), ("a2", "c2")])
    first, other = swap_instance(), swap_instance()
    assert is_pareto_optimal(first, mu)
    kept = mu._graph
    del envied[:]
    # a2's seat comes after a1's, the course she envies.
    assert derive_ordering(other, mu) == ("a1", "a2")
    assert len(builds) == 2 and sorted(envied) == mu.canonical_pairs()
    assert mu._optimal_in is other and mu._graph is not kept


def test_the_pair_order_reads_no_graph_kept_for_another_instance():
    inst = swap_instance()
    mu = Matching([("a1", "c1"), ("a2", "c2")])
    assert is_pareto_optimal(inst, mu)
    # Once both rank c2 first, a1's seat envies a2's and a2's envies none.
    flipped = with_prefs(with_prefs(inst, "a1", [["c2"], ["c1"]]), "a2", [["c2"], ["c1"]])
    assert _pair_priority_order(flipped, mu) == [("a2", "c2"), ("a1", "c1")]
    assert _pair_priority_order(inst, mu) == [("a1", "c1"), ("a2", "c2")]
    assert mu._optimal_in is inst


def test_only_a_positive_verdict_keeps_a_graph():
    inst = swap_instance()
    mu = Matching([("a1", "c1"), ("a2", "c2")])
    dominated = Matching([("a2", "c2")])
    assert is_pareto_optimal(inst, mu) and not is_pareto_optimal(inst, dominated)
    assert mu._graph is not None
    # Under a lie mu is dominated; its graph under inst stays, and the
    # matchings traded from it carry none.
    lying = with_prefs(inst, "a1", [["c2"], ["c1"]])
    check = is_pareto_optimal(lying, mu)
    assert not check and mu._optimal_in is inst and mu._graph is not None
    traded = satisfy_coalition(lying, mu, check.coalition)
    for unkept in (dominated, check.dominating, traded, Matching(mu.pairs)):
        assert unkept._optimal_in is None and unkept._graph is None
