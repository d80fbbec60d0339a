"""Brute-force enumeration, reachability, misreports, impossibility."""

import itertools
import random
from unittest import mock

import pytest

from camatch import (
    Instance,
    InstanceSemanticError,
    Matching,
    MisreportStatus,
    SearchLimitExceeded,
    check_reachability,
    enumerate_feasible_matchings,
    enumerate_poms,
    find_beneficial_misreport,
    generate_random_instance,
    is_pareto_optimal,
    run_gsdt,
    verify_impossibility_scenario,
)
from camatch import oracle
from camatch.oracle import (
    MisreportSearch,
    _applicant_choices,
    _ordered_partitions,
    distinct_orderings,
    misreport_space,
    with_prefs,
)
from instances import consecutive_orderings, random_small_instances

MU1 = Matching([("a1", "c2"), ("a2", "c1")])
MU2 = Matching([("a1", "c1"), ("a1", "c2")])


def test_enumerate_feasible_tiny():
    inst = Instance.build([("c1", 1)], [("a1", 1, [["c1"]])])
    pool = enumerate_feasible_matchings(inst)
    assert pool == [Matching(), Matching([("a1", "c1")])]


def test_enumerate_feasible_manipulation(ex1):
    # hand count: a1 takes a subset of {c1,c2}, a2 takes c1 or nothing,
    # minus the two c1 conflicts
    pool = enumerate_feasible_matchings(ex1)
    assert len(pool) == 6
    assert Matching() in pool
    assert MU1 in pool and MU2 in pool


def test_enumerate_feasible_no_acceptables():
    inst = Instance.build([("c1", 1)], [("a1", 2, [])])
    assert enumerate_feasible_matchings(inst) == [Matching()]


def test_enumerate_feasible_no_applicants_checks_the_limit():
    # No applicants: the space is the empty product, 1.
    inst = Instance.build([("c1", 1)], [])
    assert enumerate_feasible_matchings(inst, limit=1) == [Matching()]
    with pytest.raises(SearchLimitExceeded):
        enumerate_feasible_matchings(inst, limit=0)


def test_enumerate_feasible_deeper_than_recursion_limit():
    # one applicant per level of the search: 1500 levels, a single matching
    inst = Instance.build([("c1", 1)], [(f"a{i}", 1, []) for i in range(1500)])
    assert enumerate_feasible_matchings(inst) == [Matching()]


def test_enumerate_limit():
    inst = Instance.build(
        [(f"c{i}", 1) for i in range(1, 9)],
        [(f"a{i}", 4, [[f"c{j}" for j in range(1, 9)]]) for i in range(1, 7)],
    )
    with pytest.raises(SearchLimitExceeded):
        enumerate_feasible_matchings(inst, limit=1000)


def stack_feasible_matchings(instance):
    """Reference: the depth-first search with an explicit stack that the
    level-wise enumeration replaced, with the same canonical sort."""
    applicants = instance.applicants
    results = [] if applicants else [Matching()]
    usage = {c: 0 for c in instance.courses}
    chosen = []
    # One iterator over the remaining choices of each applicant on the branch.
    frames = [iter(_applicant_choices(instance, a)) for a in applicants[:1]]
    while frames:
        if len(chosen) == len(frames):  # retract this applicant's last choice
            for c in chosen.pop():
                usage[c] -= 1
        combo = next(frames[-1], None)
        if combo is None:
            frames.pop()
        elif all(usage[c] < instance.capacity[c] for c in combo):
            for c in combo:
                usage[c] += 1
            chosen.append(combo)
            if len(chosen) == len(applicants):
                results.append(Matching(
                    (a, c) for a, held in zip(applicants, chosen) for c in held))
            else:
                frames.append(iter(_applicant_choices(instance, applicants[len(chosen)])))
    results.sort(key=lambda m: tuple(m.canonical_pairs()))
    return results


def test_enumeration_matches_the_stack_search_on_the_fleets(fleet):
    for inst in fleet + random_small_instances(200):
        assert enumerate_feasible_matchings(inst) == stack_feasible_matchings(inst)


def test_enumeration_matches_the_stack_search_up_to_five_by_five():
    # Up to 2,824 matchings an instance, all within the limit.
    rng = random.Random(29)
    for seed in range(300):
        inst = generate_random_instance(
            rng.randint(0, 5), rng.randint(0, 5), rng.randint(1, 3),
            rng.randint(1, 3), rng.choice([0.0, 0.3, 0.6, 1.0]), seed=seed)
        pool = enumerate_feasible_matchings(inst, limit=50_000)
        assert pool == stack_feasible_matchings(inst)


def test_pom_catalog_manipulation(ex1):
    catalog = enumerate_poms(ex1)
    assert set(catalog.poms) == {MU1, MU2}
    assert catalog.examined == 6
    assert catalog.fingerprint == ex1.fingerprint()


def test_pom_catalog_impossibility_family(impossibility_family):
    counts = {k: len(enumerate_poms(inst).poms) for k, inst in impossibility_family.items()}
    assert counts == {1: 3, 2: 2, 3: 2, 4: 2}
    mu_i1 = set(enumerate_poms(impossibility_family[1]).poms)
    assert mu_i1 == {
        Matching([("a1", "c1"), ("a2", "c2")]),
        MU2,
        MU1,
    }
    assert set(enumerate_poms(impossibility_family[4]).poms) == {MU2, MU1}


def test_catalog_entries_are_mutually_undominated(fleet):
    from camatch.oracle import preference_profile, profile_dominates

    rng = random.Random(21)
    for inst in rng.sample(fleet, 12):
        catalog = enumerate_poms(inst)
        profs = [preference_profile(inst, m) for m in catalog.poms]
        for i in range(len(profs)):
            assert is_pareto_optimal(inst, catalog.poms[i])
            for j in range(len(profs)):
                if i != j:
                    assert not profile_dominates(profs[i], profs[j])


def test_reachability_manipulation(ex1):
    report = check_reachability(ex1)
    assert report.all_reproduced
    assert report.sweep_ran and report.sweep_orderings == 3
    assert set(report.sweep_outputs) == {MU1, MU2}
    assert report.sweep_outputs_all_pom
    # the specific ordering-to-outcome map
    assert run_gsdt(ex1, ("a1", "a1", "a2")).matching == MU2
    assert run_gsdt(ex1, ("a1", "a2", "a1")).matching == MU1
    assert any(e.ordering == ("a1", "a1", "a2") for e in report.entries)


def test_reachability_walkthrough(t1):
    report = check_reachability(t1)
    assert report.all_reproduced
    assert report.sweep_ran  # B = 7
    assert report.sweep_outputs_all_pom


def test_reachability_skips_sweep_when_quota_large():
    inst = Instance.build(
        [("c1", 3), ("c2", 3), ("c3", 3)],
        [(f"a{k}", 3, [["c1", "c2", "c3"]]) for k in (1, 2, 3)],
    )
    report = check_reachability(inst)  # total quota 9
    assert not report.sweep_ran
    assert report.sweep_orderings == 0
    assert report.all_reproduced


def test_canonical_outputs_always_poms(fleet):
    rng = random.Random(23)
    for inst in rng.sample(fleet, 15):
        poms = set(enumerate_poms(inst).poms)
        for sigma in distinct_orderings(inst):
            assert run_gsdt(inst, sigma).matching in poms


def test_misreport_space_size(ex1):
    # 2 acceptable courses: empty list, two singletons, and the three
    # orderings-with-ties of both
    assert sum(1 for _ in misreport_space(ex1, "a1")) == 6
    inst3 = Instance.build(
        [("c1", 1), ("c2", 1), ("c3", 1)],
        [("a1", 1, [["c1"], ["c2"], ["c3"]])],
    )
    assert sum(1 for _ in misreport_space(inst3, "a1")) == 26


def test_the_per_size_count_is_the_number_of_ordered_partitions():
    counts = [oracle._ordered_partition_count(k) for k in range(8)]
    assert counts == [sum(1 for _ in _ordered_partitions(tuple(range(k)))) for k in range(8)]
    assert counts == [1, 1, 3, 13, 75, 541, 4683, 47293]


@pytest.mark.parametrize("n", range(6))
def test_a_search_no_list_can_win_counts_the_space_in_closed_form(n):
    """a1, served first, takes her ``quota`` best courses, so no subset's
    bound beats the truthful outcome: the search enumerates no list and
    returns the space's size in closed form, which is the number of lists
    ``misreport_space`` yields. One less as a limit leaves it INCONCLUSIVE."""
    courses = [f"c{i}" for i in range(1, n + 1)]
    prefs = [ties for ties in (courses[:2], *([c] for c in courses[2:])) if ties]
    inst = Instance.build([(c, 1) for c in courses or ["c1"]],
                          [("a1", 2, prefs), ("a2", 1, [["c1"]])])
    space = sum(1 for _ in misreport_space(inst, "a1"))
    assert space == [1, 2, 6, 26, 150, 1082][n]
    real, walked = _ordered_partitions, []
    with mock.patch.object(oracle, "_ordered_partitions",
                           lambda items: walked.append(items) or real(items)):
        assert find_beneficial_misreport(inst, ("a1", "a1", "a2"), "a1") == MisreportSearch(
            MisreportStatus.NONE, None, space)
        assert find_beneficial_misreport(inst, ("a1", "a1", "a2"), "a1", space - 1) == (
            MisreportSearch(MisreportStatus.INCONCLUSIVE, None, space - 1))
    assert walked == []


def recursive_ordered_partitions(items):
    """The recursive definition, kept as the reference: each first block, by
    size and then in combinations order, followed by each ordered partition
    of the rest."""
    if not items:
        yield ()
        return
    for k in range(1, len(items) + 1):
        for block in itertools.combinations(items, k):
            rest = tuple(x for x in items if x not in block)
            for tail in recursive_ordered_partitions(rest):
                yield (frozenset(block),) + tail


def test_ordered_partitions_follow_the_recursive_definition():
    # The yield order fixes `examined` and the first FOUND of a search.
    courses = [f"c{i}" for i in range(1, 7)]
    for n in range(7):
        for items in itertools.permutations(courses, n):
            if n <= 4 or items == tuple(sorted(items)):
                assert list(_ordered_partitions(items)) == list(recursive_ordered_partitions(items))


def test_ordered_partitions_deeper_than_recursion_limit():
    items = tuple(f"c{i}" for i in range(3000))
    assert next(_ordered_partitions(items)) == tuple(frozenset([c]) for c in items)


def test_misreport_found(ex1):
    search = find_beneficial_misreport(ex1, ("a1", "a2", "a1"), "a1")
    assert search.status is MisreportStatus.FOUND
    finding = search.finding
    assert finding.fabricated_prefs == (frozenset({"c1"}), frozenset({"c2"}))
    assert finding.truthful_outcome == frozenset({"c2"})
    assert finding.lying_outcome == frozenset({"c1", "c2"})
    assert finding.strict_improvement
    # self-verification: replaying the fabricated profile reproduces the
    # recorded outcome
    replay = run_gsdt(
        with_prefs(ex1, "a1", finding.fabricated_prefs), finding.ordering)
    assert replay.matching.of_applicant("a1") == finding.lying_outcome


def test_misreport_none_for_consecutive(ex1):
    search = find_beneficial_misreport(ex1, ("a1", "a1", "a2"), "a1")
    assert search.status is MisreportStatus.NONE
    assert search.examined == 6  # the whole space, no early exit


def test_misreport_inconclusive_is_distinct(ex1):
    search = find_beneficial_misreport(
        ex1, ("a1", "a2", "a1"), "a1", search_limit=2)
    assert search.status is MisreportStatus.INCONCLUSIVE
    assert search.examined == 2
    assert "INCONCLUSIVE" in "\n".join(search.to_lines())


def test_misreport_rejects_unknown_applicant(ex1):
    with pytest.raises(InstanceSemanticError, match="unknown applicant 'zz'"):
        find_beneficial_misreport(ex1, ("a1", "a1", "a2"), "zz")


def test_misreport_none_when_quotas_are_one(fleet):
    # unit quotas make the mechanism immune under every ordering
    ones = [inst for inst in fleet
            if inst.applicants and all(b == 1 for b in inst.quota.values())]
    rng = random.Random(29)
    for inst in rng.sample(ones, 6):
        for sigma in distinct_orderings(inst):
            for a in inst.applicants:
                search = find_beneficial_misreport(inst, sigma, a)
                assert search.status is MisreportStatus.NONE


def test_consecutive_orderings_shape(t1):
    blocks = list(consecutive_orderings(t1))
    assert len(blocks) == 6
    assert ("a1", "a1", "a2", "a2", "a2", "a3", "a3") in blocks
    for sigma in blocks:
        assert len(sigma) == t1.total_quota()


def test_distinct_orderings_count(ex1):
    # 3 slots, a1 twice and a2 once: 3 distinct sequences
    assert len(list(distinct_orderings(ex1))) == 3


def test_distinct_orderings_lexicographic_without_repeats(t1):
    units = [a for a in t1.applicants for _ in range(t1.quota[a])]
    assert list(distinct_orderings(t1)) == sorted(set(itertools.permutations(units)))


def test_distinct_orderings_deeper_than_recursion_limit():
    # one quota unit per level of the search
    inst = Instance.build([("c1", 1)], [("a1", 1200, [])])
    assert next(distinct_orderings(inst)) == ("a1",) * 1200


def test_impossibility_scenario():
    report = verify_impossibility_scenario()
    assert report.confirmed
    assert report.pom_counts == (("I1", 3), ("I2", 2), ("I3", 2), ("I4", 2))
    assert report.catalogs_match
    assert report.forces_mu2_on_i2.improves
    assert report.forces_mu2_on_i2.truthful_outcome == frozenset({"c2"})
    assert report.forces_mu2_on_i2.lying_outcome == frozenset({"c1"})
    assert report.forces_mu2_on_i3.improves
    assert report.i4_choice_mu2_fails.improves
    assert report.i4_choice_mu3_fails.truthful_outcome == frozenset()
    assert report.i4_choice_mu3_fails.lying_outcome == frozenset({"c1"})
