"""Acceptance criteria, one test per criterion.

Every check is exact (the expected values are combinatorial facts); the
stated wall-clock budgets are asserted where the criterion carries one.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.
"""

import random
import time
from contextlib import contextmanager

import pytest

from camatch import (
    GuidedToward,
    Matching,
    MisreportStatus,
    coalition_error,
    derive_ordering,
    enumerate_feasible_matchings,
    enumerate_poms,
    find_beneficial_misreport,
    generate_random_instance,
    is_feasible,
    is_pareto_optimal,
    pareto_dominates,
    run_gsdt,
    verify_impossibility_scenario,
)
from camatch.oracle import (
    distinct_orderings,
    preference_profile,
    profile_dominates,
    with_prefs,
)
from instances import (
    capacity_history,
    consecutive_orderings,
    fixture_instances,
    probes,
    random_small_instances,
    with_quotas,
    worked_example,
    worked_examples,
)

MU1 = Matching([("a1", "c2"), ("a2", "c1")])
MU2 = Matching([("a1", "c1"), ("a1", "c2")])


@contextmanager
def criterion(num: int, name: str, budget: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num} took {elapsed:.1f}s, budget {budget}s")
        print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s < {budget:g}s)")
    else:
        print(f"\nACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_manipulation_reproduction():
    with criterion(1, "manipulation-instance reproduction", 1.0):
        ex1 = worked_example("manipulation")
        assert run_gsdt(ex1, ("a1", "a2", "a1")).matching == MU1
        lying = with_prefs(ex1, "a1", [["c1"], ["c2"]])
        assert run_gsdt(lying, ("a1", "a2", "a1")).matching == MU2
        search = find_beneficial_misreport(ex1, ("a1", "a2", "a1"), "a1")
        assert search.status is MisreportStatus.FOUND
        assert search.finding.lying_outcome == frozenset({"c1", "c2"})
        assert search.finding.strict_improvement


def test_criterion_2_figure2_catalogs():
    with criterion(2, "impossibility-family catalogs", 1.0):
        expected = {
            1: {Matching([("a1", "c1"), ("a2", "c2")]), MU2, MU1},
            2: {MU2, MU1},
            3: {MU2, MU1},
            4: {MU2, MU1},
        }
        for k, poms in expected.items():
            assert set(enumerate_poms(worked_example(f"impossibility_i{k}")).poms) == poms
        report = verify_impossibility_scenario()
        assert report.confirmed


def test_criterion_3_walkthrough_trace():
    with criterion(3, "walkthrough capacity trace", 1.0):
        t1 = worked_example("walkthrough")
        result = run_gsdt(t1, ("a1", "a1", "a2", "a2", "a3", "a2", "a3"))
        assert capacity_history(t1, result.ordering) == (
            (0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0),
            (2, 2, 0), (2, 2, 1), (2, 3, 1), (2, 3, 2),
        )
        assert is_pareto_optimal(t1, result.matching)
        pool = enumerate_feasible_matchings(t1)
        target = preference_profile(t1, result.matching)
        assert not any(
            profile_dominates(preference_profile(t1, other), target)
            for other in pool
        )


@pytest.fixture(scope="module")
def verifier_vs_oracle_sweep():
    """Shared by criteria 4 and 8: exhaustive agreement sweep that also
    witness-checks every negative verdict."""
    start = time.perf_counter()
    instances = random_small_instances(200)
    stats = {
        "instances": len(instances),
        "matchings": 0,
        "disagreements": 0,
        "negatives": 0,
        "witness_failures": 0,
    }
    for inst in instances:
        pool = enumerate_feasible_matchings(inst)
        profiles = [preference_profile(inst, m) for m in pool]
        for i, mu in enumerate(pool):
            dominated = any(
                profile_dominates(profiles[j], profiles[i])
                for j in range(len(pool))
                if j != i
            )
            check = is_pareto_optimal(inst, mu)
            stats["matchings"] += 1
            if bool(check) == dominated:
                stats["disagreements"] += 1
                continue
            if not check:
                stats["negatives"] += 1
                ok = (
                    coalition_error(inst, mu, check.coalition) is None
                    and is_feasible(inst, check.dominating) is None
                    and pareto_dominates(inst, check.dominating, mu)
                )
                if not ok:
                    stats["witness_failures"] += 1
    stats["elapsed"] = time.perf_counter() - start
    return stats


def test_criterion_4_oracle_equivalence(verifier_vs_oracle_sweep):
    stats = verifier_vs_oracle_sweep
    with criterion(4, "verifier agrees with brute force", 120.0):
        assert stats["instances"] >= 200
        assert stats["matchings"] > 0
        assert stats["disagreements"] == 0
        assert stats["elapsed"] < 120.0
        print(
            f"  checked {stats['matchings']} matchings over "
            f"{stats['instances']} instances in {stats['elapsed']:.2f}s",
            end="",
        )


def test_criterion_5_stagewise_pareto_optimality():
    with criterion(5, "every stage output optimal for its stage quotas", 300.0):
        fleet = [inst for inst in fixture_instances(50)
                 if inst.total_quota() <= 6]
        assert len(fleet) == 50
        prefixes = 0
        for inst in fleet:
            pool = enumerate_feasible_matchings(inst)
            profiles = {m: preference_profile(inst, m) for m in pool}
            stage_pools: dict = {}
            for sigma in distinct_orderings(inst):
                result = run_gsdt(inst, sigma)
                quotas = {a: 0 for a in inst.applicants}
                for rec in result.stages:
                    quotas[rec.applicant] += 1
                    key = tuple(sorted(quotas.items()))
                    if key not in stage_pools:
                        stage_pools[key] = [
                            m for m in pool
                            if all(
                                len(m.of_applicant(a)) <= q
                                for a, q in quotas.items()
                            )
                        ]
                    mine = profiles[rec.matching]
                    assert not any(
                        profile_dominates(profiles[m], mine)
                        for m in stage_pools[key]
                    ), (inst, sigma, rec.stage)
                    # dual route: the envy-graph verifier on the stage instance
                    assert is_pareto_optimal(
                        with_quotas(inst, quotas), rec.matching)
                    prefixes += 1
        print(f"  {prefixes} stage prefixes verified", end="")


def test_criterion_6_reachability():
    with criterion(6, "every catalogued optimum reproducible", 120.0):
        instances = list(worked_examples().values())
        instances += fixture_instances(50)
        poms_seen = 0
        for inst in instances:
            for pom in enumerate_poms(inst).poms:
                sigma = derive_ordering(inst, pom)
                produced = run_gsdt(inst, sigma, GuidedToward(pom)).matching
                assert produced == pom, (inst, pom)
                poms_seen += 1
        assert poms_seen > 0
        print(f"  {poms_seen} optima reproduced exactly", end="")


def test_criterion_7_truthfulness():
    with criterion(7, "no profitable misreport where theory forbids one", 600.0):
        fleet = fixture_instances(50)
        searches = 0
        # consecutive-block orderings: truthful for every applicant
        for inst in fleet:
            for sigma in consecutive_orderings(inst):
                for a in inst.applicants:
                    result = find_beneficial_misreport(inst, sigma, a)
                    assert result.status is MisreportStatus.NONE, (
                        inst, sigma, a)
                    searches += 1
        # unit quotas: truthful under every ordering
        for inst in fleet:
            if not all(b == 1 for b in inst.quota.values()):
                continue
            for sigma in distinct_orderings(inst):
                for a in inst.applicants:
                    result = find_beneficial_misreport(inst, sigma, a)
                    assert result.status is MisreportStatus.NONE, (
                        inst, sigma, a)
                    searches += 1
        print(f"  {searches} exhaustive searches, all NONE", end="")


def test_criterion_8_witness_soundness(verifier_vs_oracle_sweep):
    stats = verifier_vs_oracle_sweep
    with criterion(8, "every negative verdict ships a sound witness", None):
        assert stats["negatives"] > 0
        assert stats["witness_failures"] == 0
        print(f"  {stats['negatives']} negative verdicts witness-checked", end="")


def test_criterion_9_work_bounds():
    with criterion(9, "search counters within the linear work bound", None):
        fleet = fixture_instances(50) + [
            worked_example("walkthrough"), worked_example("manipulation")]
        runs = 0
        for inst in fleet:
            ties = sum(len(inst.prefs[a]) for a in inst.applicants)
            length = sum(
                len(t) for a in inst.applicants for t in inst.prefs[a])
            for sigma in consecutive_orderings(inst):
                result = run_gsdt(inst, sigma)
                assert result.searches <= len(result.matching) + ties
                assert all(
                    v <= 8 * max(length, 1) + 8 for v in result.arc_visits)
                runs += 1
        print(f"  {runs} runs within bounds", end="")


def test_criterion_9_failed_probes_scan_each_node_once():
    """A failed probe inspects only live nodes and leaves every one of them
    dead, so over a run each tie's course arcs (|tie| inspections) and each
    course's sink and holder arcs (at most 1 + q(c)) are scanned in at most
    one failed probe. In a guided run a failed probe whose tie is live also
    tries each of the applicant's target courses on the fast path; failed
    probes of an applicant are at most her tie count, one per tie."""
    with criterion(9, "failed probes scan each tie and course at most once", None):
        rng = random.Random(1507)
        for k in range(60):
            inst = generate_random_instance(
                rng.randint(10, 60), rng.randint(5, 15), 3, 4,
                (0.0, 0.4, 0.9)[k % 3], 9000 + k)
            ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
            rng.shuffle(ordering)
            bound = sum(
                len(t) for a in inst.applicants for t in inst.prefs[a]
            ) + sum(1 + inst.capacity[c] for c in inst.courses)
            canonical = run_gsdt(inst, ordering)
            optimum = canonical.matching
            guided = run_gsdt(
                inst, derive_ordering(inst, optimum), GuidedToward(optimum))
            fast_path = sum(
                len(inst.prefs[a]) * len(optimum.of_applicant(a))
                for a in inst.applicants)
            for result, limit in ((canonical, bound), (guided, bound + fast_path)):
                probed = [p for entry in result.record for p in probes(entry)]
                assert len(probed) == len(result.arc_visits)
                failed = sum(
                    v for p, v in zip(probed, result.arc_visits) if p.path is None)
                assert failed <= limit
        print("  60 instances, canonical and guided, within bounds", end="")
