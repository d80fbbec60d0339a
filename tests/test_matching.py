"""Characteristic vectors, set comparison, dominance, coalitions."""

import random

import pytest

from camatch import (
    CoalitionError,
    CoalitionKind,
    FeasibilityError,
    ImprovingCoalition,
    Instance,
    Matching,
    SetRelation,
    characteristic_vector,
    coalition_error,
    compare_sets,
    is_feasible,
    pareto_dominates,
    satisfy_coalition,
)

def test_characteristic_vectors_walkthrough_instance(t1):
    assert characteristic_vector(t1, "a1", {"c1", "c2"}) == (2, 0)
    assert characteristic_vector(t1, "a1", set()) == (0, 0)
    assert characteristic_vector(t1, "a2", {"c2", "c3"}) == (1, 1)
    assert characteristic_vector(t1, "a3", {"c1"}) == (0, 0, 1)


def test_characteristic_vector_rejects_unacceptable(t1):
    # a1 never listed anything beyond c1..c3; silently filtering would hide bugs
    with pytest.raises(ValueError, match="not acceptable"):
        characteristic_vector(t1, "a2", {"c2", "nope"})


def test_compare_sets_walkthrough_instance(t1):
    assert compare_sets(t1, "a1", {"c1", "c2"}, {"c1", "c3"}) is SetRelation.PREFERS
    assert compare_sets(t1, "a1", {"c1", "c3"}, {"c1", "c2"}) is SetRelation.DISPREFERRED
    assert compare_sets(t1, "a1", {"c1", "c2"}, {"c1", "c2"}) is SetRelation.INDIFFERENT
    # within one tie only counts matter
    assert compare_sets(t1, "a1", {"c1"}, {"c2"}) is SetRelation.INDIFFERENT


def test_compare_sets_manipulation_instance(ex1):
    assert compare_sets(ex1, "a1", {"c1", "c2"}, {"c2"}) is SetRelation.PREFERS


def _random_subset(rng, courses):
    return frozenset(c for c in courses if rng.random() < 0.5)


def test_compare_sets_total_preorder(fleet):
    rng = random.Random(2024)
    pool = [inst for inst in fleet if any(inst.acceptable(a) for a in inst.applicants)]
    done = 0
    while done < 1000:
        inst = rng.choice(pool)
        a = rng.choice([x for x in inst.applicants if inst.acceptable(x)])
        acc = sorted(inst.acceptable(a))
        s, u, v = (_random_subset(rng, acc) for _ in range(3))
        done += 1
        rel_su = compare_sets(inst, a, s, u)
        rel_us = compare_sets(inst, a, u, s)
        # antisymmetry of the strict part, reflexivity of indifference
        flips = {
            SetRelation.PREFERS: SetRelation.DISPREFERRED,
            SetRelation.DISPREFERRED: SetRelation.PREFERS,
            SetRelation.INDIFFERENT: SetRelation.INDIFFERENT,
        }
        assert rel_us is flips[rel_su]
        # transitivity of weak preference over a random triple
        rel_uv = compare_sets(inst, a, u, v)
        if rel_su is not SetRelation.DISPREFERRED and rel_uv is not SetRelation.DISPREFERRED:
            assert compare_sets(inst, a, s, v) is not SetRelation.DISPREFERRED


def test_adding_a_course_strictly_improves(fleet):
    rng = random.Random(7)
    for inst in fleet:
        for a in inst.applicants:
            acc = sorted(inst.acceptable(a))
            if not acc:
                continue
            s = _random_subset(rng, acc)
            for c in acc:
                if c not in s:
                    assert compare_sets(inst, a, s | {c}, s) is SetRelation.PREFERS


def test_worst_course_removal_preserves_weak_preference(fleet):
    # drop a least preferred course from each of S >= U (with |S| >= |U|);
    # the relation survives
    rng = random.Random(55)
    checked = 0
    while checked < 1000:
        inst = rng.choice(fleet)
        candidates = [a for a in inst.applicants if inst.acceptable(a)]
        if not candidates:
            continue
        a = rng.choice(candidates)
        acc = sorted(inst.acceptable(a))
        s, u = _random_subset(rng, acc), _random_subset(rng, acc)
        if not s or not u or len(s) < len(u):
            continue
        if compare_sets(inst, a, s, u) is SetRelation.DISPREFERRED:
            continue
        worst_s = max(s, key=lambda c: (inst.tie_of(a, c), c))
        worst_u = max(u, key=lambda c: (inst.tie_of(a, c), c))
        rel = compare_sets(inst, a, s - {worst_s}, u - {worst_u})
        assert rel is not SetRelation.DISPREFERRED
        checked += 1


def test_is_feasible_walkthrough_instance(t1):
    assert is_feasible(t1, Matching([("a1", "c1"), ("a1", "c2"), ("a2", "c3")])) is None
    violation = is_feasible(t1, Matching([("a2", "c2"), ("a3", "c2")]))
    assert violation == "|mu(c2)| = 2 exceeds quota 1"
    assert is_feasible(t1, Matching()) is None
    bad = Matching([("a1", "c1"), ("a1", "c3"), ("a1", "c2")])
    assert "exceeds quota" in is_feasible(t1, bad)
    unknown = Matching([("zz", "c1")])
    assert "unknown applicant" in is_feasible(t1, unknown)


def test_individual_rationality_violation():
    inst = Instance.build([("c1", 1), ("c2", 1)], [("a1", 1, [["c1"]])])
    assert "not acceptable" in is_feasible(inst, Matching([("a1", "c2")]))


def test_pareto_dominates_known_cases(t1, ex1):
    mu1 = Matching([("a1", "c2"), ("a2", "c1")])
    mu2 = Matching([("a1", "c1"), ("a1", "c2")])
    # both are Pareto optimal: a2 loses her only course under mu2
    assert not pareto_dominates(ex1, mu2, mu1)
    assert not pareto_dominates(ex1, mu1, mu2)
    assert not pareto_dominates(ex1, mu1, mu1)
    bigger = Matching([("a1", "c1"), ("a1", "c2")])
    assert pareto_dominates(t1, bigger, Matching([("a1", "c1")]))
    with pytest.raises(FeasibilityError):
        pareto_dominates(t1, Matching([("a2", "c2"), ("a3", "c2")]), Matching())


def test_pareto_dominates_sampled_properties(fleet):
    from camatch.oracle import enumerate_feasible_matchings

    rng = random.Random(31)
    for inst in rng.sample(fleet, 12):
        pool = enumerate_feasible_matchings(inst)
        for mu in pool:
            assert not pareto_dominates(inst, mu, mu)
        for _ in range(60):
            x, y, z = (rng.choice(pool) for _ in range(3))
            if pareto_dominates(inst, x, y) and pareto_dominates(inst, y, z):
                assert pareto_dominates(inst, x, z)
            if pareto_dominates(inst, x, y):
                assert not pareto_dominates(inst, y, x)


def per_applicant_pareto_dominates(instance, mu_prime, mu):
    """Reference: dominance decided applicant by applicant through
    ``compare_sets``, as before profiles were compared whole."""
    someone_better = False
    for a in instance.applicants:
        rel = compare_sets(instance, a, mu_prime.of_applicant(a), mu.of_applicant(a))
        if rel is SetRelation.DISPREFERRED:
            return False
        if rel is SetRelation.PREFERS:
            someone_better = True
    return someone_better


def test_pareto_dominates_matches_the_per_applicant_reference(fleet):
    from camatch.oracle import enumerate_feasible_matchings

    verdicts = set()
    for inst in random.Random(37).sample(fleet, 12):
        pool = enumerate_feasible_matchings(inst)
        for x in pool:
            for y in pool:
                verdict = pareto_dominates(inst, x, y)
                assert verdict == per_applicant_pareto_dominates(inst, x, y)
                verdicts.add(verdict)
    assert verdicts == {True, False}


# ----------------------------------------------------------------------
# Coalitions.
# ----------------------------------------------------------------------

def test_satisfy_augmenting_r1(ex1):
    mu = Matching([("a2", "c1")])
    coalition = ImprovingCoalition(CoalitionKind.AUGMENTING_PATH, ("a1",), ("c2",))
    assert coalition_error(ex1, mu, coalition) is None
    result = satisfy_coalition(ex1, mu, coalition)
    assert result == Matching([("a2", "c1"), ("a1", "c2")])


def test_satisfy_cyclic_swap():
    inst = Instance.build(
        [("c1", 1), ("c2", 1)],
        [("a1", 1, [["c2"], ["c1"]]), ("a2", 1, [["c1"], ["c2"]])],
    )
    mu = Matching([("a1", "c1"), ("a2", "c2")])
    coalition = ImprovingCoalition(
        CoalitionKind.CYCLIC, ("a1", "a2"), ("c1", "c2"))
    assert coalition_error(inst, mu, coalition) is None
    swapped = satisfy_coalition(inst, mu, coalition)
    assert swapped == Matching([("a1", "c2"), ("a2", "c1")])
    assert pareto_dominates(inst, swapped, mu)


def test_satisfy_alternating_r1():
    inst = Instance.build(
        [("c1", 1), ("c2", 1)],
        [("a1", 1, [["c2"], ["c1"]])],
    )
    mu = Matching([("a1", "c1")])
    coalition = ImprovingCoalition(
        CoalitionKind.ALTERNATING_PATH, ("a1",), ("c1", "c2"))
    assert coalition_error(inst, mu, coalition) is None
    result = satisfy_coalition(inst, mu, coalition)
    assert result == Matching([("a1", "c2")])
    assert is_feasible(inst, result) is None
    assert pareto_dominates(inst, result, mu)


def test_satisfy_longer_alternating_path(t1):
    # a3 is full and envies c3; a2 hands c3 over by moving to the equally
    # good, still-exposed c1
    mu = Matching([("a3", "c2"), ("a3", "c1"), ("a2", "c3")])
    coalition = ImprovingCoalition(
        CoalitionKind.ALTERNATING_PATH, ("a3", "a2"), ("c2", "c3", "c1"))
    assert coalition_error(t1, mu, coalition) is None
    out = satisfy_coalition(t1, mu, coalition)
    assert out == Matching([("a3", "c1"), ("a3", "c3"), ("a2", "c1")])
    assert is_feasible(t1, out) is None
    assert pareto_dominates(t1, out, mu)


@pytest.mark.parametrize(
    "kind,applicants,courses,why",
    [
        (CoalitionKind.AUGMENTING_PATH, ("a2",), ("c1",), "must be exposed"),
        (CoalitionKind.ALTERNATING_PATH, ("a1",), ("c1", "c2"), "must be full"),
        (CoalitionKind.CYCLIC, ("a1",), ("c1",), "r >= 2"),
    ],
)
def test_coalition_rejections(ex1, kind, applicants, courses, why):
    mu = Matching([("a2", "c1")])
    coalition = ImprovingCoalition(kind, applicants, courses)
    error = coalition_error(ex1, mu, coalition)
    assert error is not None and why in error


@pytest.mark.parametrize(
    "kind,applicants,courses,pairs,error",
    [
        (CoalitionKind.AUGMENTING_PATH, ("a1",), ("c1",), [("a2", "c1")],
         "terminal course c1 must be exposed"),
        (CoalitionKind.ALTERNATING_PATH, ("a2",), ("c1", "c2"), [("a2", "c1"), ("a1", "c2")],
         "terminal course c2 must be exposed"),
    ],
)
def test_coalition_rejects_a_full_terminal_course(ex1, kind, applicants, courses, pairs, error):
    coalition = ImprovingCoalition(kind, applicants, courses)
    assert coalition_error(ex1, Matching(pairs), coalition) == error


def test_coalition_rejects_repeats_only():
    # every positional condition holds; only the no-repetition rule trips
    inst = Instance.build(
        [("c2", 2), ("c3", 1)],
        [("a1", 1, [["c2"]]),
         ("a2", 1, [["c2", "c3"]]),
         ("a3", 1, [["c2", "c3"]])],
    )
    mu = Matching([("a2", "c2"), ("a3", "c3")])
    coalition = ImprovingCoalition(
        CoalitionKind.AUGMENTING_PATH, ("a1", "a2", "a3"), ("c2", "c3", "c2"))
    error = coalition_error(inst, mu, coalition)
    assert error == "a course repeats"


def test_satisfy_rejects_invalid(ex1):
    mu = Matching([("a2", "c1")])
    bad = ImprovingCoalition(CoalitionKind.AUGMENTING_PATH, ("a2",), ("c2",))
    with pytest.raises(CoalitionError):
        satisfy_coalition(ex1, mu, bad)


def test_coalition_sequence_views():
    alt = ImprovingCoalition(
        CoalitionKind.ALTERNATING_PATH, ("a1",), ("c1", "c2"))
    assert alt.sequence() == (("course", "c1"), ("applicant", "a1"), ("course", "c2"))
    aug = ImprovingCoalition(CoalitionKind.AUGMENTING_PATH, ("a1",), ("c2",))
    assert aug.sequence() == (("applicant", "a1"), ("course", "c2"))
    cyc = ImprovingCoalition(CoalitionKind.CYCLIC, ("a1", "a2"), ("c1", "c2"))
    assert cyc.sequence() == (
        ("course", "c1"), ("applicant", "a1"), ("course", "c2"), ("applicant", "a2"))
    assert cyc.describe() == "cyclic: c1 a1 c2 a2"


def test_satisfaction_dominates_for_every_verifier_witness(fleet):
    # every coalition the verifier finds satisfies into a feasible,
    # strictly dominating matching
    from camatch.envy import is_pareto_optimal
    from camatch.oracle import enumerate_feasible_matchings

    rng = random.Random(13)
    for inst in rng.sample(fleet, 15):
        for mu in enumerate_feasible_matchings(inst):
            check = is_pareto_optimal(inst, mu)
            if check:
                continue
            assert coalition_error(inst, mu, check.coalition) is None
            out = satisfy_coalition(inst, mu, check.coalition)
            assert out == check.dominating
            assert is_feasible(inst, out) is None
            assert pareto_dominates(inst, out, mu)
