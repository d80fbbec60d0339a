"""`_pair_priority_order`, built on the verifier's weak-envy relation, against
the all-pairs scan it replaced, on small catalogs and on matchings larger
than brute force can reach."""

import random

import pytest

from camatch import enumerate_poms, generate_random_instance, run_gsdt
from instances import fixture_instances, worked_examples
from camatch.gsdt import _pair_priority_order
from camatch.matching import Matching
from camatch.scc import strongly_connected_components


def reference_pair_priority_order(instance, matching):
    """All-pairs construction: an arc from ac to every other pair a'c' whose
    course a weakly prefers to c, where a' is a herself or c' is a course
    she finds acceptable and does not hold."""
    pairs = matching.canonical_pairs()
    adj = {p: [] for p in pairs}
    for a, c in pairs:
        own_tie = instance.tie_of(a, c)
        held = matching.of_applicant(a)
        for a2, c2 in pairs:
            if (a2, c2) == (a, c):
                continue
            if a2 != a and (c2 in held or c2 not in instance.acceptable(a)):
                continue
            if instance.tie_of(a, c2) <= own_tie:
                adj[(a, c)].append((a2, c2))
    number = {p: i for i, p in enumerate(pairs)}
    succ = [[number[q] for q in adj[p]] for p in pairs]
    components = strongly_connected_components(succ)
    return [p for comp in components for p in sorted(pairs[i] for i in comp)]


def catalog_cases():
    named = list(worked_examples().items())
    named += [(f"fleet{k}", inst) for k, inst in enumerate(fixture_instances(50))]
    for name, inst in named:
        for j, pom in enumerate(enumerate_poms(inst).poms):
            yield f"{name}-pom{j}", inst, pom


def large_cases():
    rng = random.Random(2015)
    for k in range(20):
        inst = generate_random_instance(
            rng.randint(20, 60), rng.randint(5, 20), 3, 4, 0.4, 2015 * 1000 + k)
        ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
        rng.shuffle(ordering)
        optimum = run_gsdt(inst, ordering).matching
        yield f"large{k}", inst, optimum
        # Guided replays accept dominated targets too.
        yield f"large{k}-half", inst, Matching(optimum.canonical_pairs()[::2])


CATALOG_CASES = list(catalog_cases())
LARGE_CASES = list(large_cases())


def test_cases_cover_nontrivial_orders():
    """Most large cases, and some catalog cases, order their pairs other
    than by id, so the comparison sees the envy relation at work."""
    def reordered(cases):
        return sum(
            reference_pair_priority_order(inst, m) != m.canonical_pairs()
            for _, inst, m in cases)

    assert len(CATALOG_CASES) > 80 and reordered(CATALOG_CASES) >= 10
    assert len(LARGE_CASES) == 40 and reordered(LARGE_CASES) >= 30


@pytest.mark.parametrize(
    "inst, matching", [case[1:] for case in CATALOG_CASES + LARGE_CASES],
    ids=[case[0] for case in CATALOG_CASES + LARGE_CASES])
def test_pair_priority_order_equals_all_pairs_reference(inst, matching):
    assert _pair_priority_order(inst, matching) == reference_pair_priority_order(
        inst, matching)
