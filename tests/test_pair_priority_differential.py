"""`envy._pair_priority_order`, read off the graph a positive verdict kept,
against the all-pairs scan it replaced, on small catalogs and on Pareto
optimal matchings larger than brute force can reach, uniform and
popularity-correlated. Each row is verified first, as `derive_ordering`
does: the pair order reads only a kept graph."""

import random
from itertools import chain

import pytest

from camatch import enumerate_poms, generate_random_instance, is_pareto_optimal, run_gsdt
from camatch.envy import _pair_priority_order
from instances import (
    correlated_instance,
    fixture_instances,
    reference_pair_priority_order,
    worked_examples,
)


def catalog_cases():
    named = list(worked_examples().items())
    named += [(f"fleet{k}", inst) for k, inst in enumerate(fixture_instances(50))]
    for name, inst in named:
        for j, pom in enumerate(enumerate_poms(inst).poms):
            yield f"{name}-pom{j}", inst, pom


def large_cases(generate=generate_random_instance, name="large", seed=2015, shapes=()):
    """The canonical optima of an ordering and of its reverse per instance:
    20 instances at 20-60 applicants and 5-20 courses, then one per extra
    (n1, n2) shape."""
    rng = random.Random(seed)
    # Lazy, so each size is drawn just before its instance's ordering is shuffled.
    sizes = chain(((rng.randint(20, 60), rng.randint(5, 20)) for _ in range(20)), shapes)
    for k, (n1, n2) in enumerate(sizes):
        inst = generate(n1, n2, 3, 4, 0.4, seed * 1000 + k)
        ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
        rng.shuffle(ordering)
        yield f"{name}{k}", inst, run_gsdt(inst, ordering).matching
        yield f"{name}{k}-rev", inst, run_gsdt(inst, ordering[::-1]).matching


CATALOG_CASES = list(catalog_cases())
# The 40x60 optima leave most courses exposed, so their verdicts scan the
# applicants before Tarjan builds the pair lists.
LARGE_CASES = list(large_cases(shapes=[(40, 60)]))
CORRELATED_CASES = list(large_cases(correlated_instance, "correlated", 2016, [(40, 60)]))


def test_cases_cover_nontrivial_orders():
    """Most large cases, and some catalog cases, order their pairs other
    than by id, so the comparison sees the envy relation at work."""
    def reordered(cases):
        return sum(
            reference_pair_priority_order(inst, m) != m.canonical_pairs()
            for _, inst, m in cases)

    assert len(CATALOG_CASES) > 80 and reordered(CATALOG_CASES) >= 10
    assert len(LARGE_CASES) == 42 and reordered(LARGE_CASES) >= 30
    assert len(CORRELATED_CASES) == 42 and reordered(CORRELATED_CASES) >= 40


@pytest.mark.parametrize(
    "inst, matching", [case[1:] for case in CATALOG_CASES + LARGE_CASES + CORRELATED_CASES],
    ids=[case[0] for case in CATALOG_CASES + LARGE_CASES + CORRELATED_CASES])
def test_pair_priority_order_equals_all_pairs_reference(inst, matching):
    assert is_pareto_optimal(inst, matching)
    assert _pair_priority_order(inst, matching) == reference_pair_priority_order(
        inst, matching)
