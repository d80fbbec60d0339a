"""``Instance.tie_index``: filled by the parse's own checks, carried by
``with_prefs`` and ``with_quotas``, and invisible to equality and repr."""

import copy
import dataclasses
import random

import pytest

from camatch import Instance, generate_random_instance, parse_instance, serialize_instance
from camatch.instance import with_prefs
from instances import with_quotas
from test_instance import WALKTHROUGH_TEXT


def index_of(instance):
    """The tie index as a comprehension over ``prefs``."""
    return {a: {c: t for t, tie in enumerate(ties) for c in tie}
            for a, ties in instance.prefs.items()}


def random_instances():
    rng = random.Random(2866)
    for seed in range(60):
        yield generate_random_instance(
            rng.randrange(12), rng.randrange(8), 3, 4, rng.choice([0.0, 0.4, 0.9]), seed)


@pytest.mark.parametrize("inst", list(random_instances()))
def test_generated_and_parsed_instances_carry_the_index_of_their_prefs(inst):
    assert inst.tie_index == index_of(inst)
    parsed = parse_instance(serialize_instance(inst))
    assert parsed.tie_index == index_of(parsed)


def test_build_fills_the_index_in_tie_order():
    inst = Instance.build(
        [("c1", 1), ("c2", 1), ("c3", 2)],
        [("a1", 1, [["c3"], ["c1", "c2"]]), ("a2", 2, []), ("a3", 1, [("c2",)])])
    assert inst.tie_index == index_of(inst) == {
        "a1": {"c3": 0, "c1": 1, "c2": 1}, "a2": {}, "a3": {"c2": 0}}


def test_with_prefs_indexes_the_new_list_and_leaves_the_source_untouched(t1):
    before = copy.deepcopy(t1.tie_index)
    lied = with_prefs(t1, "a2", [["c3", "c1"]])
    assert lied.tie_index == index_of(lied)
    assert lied.tie_index["a2"] == {"c3": 0, "c1": 0}
    assert lied.tie_of("a2", "c1") == 0 and "c2" not in lied.acceptable("a2")
    assert t1.tie_index == before == index_of(t1)
    assert t1.tie_of("a2", "c1") == 1


def test_with_quotas_keeps_the_index(t1):
    restricted = with_quotas(t1, {"a1": 0, "a2": 1, "a3": 2})
    assert restricted.tie_index == index_of(restricted) == t1.tie_index


def test_two_parses_compare_equal_and_repr_shows_no_index():
    first, second = parse_instance(WALKTHROUGH_TEXT), parse_instance(WALKTHROUGH_TEXT)
    assert first == second and repr(first) == repr(second)
    assert first.tie_index is not second.tie_index
    assert "tie_index" not in repr(first)
    # The index is derived from prefs, so equality does not read it.
    assert dataclasses.replace(first, tie_index={}) == first
