"""Compact parsed instances: every course id is one string and every distinct
tie one frozenset, shared by ``prefs`` and ``tie_index``, yet the instance
equals one built from unshared objects, and ``with_prefs`` leaves the shared
objects of its source alone."""

from __future__ import annotations

import dataclasses

import pytest

from camatch import Instance, generate_random_instance, parse_instance, serialize_instance
from camatch.instance import with_prefs
from instances import FIXTURE_DIR


def input_texts() -> dict[str, str]:
    """The fixtures, 60 draws at 40x15 and 80x30 and the 640x100 ladder rung."""
    texts = {f"fixture-{p.stem}": p.read_text() for p in sorted(FIXTURE_DIR.glob("*.txt"))}
    for seed in range(60):
        n1, n2 = (40, 15) if seed % 2 == 0 else (80, 30)
        density = (0.0, 0.4, 0.9)[seed % 3]
        inst = generate_random_instance(n1, n2, 3, 4, density, seed)
        texts[f"draw-{n1}x{n2}-{density}-{seed}"] = serialize_instance(inst)
    texts["ladder-640x100"] = serialize_instance(generate_random_instance(640, 100, 3, 4, 0.4, 1))
    return texts


TEXTS = input_texts()


def build_from_words(text: str) -> Instance:
    """``Instance.build`` on the words of each line as split, with no id map."""
    lines = [words for raw in text.splitlines() if (words := raw.split("#", 1)[0].split())]
    courses = [(cid, int(q)) for cid, _, q in (w.partition("=") for w in lines[0][1:])]
    applicants = []
    for words in lines[1:]:
        ties: list[list[str]] = []
        for word in words[4:]:
            if word == "(":
                ties.append([])
            elif word != ")":
                ties[-1].append(word)
        applicants.append((words[1], int(words[2][len("quota="):]), ties))
    return Instance.build(courses, applicants)


def unshared(instance: Instance) -> Instance:
    """The same instance with a fresh frozenset for every tie of every list."""
    prefs = {a: tuple(frozenset(iter(t)) for t in ties) for a, ties in instance.prefs.items()}
    return dataclasses.replace(instance, prefs=prefs)


def all_ties(instance: Instance) -> list[frozenset[str]]:
    return [t for ties in instance.prefs.values() for t in ties]


@pytest.fixture(params=list(TEXTS), scope="module")
def parsed(request):
    return request.param, parse_instance(TEXTS[request.param])


def test_every_listed_course_is_the_capacity_key(parsed):
    _, inst = parsed
    key = {c: c for c in inst.capacity}
    assert all(key[c] is c for t in all_ties(inst) for c in t)
    assert all(key[c] is c for index in inst.tie_index.values() for c in index)
    listed = {id(c) for t in all_ties(inst) for c in t}
    assert listed <= {id(c) for c in inst.capacity}


def test_one_tie_object_per_distinct_tie(parsed):
    _, inst = parsed
    ties = all_ties(inst)
    assert len({id(t) for t in ties}) == len(set(ties))


def test_equals_an_instance_without_sharing(parsed):
    name, inst = parsed
    fresh = build_from_words(TEXTS[name])
    reference = unshared(fresh)
    assert len({id(t) for t in all_ties(reference)}) == len(all_ties(reference))
    assert inst == reference and inst.fingerprint() == reference.fingerprint()
    assert serialize_instance(inst) == serialize_instance(reference)
    assert inst.tie_index == reference.tie_index


def test_with_prefs_leaves_the_source_objects_alone(parsed):
    _, inst = parsed
    liar = next((a for a in inst.applicants if inst.prefs[a]), None)
    if liar is None:
        pytest.skip("no applicant lists a course")
    before = {a: (ties, list(ties)) for a, ties in inst.prefs.items()}
    lied = with_prefs(inst, liar, [sorted(t) for t in reversed(inst.prefs[liar])])
    for a, (ties, members) in before.items():
        assert inst.prefs[a] is ties
        assert all(t is u for t, u in zip(ties, members, strict=True))
        if a != liar:
            assert lied.prefs[a] is ties
    assert lied.prefs[liar] == tuple(reversed(inst.prefs[liar]))
