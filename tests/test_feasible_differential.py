"""``matching.is_feasible``, which sorts only the pairs that violate a rule,
against the earlier version that scanned every pair in sorted order, on
seeded matchings with no violation, one, and several of each kind."""

import random

import pytest

from camatch import Matching, generate_random_instance, is_feasible


def reference_is_feasible(instance, matching):
    for a, c in sorted(matching.pairs):
        if a not in instance.quota:
            return f"unknown applicant {a!r}"
        if c not in instance.capacity:
            return f"unknown course {c!r}"
        if c not in instance.acceptable(a):
            return f"course {c} is not acceptable to {a}"
    for a in instance.applicants:
        got = len(matching.of_applicant(a))
        if got > instance.quota[a]:
            return f"|mu({a})| = {got} exceeds quota {instance.quota[a]}"
    for c in instance.courses:
        got = len(matching.of_course(c))
        if got > instance.capacity[c]:
            return f"|mu({c})| = {got} exceeds quota {instance.capacity[c]}"
    return None


def feasible_pairs(instance, rng):
    """Random acceptable courses for each applicant, up to her quota and
    while seats remain."""
    seats = dict(instance.capacity)
    pairs = set()
    for a in instance.applicants:
        options = sorted(instance.acceptable(a))
        rng.shuffle(options)
        for c in options[:instance.quota[a]]:
            if seats[c] > 0:
                seats[c] -= 1
                pairs.add((a, c))
    return pairs


def add_violation(instance, pairs, kind, rng):
    """Add pairs to ``pairs`` that break one rule of the given kind."""
    applicants, courses = instance.applicants, instance.courses
    # Unknown ids that sort before, among and after the known ones.
    stray = f"{rng.choice(['a0', 'a1x', 'b', 'zz'])}_{rng.randrange(1000)}"
    if kind == "unknown-applicant":
        pairs.add((stray, rng.choice(courses)))
    elif kind == "unknown-course":
        pairs.add((rng.choice(applicants), "c" + stray))
    elif kind == "unacceptable":
        pairs.add(rng.choice([(a, c) for a in applicants for c in courses
                              if c not in instance.acceptable(a)]))
    elif kind == "applicant-quota":
        a = rng.choice([a for a in applicants
                        if len(instance.acceptable(a)) > instance.quota[a]])
        for c in sorted(instance.acceptable(a)):
            if sum(1 for b, _ in pairs if b == a) > instance.quota[a]:
                break
            pairs.add((a, c))
    else:  # course-capacity
        c = rng.choice([c for c in courses if sum(
            c in instance.acceptable(a) for a in applicants) > instance.capacity[c]])
        for a in applicants:
            if sum(1 for _, d in pairs if d == c) > instance.capacity[c]:
                break
            if c in instance.acceptable(a):
                pairs.add((a, c))


KINDS = ["unknown-applicant", "unknown-course", "unacceptable",
         "applicant-quota", "course-capacity"]


@pytest.mark.parametrize("kinds", [[k] for k in KINDS] + [KINDS], ids=KINDS + ["mixed"])
def test_is_feasible_names_the_violation_the_sorted_scan_named(kinds):
    messages = set()
    for seed in range(20):
        rng = random.Random(seed)
        inst = generate_random_instance(30, 8, 3, 3, 0.4, seed)
        for count in (0, 1, 3):
            pairs = feasible_pairs(inst, rng)
            for _ in range(count):
                for kind in kinds:
                    add_violation(inst, pairs, kind, rng)
            matching = Matching(pairs)
            expected = reference_is_feasible(inst, matching)
            assert (expected is None) == (count == 0)
            assert is_feasible(inst, matching) == expected
            messages.add(expected)
    assert len(messages) > 10
