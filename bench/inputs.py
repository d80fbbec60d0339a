"""Seeded benchmark inputs, generated and serialised to text before timing.

Every operation gets its own instance from
``generate_random_instance(n1, n2, 3, 4, 0.4, seed=s)`` with a distinct
``s`` drawn from the run seed, so no input repeats within a run and a cache
keyed on the input cannot help. The ordering shuffler and the greedy
dominated-matching generator live here, not in camatch.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# Applicants, courses, max applicant quota, max course quota, tie density.
SHAPES = {
    "allocate": (40, 15),
    "audit": (80, 30),
    "misreport": (10, 5),
}
MAX_B, MAX_Q, TIE_DENSITY = 3, 4, 0.4
LIAR = "a1"
# The liar lists exactly this many of the five courses, so each search
# covers at most 26 fabricated lists and a run holds a few hundred searches.
# Left free, one liar in 32 lists all five (1082 lists, 2-3 s per search),
# and how many of those a run drew swung ops_per_s by tens of percent
# between seeds; four courses (150 lists) left too few searches per run for
# a steady median.
LIAR_LIST_LENGTH = 3


@dataclass(frozen=True)
class OpInput:
    """One operation's input as text: the instance and either an ordering
    (allocate, misreport) or a matching (audit)."""

    instance_text: str
    extra_text: str


def shuffled_ordering(instance, seed: int) -> list[str]:
    """The quota multiset in applicant order, shuffled by Random(seed)."""
    ordering = [a for a in instance.applicants for _ in range(instance.quota[a])]
    random.Random(seed).shuffle(ordering)
    return ordering


def greedy_matching(instance, seed: int) -> list[tuple[str, str]]:
    """A random greedy matching that is dominated by construction.

    Applicants are visited in shuffled order; each takes random acceptable
    courses that still have free seats, up to a random count no larger than
    her quota. Draws repeat (from the same generator) until some applicant
    with spare quota finds an acceptable course with a free seat, so giving
    her that seat dominates the matching and a positive verdict is wrong.
    """
    rng = random.Random(f"greedy:{seed}")
    while True:
        free = dict(instance.capacity)
        held: dict[str, list[str]] = {a: [] for a in instance.applicants}
        visit = list(instance.applicants)
        rng.shuffle(visit)
        for a in visit:
            options = sorted(instance.acceptable(a))
            rng.shuffle(options)
            want = rng.randint(0, instance.quota[a])
            for c in options:
                if len(held[a]) == want:
                    break
                if free[c] > 0:
                    free[c] -= 1
                    held[a].append(c)
        if any(
            len(held[a]) < instance.quota[a]
            and any(free[c] > 0 and c not in held[a] for c in instance.acceptable(a))
            for a in instance.applicants
        ):
            return [(a, c) for a in instance.applicants for c in held[a]]


def generate(camatch, workload: str, seed: int, count: int) -> list[OpInput]:
    """``count`` distinct operation inputs for ``workload``, from ``seed``."""
    n1, n2 = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    used: set[int] = set()
    out: list[OpInput] = []
    while len(out) < count:
        s = rng.randrange(2**31)
        if s in used:
            continue
        used.add(s)
        inst = camatch.generate_random_instance(n1, n2, MAX_B, MAX_Q, TIE_DENSITY, seed=s)
        if workload == "misreport" and len(inst.acceptable(LIAR)) != LIAR_LIST_LENGTH:
            continue
        if workload == "audit":
            extra = camatch.serialize_matching_pairs(greedy_matching(inst, s))
        else:
            extra = camatch.serialize_ordering(tuple(shuffled_ordering(inst, s)))
        out.append(OpInput(camatch.serialize_instance(inst), extra))
    return out


def fingerprint(parsed, inputs: list[OpInput]) -> str:
    """Digest of every input: ``Instance.fingerprint()`` plus the ordering or
    matching text, in operation order."""
    h = hashlib.sha256()
    for (inst, _), op in zip(parsed, inputs):
        h.update(inst.fingerprint().encode())
        h.update(op.extra_text.encode())
    return h.hexdigest()[:16]
