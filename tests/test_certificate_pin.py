"""One digest over the verifier's verdicts and certificates, and over
``derive_ordering``, at the benchmark's scale: 60 seeded random feasible
matchings on 80x30 instances (the ``audit`` shape) and 30 canonical GSDT
optima on 40x15 instances (the ``allocate`` shape).

The digest was taken before the tie index moved onto ``Instance`` and the
SCC routine stopped allocating per tree arc; any change to a verdict, a
coalition, a dominating matching or a derived ordering changes it.
"""

import hashlib
import random

from camatch import (
    Matching,
    derive_ordering,
    generate_random_instance,
    is_pareto_optimal,
    run_gsdt,
)

PINNED = "40d203a0d76d4778"


def random_feasible_matching(instance, rng):
    """Acceptable pairs in random order, each kept with probability 3/4 while
    both sides have room: feasible, and at 80x30 always dominated."""
    pairs = [(a, c) for a in instance.applicants for c in sorted(instance.acceptable(a))]
    rng.shuffle(pairs)
    load = dict.fromkeys([*instance.applicants, *instance.courses], 0)
    kept = []
    for a, c in pairs:
        if load[a] < instance.quota[a] and load[c] < instance.capacity[c] and rng.random() < 0.75:
            load[a] += 1
            load[c] += 1
            kept.append((a, c))
    return Matching(kept)


def cases():
    rng = random.Random(2866)
    for _ in range(60):
        inst = generate_random_instance(80, 30, 3, 4, 0.4, rng.randrange(2**31))
        yield inst, random_feasible_matching(inst, rng)
    for _ in range(30):
        inst = generate_random_instance(40, 15, 3, 4, 0.4, rng.randrange(2**31))
        ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
        yield inst, run_gsdt(inst, ordering).matching


def certificate_lines():
    for inst, matching in cases():
        check = is_pareto_optimal(inst, matching)
        if check:
            yield "optimal " + " ".join(derive_ordering(inst, matching))
        else:
            yield "dominated " + check.coalition.describe()
            yield " ".join(f"{a}:{c}" for a, c in check.dominating.canonical_pairs())


def test_certificates_at_bench_scale_match_the_pin():
    lines = list(certificate_lines())
    assert sum(line.startswith("optimal ") for line in lines) >= 30
    assert sum(line.startswith("dominated ") for line in lines) >= 30
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == PINNED
