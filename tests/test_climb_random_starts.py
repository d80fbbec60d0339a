"""Every Pareto optimal matching is a GSDT output, checked at sizes brute
force cannot reach: start from a seeded random feasible matching, climb by
the verifier's certificates until it finds no coalition, then derive an
ordering for the climbed optimum and replay it guided. Each step's
dominating matching must strictly dominate the one before, and the replay
must return the climbed optimum exactly. Optima reached this way are not
the canonical GSDT outputs, so they exercise the pair-priority order, the
guided search and the certificates together."""

import random

import pytest

from camatch import (
    CoalitionKind,
    GuidedToward,
    derive_ordering,
    generate_random_instance,
    is_pareto_optimal,
    pareto_dominates,
    run_gsdt,
)
from camatch.matching import Matching


def random_feasible_matching(inst, seed):
    """Each acceptable pair, in a seeded random order, joins with
    probability 1/2 while its applicant and its course have room left."""
    rng = random.Random(seed)
    pairs = [(a, c) for a in inst.applicants for tie in inst.prefs[a] for c in sorted(tie)]
    rng.shuffle(pairs)
    room = {**inst.quota, **inst.capacity}  # no id names both an applicant and a course
    chosen = []
    for a, c in pairs:
        if room[a] and room[c] and rng.random() < 0.5:
            room[a] -= 1
            room[c] -= 1
            chosen.append((a, c))
    return Matching(chosen)


ALTERNATING, CYCLIC, AUGMENTING = (
    CoalitionKind.ALTERNATING_PATH, CoalitionKind.CYCLIC, CoalitionKind.AUGMENTING_PATH)

# (n1, n2): instances, how many climbed optima differ from the canonical
# output under the file-order ordering (all of them), and the coalition
# kinds the climbs meet. The seat-poor sizes meet no alternating path, as
# their courses fill early; only the seat-rich 40x60 row, whose climbs take
# about 1,400 steps, meets all three kinds.
SIZES = {
    (40, 15): (30, 30, {CYCLIC, AUGMENTING}),
    (80, 30): (15, 15, {CYCLIC}),
    (160, 40): (3, 3, {CYCLIC}),
    (40, 60): (8, 8, {ALTERNATING, CYCLIC, AUGMENTING}),
}


@pytest.mark.parametrize("n1, n2", SIZES)
def test_climbed_optima_replay_exactly(n1, n2):
    count, pinned, pinned_kinds = SIZES[n1, n2]
    differ = 0
    kinds = set()
    for seed in range(100, 100 + count):
        inst = generate_random_instance(n1, n2, 3, 4, 0.4, seed)
        mu = random_feasible_matching(inst, seed)
        steps = 0
        while not (check := is_pareto_optimal(inst, mu)):
            assert pareto_dominates(inst, check.dominating, mu)
            kinds.add(check.coalition.kind)
            mu, steps = check.dominating, steps + 1
        assert steps > 0  # the random start is dominated
        replay = run_gsdt(inst, derive_ordering(inst, mu), GuidedToward(mu))
        assert replay.matching == mu
        file_order = [a for a in inst.applicants for _ in range(inst.quota[a])]
        differ += run_gsdt(inst, file_order).matching != mu
    assert differ == pinned
    assert kinds == pinned_kinds
