"""A maximum-size Pareto optimal matching comes from a maximum matching made
coalition-free (Abraham, Cechlárová, Manlove and Mehlhorn, ISAAC 2004):
start from a maximum matching, climb by the verifier's certificates, and the
climbed optimum keeps the start's size. A maximum matching admits no
augmenting path, so every certificate trades seats and none adds one. The
climbed optimum must then replay exactly under its derived ordering, and at
6x3 its size must be the largest of any Pareto optimal matching."""

import pytest

from camatch import (
    CoalitionKind,
    GuidedToward,
    derive_ordering,
    enumerate_poms,
    generate_random_instance,
    is_pareto_optimal,
    pareto_dominates,
    run_gsdt,
)
from camatch.instance import with_prefs

CYCLIC, ALTERNATING = CoalitionKind.CYCLIC, CoalitionKind.ALTERNATING_PATH


def file_order(inst):
    return [a for a in inst.applicants for _ in range(inst.quota[a])]


def maximum_size_matching(inst):
    """GSDT on the instance with each applicant's whole list merged into one
    tie: every stage then takes any seat an augmenting path reaches, so the
    run ends at a maximum matching, feasible for the original instance. An
    empty list stays empty."""
    flat = inst
    for a in inst.applicants:
        flat = with_prefs(flat, a, [sorted(inst.acceptable(a))] if inst.prefs[a] else [])
    return run_gsdt(flat, file_order(inst)).matching


# (n1, n2): instances; in how many the file-order canonical output is
# smaller than the maximum matching; in how many the climbed optimum differs
# from that canonical output; and the coalition kinds the climbs meet.
SIZES = {
    (6, 3): (40, 2, 3, {ALTERNATING, CYCLIC}),
    (40, 15): (30, 0, 30, {CYCLIC}),
    (80, 30): (15, 0, 15, {CYCLIC}),
    (160, 40): (3, 0, 3, {CYCLIC}),
}


@pytest.mark.parametrize("n1, n2", SIZES)
def test_climbs_from_maximum_matchings_keep_their_size(n1, n2):
    count, pinned_smaller, pinned_differ, pinned_kinds = SIZES[n1, n2]
    smaller = differ = 0
    kinds = set()
    for seed in range(100, 100 + count):
        inst = generate_random_instance(n1, n2, 3, 4, 0.4, seed)
        mu = start = maximum_size_matching(inst)
        while not (check := is_pareto_optimal(inst, mu)):
            assert pareto_dominates(inst, check.dominating, mu)
            assert len(check.dominating) >= len(mu)
            kinds.add(check.coalition.kind)
            mu = check.dominating
        assert len(mu) == len(start)
        if (n1, n2) == (6, 3):
            poms = enumerate_poms(inst, limit=10**5).poms
            assert len(mu) == max(len(m) for m in poms)
        replay = run_gsdt(inst, derive_ordering(inst, mu), GuidedToward(mu))
        assert replay.matching == mu
        canonical = run_gsdt(inst, file_order(inst)).matching
        smaller += len(canonical) < len(mu)
        differ += canonical != mu
    assert (smaller, differ, kinds) == (pinned_smaller, pinned_differ, pinned_kinds)
