"""Every GSDT stage output is Pareto optimal for the quotas served so far,
checked by the envy-graph verifier at sizes brute force cannot reach:
20 instances at 40x15, 10 at 80x30 and 3 at 160x40, where the courses
fill early, and 9 at the seat-rich 40x60, where stage outputs leave courses
exposed and so keep the arcs into the verifier's fan; then popularity-
correlated instances (``instances.correlated_instance``), 12 at 40x15 and
9 at 40x60, where every applicant wants the same few courses. The runs rotate
through three kinds, so each kind meets each size: a canonical run under a
shuffled ordering, the guided replay of that run's ``derive_ordering``, and
a consecutive ordering (a shuffled applicant order, each applicant served
her whole quota in a row). Acceptance criterion 5 checks the same claim by
brute force at total quota at most 6."""

import random

import pytest

from camatch import (
    GuidedToward,
    derive_ordering,
    generate_random_instance,
    is_pareto_optimal,
    run_gsdt,
)
from instances import capacity_history, correlated_instance, with_quotas

KINDS = ("canonical", "guided", "consecutive")
SIZES = [(40, 15, 20), (80, 30, 10), (160, 40, 3), (40, 60, 9)]
CORRELATED_SIZES = [(40, 15, 12), (40, 60, 9)]


def run(inst, kind, rng):
    ordering = [a for a in inst.applicants for _ in range(inst.quota[a])]
    rng.shuffle(ordering)
    if kind == "canonical":
        return run_gsdt(inst, ordering)
    if kind == "guided":
        optimum = run_gsdt(inst, ordering).matching
        return run_gsdt(inst, derive_ordering(inst, optimum), GuidedToward(optimum))
    applicants = list(inst.applicants)
    rng.shuffle(applicants)
    return run_gsdt(inst, [a for a in applicants for _ in range(inst.quota[a])])


def stages_checked(n1, n2, count, family=generate_random_instance, name="stagewise"):
    """Verify every stage of ``count`` runs of ``family`` at ``n1 x n2``;
    return how many."""
    rng = random.Random(f"{name}:{n1}x{n2}")
    checked = 0
    for k in range(count):
        inst = family(n1, n2, 3, 4, 0.4, rng.randrange(2**31))
        result = run(inst, KINDS[k % len(KINDS)], rng)
        history = capacity_history(inst, result.ordering)
        for stage in result.stages:
            quotas = dict(zip(inst.applicants, history[stage.stage]))
            check = is_pareto_optimal(with_quotas(inst, quotas), stage.matching)
            assert check, (n1, n2, k, stage.stage, check.coalition)
            checked += 1
    return checked


@pytest.mark.parametrize("n1, n2, count, stages", [
    (*size, stages) for size, stages in zip(SIZES, (1606, 1617, 964, 728))])
def test_every_stage_output_is_pareto_optimal_for_its_quotas(n1, n2, count, stages):
    assert stages_checked(n1, n2, count) == stages


@pytest.mark.parametrize("n1, n2, count, stages", [
    (*size, stages) for size, stages in zip(CORRELATED_SIZES, (999, 703))])
def test_every_correlated_stage_output_is_pareto_optimal_for_its_quotas(n1, n2, count, stages):
    assert stages_checked(n1, n2, count, correlated_instance, "stagewise-correlated") == stages
