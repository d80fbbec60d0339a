"""The benchmark's operations and their output gate.

Each workload has a parse step (part of set-up), one timed operation, and a
check run outside the timed span. Functions are looked up on camatch's
modules at call time, so a traced run sees them through the tracer's
wrappers. A check returns whether the output is correct and the text that
goes into the run's output fingerprint; ``audit`` also returns its
certificate text, fingerprinted separately.
"""

from __future__ import annotations

from inputs import LIAR


def parse(m, workload: str, op):
    inst = m.instance.parse_instance(op.instance_text)
    if workload == "audit":
        pairs = m.instance.parse_matching_pairs(op.extra_text, inst)
        return inst, m.matching.Matching(pairs)
    return inst, m.instance.parse_ordering(op.extra_text)


def allocate(m, inst, ordering):
    """Solve, certify, explain: canonical GSDT, verify the result, derive an
    ordering for it, and replay that ordering with the guided policy."""
    canonical = m.gsdt.run_gsdt(inst, ordering)
    verdict = m.envy.is_pareto_optimal(inst, canonical.matching)
    derived = m.gsdt.derive_ordering(inst, canonical.matching)
    replay = m.gsdt.run_gsdt(inst, derived, m.gsdt.GuidedToward(canonical.matching))
    return canonical.matching, verdict, derived, replay.matching


def audit(m, inst, matching):
    return m.envy.is_pareto_optimal(inst, matching)


def misreport(m, inst, ordering):
    return m.oracle.find_beneficial_misreport(inst, ordering, LIAR)


OPS = {"allocate": allocate, "audit": audit, "misreport": misreport}


def _pairs(matching) -> str:
    return " ".join(f"{a}:{c}" for a, c in matching.canonical_pairs())


def check(m, workload: str, inst, extra, result) -> tuple[bool, str, str]:
    """(output correct, output fingerprint text, certificate text)."""
    if workload == "allocate":
        matching, verdict, derived, replay = result
        ok = (
            bool(verdict)
            and replay == matching
            and m.instance.check_ordering(inst, derived) is None
        )
        return ok, f"{verdict.is_optimal}|{_pairs(matching)}|{' '.join(derived)}", ""

    if workload == "audit":
        verdict = result
        if verdict.is_optimal:
            return False, "True", ""
        ok = (
            m.matching.coalition_error(inst, extra, verdict.coalition) is None
            and m.matching.pareto_dominates(inst, verdict.dominating, extra)
        )
        cert = f"{verdict.coalition.describe()}|{_pairs(verdict.dominating)}"
        return ok, "False", cert

    search = result
    status = search.status.value
    ok = status in ("found", "none")
    if status == "found":
        f = search.finding
        truthful = m.gsdt.run_gsdt(inst, extra).matching.of_applicant(LIAR)
        lying_inst = m.oracle.with_prefs(inst, LIAR, f.fabricated_prefs)
        lying = m.gsdt.run_gsdt(lying_inst, extra).matching.of_applicant(LIAR)
        ok = (
            truthful == f.truthful_outcome
            and lying == f.lying_outcome
            and m.matching.compare_sets(inst, LIAR, lying, truthful)
            is m.matching.SetRelation.PREFERS
        )
        return ok, f"{status}|{search.examined}|{m.instance.format_preference_list(f.fabricated_prefs)}", ""
    return ok, f"{status}|{search.examined}", ""
