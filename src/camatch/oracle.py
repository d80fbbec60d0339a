"""Ground truth at desk scale: exhaustive matching enumeration, dominance-
based Pareto catalogs, reachability sweeps, and misreport search.

Everything here is deliberately simple and auditable; the point is to check
the clever machinery (envy graph, staged flow) against brute force. The one
shortcut: misreport search resumes each list from a GSDT state it shares.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Iterator, Sequence

from . import envy
from .errors import SearchLimitExceeded
from .gsdt import CANONICAL, GuidedToward, SnapshotCache, derive_ordering, run_gsdt
from .instance import (
    Instance,
    PriorityOrdering,
    format_preference_list,
)
from .matching import (
    Matching,
    SetRelation,
    characteristic_vector,
    compare_sets,
)

DEFAULT_LIMIT = 10**6


def with_quotas(instance: Instance, quota: dict[str, int]) -> Instance:
    """Same instance, different applicant quotas. Used for stage-restricted
    instances, so quota 0 is allowed here."""
    return dataclasses.replace(instance, quota=dict(quota))


def with_prefs(
    instance: Instance, applicant: str, ties: Sequence[Sequence[str]]
) -> Instance:
    """Same instance with one applicant's declared preference list replaced."""
    prefs = dict(instance.prefs)
    prefs[applicant] = tuple(frozenset(tie) for tie in ties)
    return dataclasses.replace(instance, prefs=prefs)


# ----------------------------------------------------------------------
# Exhaustive enumeration.
# ----------------------------------------------------------------------

def _applicant_choices(instance: Instance, a: str) -> list[tuple[str, ...]]:
    acceptable = sorted(instance.acceptable(a))
    top = min(instance.quota[a], len(acceptable))
    return [
        combo
        for k in range(top + 1)
        for combo in itertools.combinations(acceptable, k)
    ]


def enumerate_feasible_matchings(
    instance: Instance, limit: int = DEFAULT_LIMIT
) -> list[Matching]:
    """All feasible matchings, canonically ordered.

    Iterates per-applicant course subsets of size up to the quota and filters
    by course capacities. Raises SearchLimitExceeded when the raw product of
    per-applicant subset counts goes past ``limit``.
    """
    space = 1
    for a in instance.applicants:
        acceptable = len(instance.acceptable(a))
        top = min(instance.quota[a], acceptable)
        space *= sum(comb(acceptable, k) for k in range(top + 1))
        if space > limit:
            raise SearchLimitExceeded(
                f"feasible-matching space exceeds {limit}")

    applicants = instance.applicants
    results: list[Matching] = [] if applicants else [Matching()]
    usage = {c: 0 for c in instance.courses}
    chosen: list[tuple[str, ...]] = []
    # Depth-first over applicants with an explicit stack: one iterator over
    # the remaining choices of each applicant on the current branch.
    frames = [iter(_applicant_choices(instance, a)) for a in applicants[:1]]
    while frames:
        if len(chosen) == len(frames):  # retract this applicant's last choice
            for c in chosen.pop():
                usage[c] -= 1
        combo = next(frames[-1], None)
        if combo is None:
            frames.pop()
        elif all(usage[c] < instance.capacity[c] for c in combo):
            for c in combo:
                usage[c] += 1
            chosen.append(combo)
            if len(chosen) == len(applicants):
                results.append(Matching(
                    (a, c) for a, held in zip(applicants, chosen) for c in held))
            else:
                frames.append(iter(_applicant_choices(instance, applicants[len(chosen)])))
    results.sort(key=lambda m: tuple(m.canonical_pairs()))
    return results


def preference_profile(
    instance: Instance, matching: Matching
) -> tuple[tuple[int, ...], ...]:
    """Per-applicant characteristic vectors, in applicant order."""
    return tuple(
        characteristic_vector(instance, a, matching.of_applicant(a))
        for a in instance.applicants
    )


def profile_dominates(
    prof_new: tuple[tuple[int, ...], ...], prof_old: tuple[tuple[int, ...], ...]
) -> bool:
    return all(n >= o for n, o in zip(prof_new, prof_old)) and any(
        n > o for n, o in zip(prof_new, prof_old)
    )


def is_pom_bruteforce(
    instance: Instance,
    matching: Matching,
    pool: Sequence[Matching] | None = None,
    limit: int = DEFAULT_LIMIT,
) -> bool:
    """Pareto optimality by dominance search over all feasible matchings."""
    if pool is None:
        pool = enumerate_feasible_matchings(instance, limit)
    target = preference_profile(instance, matching)
    return not any(
        profile_dominates(preference_profile(instance, other), target)
        for other in pool
    )


@dataclass(frozen=True)
class PomCatalog:
    fingerprint: str
    poms: tuple[Matching, ...]
    examined: int


def enumerate_poms(instance: Instance, limit: int = DEFAULT_LIMIT) -> PomCatalog:
    """Catalog of all Pareto optimal matchings by pairwise dominance.

    Each entry is additionally re-verified with the envy-graph test; a
    disagreement would mean a bug in one of the two routes and raises.
    """
    pool = enumerate_feasible_matchings(instance, limit)
    profiles = [preference_profile(instance, m) for m in pool]
    poms = [
        m
        for i, m in enumerate(pool)
        if not any(
            profile_dominates(profiles[j], profiles[i])
            for j in range(len(pool))
            if j != i
        )
    ]
    for m in poms:
        if not envy.is_pareto_optimal(instance, m):
            raise AssertionError(
                f"dominance filter and envy-graph verifier disagree on {m}")
    return PomCatalog(instance.fingerprint(), tuple(poms), len(pool))


# ----------------------------------------------------------------------
# Orderings.
# ----------------------------------------------------------------------

def consecutive_orderings(instance: Instance) -> Iterator[PriorityOrdering]:
    """All orderings in which each applicant's copies are adjacent."""
    for perm in itertools.permutations(instance.applicants):
        out: list[str] = []
        for a in perm:
            out.extend([a] * instance.quota[a])
        yield tuple(out)


def distinct_orderings(instance: Instance) -> Iterator[PriorityOrdering]:
    """All distinct priority multisequences, lexicographically.

    Steps from the sorted multisequence by next permutation: find the last
    ascent, swap its head with the last larger element, reverse the tail.
    """
    seq = sorted(a for a in instance.applicants for _ in range(instance.quota[a]))
    while True:
        yield tuple(seq)
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])


# ----------------------------------------------------------------------
# Reachability.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReachabilityEntry:
    pom: Matching
    ordering: PriorityOrdering
    reproduced: bool


@dataclass(frozen=True)
class ReachabilityReport:
    fingerprint: str
    entries: tuple[ReachabilityEntry, ...]
    sweep_ran: bool
    sweep_orderings: int
    sweep_outputs: tuple[Matching, ...]
    sweep_outputs_all_pom: bool

    @property
    def all_reproduced(self) -> bool:
        return all(e.reproduced for e in self.entries)

    def to_lines(self) -> list[str]:
        lines = [f"poms={len(self.entries)}"]
        for e in self.entries:
            status = "ok" if e.reproduced else "FAILED"
            lines.append(
                f"{status} ordering={' '.join(e.ordering)} "
                f"matching={' '.join(f'{a}:{c}' for a, c in e.pom)}"
            )
        if self.sweep_ran:
            lines.append(
                f"sweep orderings={self.sweep_orderings} "
                f"outputs={len(self.sweep_outputs)} "
                f"all-pom={'yes' if self.sweep_outputs_all_pom else 'NO'}"
            )
        return lines


def check_reachability(
    instance: Instance, limit: int = DEFAULT_LIMIT, sweep_bound: int = 8
) -> ReachabilityReport:
    """For every Pareto optimal matching, derive an ordering and replay it
    with the guided mechanism; additionally sweep all orderings when the
    total quota is small, confirming every canonical output is in the
    catalog."""
    catalog = enumerate_poms(instance, limit)
    entries = []
    for pom in catalog.poms:
        sigma = derive_ordering(instance, pom)
        produced = run_gsdt(instance, sigma, GuidedToward(pom)).matching
        entries.append(ReachabilityEntry(pom, sigma, produced == pom))

    sweep_ran = instance.total_quota() <= sweep_bound
    outputs: list[Matching] = []
    count = 0
    all_pom = True
    if sweep_ran:
        pom_set = set(catalog.poms)
        seen: set[Matching] = set()
        for sigma in distinct_orderings(instance):
            count += 1
            produced = run_gsdt(instance, sigma, CANONICAL).matching
            if produced not in seen:
                seen.add(produced)
                outputs.append(produced)
                if produced not in pom_set:
                    all_pom = False
        outputs.sort(key=lambda m: tuple(m.canonical_pairs()))
    return ReachabilityReport(
        fingerprint=catalog.fingerprint,
        entries=tuple(entries),
        sweep_ran=sweep_ran,
        sweep_orderings=count,
        sweep_outputs=tuple(outputs),
        sweep_outputs_all_pom=all_pom,
    )


# ----------------------------------------------------------------------
# Misreport search.
# ----------------------------------------------------------------------

MISREPORT_SPACE_NOTE = (
    "# misreport space: orderings-with-ties over subsets of the "
    "true acceptable set"
)


class MisreportStatus(Enum):
    FOUND = "found"
    NONE = "none"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MisreportFinding:
    applicant: str
    true_prefs: tuple[frozenset[str], ...]
    fabricated_prefs: tuple[frozenset[str], ...]
    ordering: PriorityOrdering
    truthful_outcome: frozenset[str]
    lying_outcome: frozenset[str]
    strict_improvement: bool


@dataclass(frozen=True)
class MisreportSearch:
    status: MisreportStatus
    finding: MisreportFinding | None
    examined: int

    def to_lines(self) -> list[str]:
        lines = [MISREPORT_SPACE_NOTE]
        if self.status is MisreportStatus.FOUND:
            f = self.finding
            lines += [
                f"FOUND applicant={f.applicant}",
                f"true: {format_preference_list(f.true_prefs)}",
                f"fabricated: {format_preference_list(f.fabricated_prefs)}",
                f"ordering: {' '.join(f.ordering)}",
                f"truthful-outcome: {' '.join(sorted(f.truthful_outcome))}",
                f"lying-outcome: {' '.join(sorted(f.lying_outcome))}",
                f"improves: {'yes' if f.strict_improvement else 'no'}",
            ]
        elif self.status is MisreportStatus.NONE:
            lines.append(f"NONE examined={self.examined}")
        else:
            lines.append(f"INCONCLUSIVE examined={self.examined}")
        return lines


def _ordered_partitions(
    items: tuple[str, ...]
) -> Iterator[tuple[frozenset[str], ...]]:
    """Each first block, by size, then each partition of the rest; iterative."""
    def extend(chosen: tuple[frozenset[str], ...], rest: tuple[str, ...]) -> Iterator[tuple]:
        for k in range(1, len(rest) + 1):
            for block in map(frozenset, itertools.combinations(rest, k)):
                yield chosen + (block,), tuple(x for x in rest if x not in block)

    stack = [iter([((), items)])]  # per level: (blocks so far, items left) choices
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
        elif step[1]:
            stack.append(extend(*step))
        else:
            yield step[0]


def misreport_space(
    instance: Instance, applicant: str
) -> Iterator[tuple[frozenset[str], ...]]:
    """Every preference list over a subset of the applicant's true acceptable
    set: drop courses, merge ties, reorder, or any combination. Unacceptable
    courses are never added."""
    acceptable = tuple(sorted(instance.acceptable(applicant)))
    for k in range(len(acceptable) + 1):
        for subset in itertools.combinations(acceptable, k):
            yield from _ordered_partitions(subset)


def find_beneficial_misreport(
    instance: Instance,
    ordering: Sequence[str],
    applicant: str,
    search_limit: int = 200_000,
) -> MisreportSearch:
    """First fabricated preference list whose outcome the applicant strictly
    prefers, under her true preferences, to the truthful outcome.

    GSDT runs once per list, the truthful one first, through one
    ``gsdt.SnapshotCache``, which resumes each list from the deepest stored
    state the list fits. Her outcome is read off her own ties.

    Exhausting the space yields status NONE; hitting ``search_limit`` first
    yields INCONCLUSIVE, which is deliberately distinct from NONE.
    """
    runs = SnapshotCache(instance, ordering, applicant)

    def outcome(prefs: Sequence[frozenset[str]]) -> frozenset[str]:
        holders = runs.run(prefs).network.holders
        return frozenset(
            c for t, tie in enumerate(prefs) for c in tie if (applicant, t) in holders[c])

    truthful_set = outcome(instance.prefs[applicant])

    examined = 0
    for fabricated in misreport_space(instance, applicant):
        if examined >= search_limit:
            return MisreportSearch(MisreportStatus.INCONCLUSIVE, None, examined)
        examined += 1
        outcome_set = outcome(fabricated)
        if compare_sets(instance, applicant, outcome_set, truthful_set) is SetRelation.PREFERS:
            finding = MisreportFinding(
                applicant=applicant,
                true_prefs=instance.prefs[applicant],
                fabricated_prefs=tuple(fabricated),
                ordering=tuple(ordering),
                truthful_outcome=truthful_set,
                lying_outcome=outcome_set,
                strict_improvement=True,
            )
            return MisreportSearch(MisreportStatus.FOUND, finding, examined)
    return MisreportSearch(MisreportStatus.NONE, None, examined)


# ----------------------------------------------------------------------
# No deterministic selector over the four 2x2 instances can produce every
# Pareto optimal matching and stay manipulation-proof. The case analysis
# below replays that argument mechanically.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationCheck:
    """One 'applicant X under instance Y gains by reporting Z's list' step."""

    true_instance: str
    applicant: str
    borrowed_list: str
    selector_choice: str
    truthful_outcome: frozenset[str]
    lying_outcome: frozenset[str]
    improves: bool

    def line(self) -> str:
        return (
            f"{self.applicant} under {self.true_instance} reporting "
            f"{self.borrowed_list}'s list vs selector={self.selector_choice}: "
            f"{' '.join(sorted(self.truthful_outcome)) or '-'} -> "
            f"{' '.join(sorted(self.lying_outcome)) or '-'} "
            f"improves={'yes' if self.improves else 'no'}"
        )


@dataclass(frozen=True)
class ImpossibilityReport:
    pom_counts: tuple[tuple[str, int], ...]
    catalogs_match: bool
    forces_mu2_on_i2: DeviationCheck
    forces_mu2_on_i3: DeviationCheck
    i4_choice_mu2_fails: DeviationCheck
    i4_choice_mu3_fails: DeviationCheck
    confirmed: bool

    def to_lines(self) -> list[str]:
        lines = ["impossibility case analysis (selector returns mu1 on I1)"]
        lines += [f"poms {name}: {n}" for name, n in self.pom_counts]
        lines += [
            "I2 forced to mu2: " + self.forces_mu2_on_i2.line(),
            "I3 forced to mu2: " + self.forces_mu2_on_i3.line(),
            "I4 = mu2 refuted: " + self.i4_choice_mu2_fails.line(),
            "I4 = mu3 refuted: " + self.i4_choice_mu3_fails.line(),
            "no truthful selector covers all four: "
            + ("CONFIRMED" if self.confirmed else "NOT CONFIRMED"),
        ]
        return lines


def verify_impossibility_scenario() -> ImpossibilityReport:
    """Check, by direct computation, that a deterministic Pareto-optimal
    selector choosing mu1 on the first 2x2 instance is forced to mu2 on the
    second and third and has no manipulation-proof choice left on the
    fourth."""
    from .fixtures import impossibility_instance

    instances = {f"I{k}": impossibility_instance(k) for k in (1, 2, 3, 4)}
    mu1 = Matching([("a1", "c1"), ("a2", "c2")])
    mu2 = Matching([("a1", "c1"), ("a1", "c2")])
    mu3 = Matching([("a1", "c2"), ("a2", "c1")])

    catalogs = {
        name: set(enumerate_poms(inst).poms) for name, inst in instances.items()
    }
    expected = {
        "I1": {mu1, mu2, mu3},
        "I2": {mu2, mu3},
        "I3": {mu2, mu3},
        "I4": {mu2, mu3},
    }
    catalogs_match = catalogs == expected

    def deviation(true: str, a: str, borrowed: str, choice: str,
                  truthful: Matching, lying: Matching) -> DeviationCheck:
        before, after = truthful.of_applicant(a), lying.of_applicant(a)
        rel = compare_sets(instances[true], a, after, before)
        return DeviationCheck(true, a, borrowed, choice, before, after,
                              rel is SetRelation.PREFERS)

    # Were the selector to answer mu3 on I2, a2 (truthful under I1, where she
    # gets c2 from mu1) profits by declaring only c1, i.e. I2's list.
    dev_i2 = deviation("I1", "a2", "I2", "mu3", mu1, mu3)
    # Given I2 -> mu2: were the selector to answer mu3 on I3, a1 (truthful
    # under I3) profits by reporting I2's list and collecting mu2.
    dev_i3 = deviation("I3", "a1", "I2", "mu3", mu3, mu2)
    # On I4: answering mu2 lets a1 under I1 profit by reporting I4's list...
    dev_i4_mu2 = deviation("I1", "a1", "I4", "mu2", mu1, mu2)
    # ... and answering mu3 lets a2 under I3 (empty-handed at mu2) profit by
    # reporting I4's list.
    dev_i4_mu3 = deviation("I3", "a2", "I4", "mu3", mu2, mu3)

    confirmed = catalogs_match and all(
        d.improves for d in (dev_i2, dev_i3, dev_i4_mu2, dev_i4_mu3))
    return ImpossibilityReport(
        pom_counts=tuple(
            (name, len(catalogs[name])) for name in ("I1", "I2", "I3", "I4")
        ),
        catalogs_match=catalogs_match,
        forces_mu2_on_i2=dev_i2,
        forces_mu2_on_i3=dev_i3,
        i4_choice_mu2_fails=dev_i4_mu2,
        i4_choice_mu3_fails=dev_i4_mu3,
        confirmed=confirmed,
    )
