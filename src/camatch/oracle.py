"""Ground truth at desk scale: exhaustive matching enumeration, dominance-
based Pareto catalogs, reachability sweeps, and misreport search.

Everything here is deliberately simple and auditable; the point is to check
the clever machinery (envy graph, staged flow) against brute force, but for
misreport search, which shares the stages before the liar's first and skips or
stops the runs that cannot change its answer.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import comb
from typing import Iterable, Iterator, Sequence

from . import envy
from .errors import InstanceSemanticError, SearchLimitExceeded
from .gsdt import FlowNetwork, GuidedToward, derive_ordering, run_gsdt, serve
# with_prefs is re-exported: callers use oracle.with_prefs.
from .instance import (
    Instance,
    PriorityOrdering,
    format_preference_list,
    validate_ordering,
    with_prefs,
)
# preference_profile and profile_dominates are re-exported: callers use
# oracle.preference_profile.
from .matching import (
    Matching,
    Pair,
    SetRelation,
    compare_sets,
    preference_profile,
    profile_dominates,
)

DEFAULT_LIMIT = 10**6
SWEEP_BOUND = 8  # largest total quota at which check_reachability sweeps every ordering


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

    Level by level, one applicant per level, extends every partial matching by
    every course subset of the applicant's, up to her quota, that leaves each
    of its courses within capacity. Raises SearchLimitExceeded when the raw
    product of per-applicant subset counts goes past ``limit``.
    """
    space = 1
    for a in instance.applicants:
        acceptable = len(instance.acceptable(a))
        top = min(instance.quota[a], acceptable)
        space *= sum(comb(acceptable, k) for k in range(top + 1))
        if space > limit:
            break
    if space > limit:  # also with no applicants, where the space is 1
        raise SearchLimitExceeded(f"feasible-matching space exceeds {limit}")

    # Every partial extends by the empty choice: no level outgrows the result.
    partials: list[tuple[Pair, ...]] = [()]
    for a in instance.applicants:
        choices = _applicant_choices(instance, a)
        extended = []
        for partial in partials:
            used = Counter(c for _, c in partial)
            extended += [
                partial + tuple((a, c) for c in combo)
                for combo in choices
                if all(used[c] < instance.capacity[c] for c in combo)
            ]
        partials = extended
    results = [Matching(p) for p in partials]
    results.sort(key=lambda m: tuple(m.canonical_pairs()))
    return results


def is_pom_bruteforce(instance: Instance, matching: Matching) -> bool:
    """Pareto optimality by dominance search over all feasible matchings."""
    target = preference_profile(instance, matching)
    return not any(
        profile_dominates(preference_profile(instance, other), target)
        for other in enumerate_feasible_matchings(instance)
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
    # No profile dominates itself, so each is compared with all, its own too.
    poms = [
        m
        for m, prof in zip(pool, profiles)
        if not any(profile_dominates(other, prof) for other in profiles)
    ]
    for m in poms:
        if not envy.is_pareto_optimal(instance, m):
            raise AssertionError(
                f"dominance filter and envy-graph verifier disagree on {m}")
    return PomCatalog(instance.fingerprint(), tuple(poms), len(pool))


# ----------------------------------------------------------------------
# Orderings.
# ----------------------------------------------------------------------

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


def check_reachability(instance: Instance) -> ReachabilityReport:
    """For every Pareto optimal matching, derive an ordering and replay it
    with the guided mechanism; additionally sweep all orderings when the
    total quota is at most ``SWEEP_BOUND``, confirming every canonical
    output is in the catalog."""
    catalog = enumerate_poms(instance)
    entries = []
    for pom in catalog.poms:
        sigma = derive_ordering(instance, pom)
        produced = run_gsdt(instance, sigma, GuidedToward(pom)).matching
        entries.append(ReachabilityEntry(pom, sigma, produced == pom))

    sweep_ran = instance.total_quota() <= SWEEP_BOUND
    sigmas = list(distinct_orderings(instance)) if sweep_ran else []
    outputs = sorted({run_gsdt(instance, sigma).matching for sigma in sigmas},
                     key=lambda m: tuple(m.canonical_pairs()))
    return ReachabilityReport(
        fingerprint=catalog.fingerprint,
        entries=tuple(entries),
        sweep_ran=sweep_ran,
        sweep_orderings=len(sigmas),
        sweep_outputs=tuple(outputs),
        sweep_outputs_all_pom=set(outputs) <= set(catalog.poms),
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
        else:
            lines.append(f"{self.status.name} examined={self.examined}")
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


@cache
def _ordered_partition_count(k: int) -> int:
    """Fubini(k), the lists ``_ordered_partitions`` yields over k courses: a
    first block of j, then a list of the other k - j; the empty list alone for 0."""
    return sum(comb(k, j) * _ordered_partition_count(k - j) for j in range(1, k + 1)) or 1


def _course_subsets(instance: Instance, applicant: str) -> Iterator[tuple[str, ...]]:
    """The subsets of her acceptable courses, by size, in combinations order."""
    acceptable = sorted(instance.acceptable(applicant))
    return itertools.chain.from_iterable(
        itertools.combinations(acceptable, k) for k in range(len(acceptable) + 1))


def misreport_space(
    instance: Instance, applicant: str
) -> Iterator[tuple[frozenset[str], ...]]:
    """Every preference list over a subset of the applicant's true acceptable
    set: drop courses, merge ties, reorder, or any combination. Unacceptable
    courses are never added."""
    for subset in _course_subsets(instance, applicant):
        yield from _ordered_partitions(subset)


def run_list(base: FlowNetwork, ordering: Sequence[str], applicant: str,
             prefs: Iterable[Iterable[str]], stop: int | None = None) -> FlowNetwork:
    """The canonical run with ``prefs`` as her list, served on a copy of
    ``base``, a state before her first stage, to the ``stop`` stage or to the
    end, where it equals a fresh ``run_gsdt``'s, counters and probes included.
    A stop just before one of her stages would leave that stage unread."""
    assert stop is None or applicant not in ordering[stop:stop + 1]
    net = base.copy(with_prefs(base.instance, applicant, prefs))
    serve(net, ordering[len(base.record):stop])
    return net


def find_beneficial_misreport(
    instance: Instance,
    ordering: Sequence[str],
    applicant: str,
    search_limit: int = 200_000,
) -> MisreportSearch:
    """First fabricated preference list whose outcome the applicant strictly
    prefers, under her true preferences, to the truthful outcome.

    The stages before her first one read no list of hers, so they are served
    once, into a base state that holds nothing of hers. Every run starts from
    a copy of that base (``run_list``), the truthful list's first; the space
    lists it again, and then it is counted, not rerun. Her outcome is read
    off her own ties. A list whose ties each lie inside a true tie, the
    truthful one included, runs only to ``last``, the stage after her last:
    from there her source and tie capacities stay fixed and later paths move
    her only within a tie of the list (nobody trades down), so her
    per-true-tie counts, all ``compare_sets`` reads, are final. A list merging
    true ties runs in full, as do both lists of a FOUND (sets of full runs).

    A list runs only if it could win. Her outcome holds at most ``quota`` of
    the courses it names (her stages), all in the base's ``live_courses``,
    which no list of hers changes: the base holds nothing of hers. So her
    bound, her ``quota`` best such courses under her true ties, depends only
    on the list's course subset. A subset whose bound does not beat the
    truthful outcome adds its Fubini(k) lists to ``examined`` unwalked. A
    superset's bound is lexicographically no smaller, so if her whole set's
    loses, no subset's bound is taken: each adds its count unwalked, and the
    search returns NONE with the space's size. Passing ``search_limit``
    first yields INCONCLUSIVE at ``search_limit`` (0 if negative), not NONE.
    """
    validate_ordering(instance, ordering)
    if applicant not in instance.quota:
        raise InstanceSemanticError(f"unknown applicant {applicant!r}")
    truthful = instance.prefs[applicant]
    last = 1 + max(i for i, b in enumerate(ordering) if b == applicant)
    base = FlowNetwork(instance)
    serve(base, ordering[:ordering.index(applicant)])  # she has a stage: her quota is at least 1
    ties = itertools.chain(base.cap_tie, *base.holders.values(),
                           (n[1:] for n in base.dead if n[0] == "tie"))
    assert all(a != applicant for a, _ in ties), "the base holds a tie of hers"

    def outcome(prefs: Sequence[frozenset[str]], full: bool = False) -> frozenset[str]:
        inside = all(any(tie <= true_tie for true_tie in truthful) for tie in prefs)
        holders = run_list(base, ordering, applicant, prefs,
                           None if full or not inside else last).holders
        return frozenset(
            c for t, tie in enumerate(prefs) for c in tie if (applicant, t) in holders[c])

    truthful_set = outcome(truthful)

    def prefers(courses: Iterable[str]) -> bool:  # to the truthful outcome, under her true ties
        return compare_sets(instance, applicant, courses, truthful_set) is SetRelation.PREFERS

    ranked = sorted(base.live_courses() & instance.acceptable(applicant),
                    key=lambda c: instance.tie_of(applicant, c))
    inconclusive = MisreportSearch(MisreportStatus.INCONCLUSIVE, None, max(search_limit, 0))
    whole, examined = prefers(ranked[:instance.quota[applicant]]), 0
    for subset in _course_subsets(instance, applicant):
        # Unless her whole set's bound wins, no subset's does.
        walked = whole and prefers([c for c in ranked if c in subset][:instance.quota[applicant]])
        for fabricated in _ordered_partitions(subset) if walked else [None]:  # else one step
            examined += 1 if walked else _ordered_partition_count(len(subset))
            if examined > search_limit:
                return inconclusive
            if walked and fabricated != truthful and prefers(outcome(fabricated)):
                finding = MisreportFinding(
                    applicant, truthful, tuple(fabricated), tuple(ordering),
                    outcome(truthful, full=True), outcome(fabricated, full=True), True)
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

    applicant: str
    truthful_outcome: frozenset[str]
    lying_outcome: frozenset[str]
    improves: bool


@dataclass(frozen=True)
class ImpossibilityReport:
    pom_counts: tuple[tuple[str, int], ...]
    catalogs_match: bool
    forces_mu2_on_i2: DeviationCheck
    forces_mu2_on_i3: DeviationCheck
    i4_choice_mu2_fails: DeviationCheck
    i4_choice_mu3_fails: DeviationCheck
    confirmed: bool


def impossibility_instance(variant: int) -> Instance:
    """The four 2x2 strict instances of the no-truthful-selector argument,
    also shipped as ``fixtures/impossibility_i{variant}.txt``.

    All share quotas b(a1)=2, b(a2)=1, q(c1)=q(c2)=1 and differ only in the
    declared lists.
    """
    lists = {
        1: ([["c1"], ["c2"]], [["c1"], ["c2"]]),
        2: ([["c1"], ["c2"]], [["c1"]]),
        3: ([["c2"], ["c1"]], [["c1"]]),
        4: ([["c2"], ["c1"]], [["c1"], ["c2"]]),
    }
    a1_prefs, a2_prefs = lists[variant]
    return Instance.build(
        courses=[("c1", 1), ("c2", 1)],
        applicants=[("a1", 2, a1_prefs), ("a2", 1, a2_prefs)],
    )


def verify_impossibility_scenario() -> ImpossibilityReport:
    """Check, by direct computation, that a deterministic Pareto-optimal
    selector choosing mu1 on the first 2x2 instance is forced to mu2 on the
    second and third and has no manipulation-proof choice left on the
    fourth."""
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

    def deviation(true: str, a: str, truthful: Matching, lying: Matching) -> DeviationCheck:
        before, after = truthful.of_applicant(a), lying.of_applicant(a)
        rel = compare_sets(instances[true], a, after, before)
        return DeviationCheck(a, before, after, rel is SetRelation.PREFERS)

    # Were the selector to answer mu3 on I2, a2 (truthful under I1, where she
    # gets c2 from mu1) profits by declaring only c1, i.e. I2's list.
    dev_i2 = deviation("I1", "a2", mu1, mu3)
    # Given I2 -> mu2: were the selector to answer mu3 on I3, a1 (truthful
    # under I3) profits by reporting I2's list and collecting mu2.
    dev_i3 = deviation("I3", "a1", mu3, mu2)
    # On I4: answering mu2 lets a1 under I1 profit by reporting I4's list...
    dev_i4_mu2 = deviation("I1", "a1", mu1, mu2)
    # ... and answering mu3 lets a2 under I3 (empty-handed at mu2) profit by
    # reporting I4's list.
    dev_i4_mu3 = deviation("I3", "a2", mu2, mu3)

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
