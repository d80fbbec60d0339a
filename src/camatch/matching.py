"""Matchings over an instance: feasibility, lexicographic set comparison via
per-tie count vectors, Pareto dominance, and improving coalitions (alternating
path, augmenting path, cyclic) together with their satisfaction."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from typing import Iterable, Iterator

from .errors import CoalitionError, FeasibilityError
from .instance import Instance

Pair = tuple[str, str]


class Matching:
    """An immutable set of (applicant, course) pairs with lookup maps. Eq, hash
    and repr ignore ``_optimal_in`` and ``_graph`` (kept by ``envy.is_pareto_optimal``)."""

    __slots__ = ("pairs", "_of_applicant", "_of_course", "_optimal_in", "_graph")

    def __init__(self, pairs: Iterable[Pair] = ()):
        self.pairs: frozenset[Pair] = frozenset(pairs)
        self._optimal_in: Instance | None = None
        self._graph = None
        of_a: dict[str, set[str]] = {}
        of_c: dict[str, set[str]] = {}
        for a, c in self.pairs:
            of_a.setdefault(a, set()).add(c)
            of_c.setdefault(c, set()).add(a)
        self._of_applicant = {a: frozenset(cs) for a, cs in of_a.items()}
        self._of_course = {c: frozenset(xs) for c, xs in of_c.items()}

    def of_applicant(self, applicant: str) -> frozenset[str]:
        return self._of_applicant.get(applicant, frozenset())

    def of_course(self, course: str) -> frozenset[str]:
        return self._of_course.get(course, frozenset())

    def canonical_pairs(self) -> list[Pair]:
        return sorted(self.pairs)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.canonical_pairs())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matching) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        inner = ", ".join(f"({a}, {c})" for a, c in self.canonical_pairs())
        return f"Matching({{{inner}}})"


def is_exposed_applicant(instance: Instance, matching: Matching, a: str) -> bool:
    return len(matching.of_applicant(a)) < instance.quota[a]


def is_exposed_course(instance: Instance, matching: Matching, c: str) -> bool:
    return len(matching.of_course(c)) < instance.capacity[c]


def is_feasible(instance: Instance, matching: Matching) -> str | None:
    """Return None if the matching is feasible, else a description of the
    first violated constraint (unknown id, individual rationality, quota).
    Only matched ids can exceed a bound, so the bounds are tested over the
    matching's maps; ids are walked in input order only to name the first."""
    if matching._optimal_in is instance:  # it passed this scan before it was verified
        return None
    bad = [(a, c) for a, c in matching.pairs if a not in instance.quota
           or c not in instance.capacity or c not in instance.acceptable(a)]
    if bad:  # the least violating pair is named
        a, c = min(bad)
        if a not in instance.quota:
            return f"unknown applicant {a!r}"
        if c not in instance.capacity:
            return f"unknown course {c!r}"
        return f"course {c} is not acceptable to {a}"
    for ids, held, bound in ((instance.applicants, matching._of_applicant, instance.quota),
                             (instance.courses, matching._of_course, instance.capacity)):
        if any(len(xs) > bound[x] for x, xs in held.items()):
            x = next(x for x in ids if len(held.get(x, ())) > bound[x])
            return f"|mu({x})| = {len(held[x])} exceeds quota {bound[x]}"
    return None


def require_feasible(instance: Instance, matching: Matching) -> None:
    violation = is_feasible(instance, matching)
    if violation is not None:
        raise FeasibilityError(violation)


# ----------------------------------------------------------------------
# Set preference: per-tie counts compared lexicographically.
# ----------------------------------------------------------------------

class SetRelation(Enum):
    PREFERS = "prefers"
    INDIFFERENT = "indifferent"
    DISPREFERRED = "dispreferred"


def characteristic_vector(
    instance: Instance, applicant: str, course_set: Iterable[str]
) -> tuple[int, ...]:
    """Count, per indifference class of the applicant, the courses of the set
    falling into it. All courses must be acceptable to the applicant."""
    counts = [0] * len(instance.prefs[applicant])
    for c in course_set:
        counts[instance.tie_of(applicant, c)] += 1
    return tuple(counts)


def compare_sets(
    instance: Instance,
    applicant: str,
    s: Iterable[str],
    u: Iterable[str],
) -> SetRelation:
    """The applicant's view of course set ``s`` against ``u``."""
    chi_s = characteristic_vector(instance, applicant, s)
    chi_u = characteristic_vector(instance, applicant, u)
    if chi_s > chi_u:
        return SetRelation.PREFERS
    if chi_s < chi_u:
        return SetRelation.DISPREFERRED
    return SetRelation.INDIFFERENT


def _weakly_prefers_course(instance: Instance, a: str, c_new: str, c_old: str) -> bool:
    return instance.tie_of(a, c_new) <= instance.tie_of(a, c_old)


def _strictly_prefers_course(instance: Instance, a: str, c_new: str, c_old: str) -> bool:
    return instance.tie_of(a, c_new) < instance.tie_of(a, c_old)


def weakly_envied(
    instance: Instance, matching: Matching, a: str, c: str
) -> Iterator[tuple[str, int]]:
    """The weak-envy relation of a matched pair ``ac``: each course ``a``
    does not hold and ranks at least as high as ``c``, with weight 0 in
    ``c``'s tie and -1 above it."""
    own_tie = instance.tie_of(a, c)
    held = matching.of_applicant(a)
    for t, tie in enumerate(instance.prefs[a][:own_tie + 1]):
        for c2 in tie - held:
            yield c2, (0 if t == own_tie else -1)


Profile = tuple[tuple[int, ...], ...]


def preference_profile(instance: Instance, matching: Matching) -> Profile:
    """Per-applicant characteristic vectors, in applicant order."""
    return tuple(
        characteristic_vector(instance, a, matching.of_applicant(a))
        for a in instance.applicants
    )


def profile_dominates(prof_new: Profile, prof_old: Profile) -> bool:
    """Pareto dominance of profiles: no vector smaller, some vector larger."""
    return all(n >= o for n, o in zip(prof_new, prof_old)) and any(
        n > o for n, o in zip(prof_new, prof_old)
    )


def pareto_dominates(instance: Instance, mu_prime: Matching, mu: Matching) -> bool:
    """True iff ``mu_prime`` leaves no applicant worse off and some applicant
    strictly better off. Both matchings must be feasible."""
    require_feasible(instance, mu_prime)
    require_feasible(instance, mu)
    return profile_dominates(
        preference_profile(instance, mu_prime), preference_profile(instance, mu))


# ----------------------------------------------------------------------
# Improving coalitions.
# ----------------------------------------------------------------------

class CoalitionKind(Enum):
    ALTERNATING_PATH = "alternating-path"
    AUGMENTING_PATH = "augmenting-path"
    CYCLIC = "cyclic"


@dataclass(frozen=True)
class ImprovingCoalition:
    """An alternating sequence of courses and applicants that can trade.

    The shapes are, writing c for courses and a for applicants:

    - alternating path:  c0 a0 c1 a1 ... c(r-1) a(r-1) cr   (r >= 1)
    - augmenting path:   a0 c1 a1 c2 ... a(r-1) cr          (r >= 1)
    - cyclic:            c0 a0 c1 a1 ... c(r-1) a(r-1)      (r >= 2)

    ``applicants`` holds a0..a(r-1); ``courses`` holds the course elements in
    sequence order.
    """

    kind: CoalitionKind
    applicants: tuple[str, ...]
    courses: tuple[str, ...]

    def sequence(self) -> tuple[tuple[str, str], ...]:
        """Interleaved ('course'|'applicant', id) view of the sequence."""
        cs = [("course", c) for c in self.courses]
        as_ = [("applicant", a) for a in self.applicants]
        if self.kind is CoalitionKind.AUGMENTING_PATH:
            first, second = as_, cs
        else:
            first, second = cs, as_
        return tuple(x for step in zip_longest(first, second) for x in step if x)

    def describe(self) -> str:
        return f"{self.kind.value}: " + " ".join(x for _, x in self.sequence())


def _trades(
    kind: CoalitionKind, applicants: tuple[str, ...], courses: tuple[str, ...]
) -> tuple[list[Pair], list[Pair]]:
    """The pairs a coalition gives up and the pairs it takes. On an augmenting
    path the held courses c1..c(r-1) belong to a1..a(r-1); the leading
    applicant holds nothing in the sequence."""
    if kind is CoalitionKind.AUGMENTING_PATH:
        return list(zip(applicants[1:], courses)), list(zip(applicants, courses))
    ahead = courses[1:] + (courses[:1] if kind is CoalitionKind.CYCLIC else ())
    return list(zip(applicants, courses)), list(zip(applicants, ahead))


def _sequence_error(
    instance: Instance,
    matching: Matching,
    kind: CoalitionKind,
    applicants: tuple[str, ...],
    courses: tuple[str, ...],
    allow_repeats: bool,
) -> str | None:
    """Check the structural and preference conditions of a coalition shape.

    With ``allow_repeats`` the no-repetition requirement is skipped, which is
    exactly the relaxation defining a pseudocoalition.
    """
    r = len(applicants)
    for a in applicants:
        if a not in instance.quota:
            return f"unknown applicant {a!r}"
    for c in courses:
        if c not in instance.capacity:
            return f"unknown course {c!r}"

    if kind is CoalitionKind.ALTERNATING_PATH:
        if r < 1 or len(courses) != r + 1:
            return "alternating path needs r >= 1 with r+1 courses"
        if is_exposed_applicant(instance, matching, applicants[0]):
            return f"{applicants[0]} must be full"
    elif kind is CoalitionKind.AUGMENTING_PATH:
        if r < 1 or len(courses) != r:
            return "augmenting path needs r >= 1 with r courses"
        if not is_exposed_applicant(instance, matching, applicants[0]):
            return f"{applicants[0]} must be exposed"
    elif kind is CoalitionKind.CYCLIC:
        if r < 2 or len(courses) != r:
            return "cyclic coalition needs r >= 2 with r courses"
    else:  # pragma: no cover
        return f"unknown kind {kind}"
    if kind is not CoalitionKind.CYCLIC and not is_exposed_course(instance, matching, courses[-1]):
        return f"terminal course {courses[-1]} must be exposed"

    # Membership: each applicant holds the course before her and does not
    # hold the course after her.
    given_up, taken = _trades(kind, applicants, courses)
    for a, c in given_up:
        if (a, c) not in matching:
            return f"({a}, {c}) is not in the matching"
        if c not in instance.acceptable(a):
            return f"course {c} is not acceptable to {a}"
    for a, c in taken:
        if c not in instance.acceptable(a):
            return f"course {c} is not acceptable to {a}"
        if (a, c) in matching:
            return f"({a}, {c}) is already in the matching"

    # Preferences: the first applicant strictly improves on a path that
    # starts at a course she holds; everyone else at least breaks even.
    augmenting = kind is CoalitionKind.AUGMENTING_PATH
    swaps = zip(given_up, taken[1:] if augmenting else taken)
    for k, ((a, c_old), (_, c_new)) in enumerate(swaps):
        if k == 0 and not augmenting:
            if not _strictly_prefers_course(instance, a, c_new, c_old):
                return f"{a} must strictly prefer {c_new} to {c_old}"
        elif not _weakly_prefers_course(instance, a, c_new, c_old):
            return f"{a} must weakly prefer {c_new} to {c_old}"

    if not allow_repeats:
        if len(set(applicants)) != len(applicants):
            return "an applicant repeats"
        if len(set(courses)) != len(courses):
            return "a course repeats"
    return None


def coalition_error(
    instance: Instance, matching: Matching, coalition: ImprovingCoalition
) -> str | None:
    """None if the coalition is valid for the matching, else the reason."""
    return _sequence_error(instance, matching, coalition.kind,
                           coalition.applicants, coalition.courses,
                           allow_repeats=False)


def satisfy_coalition(
    instance: Instance, matching: Matching, coalition: ImprovingCoalition
) -> Matching:
    """Apply the coalition's trades: each member applicant swaps the course
    behind her for the course ahead of her; on an augmenting path the leading
    applicant simply gains a course. ``CoalitionError`` unless the coalition
    is valid; the result is then feasible and Pareto dominates the input."""
    error = coalition_error(instance, matching, coalition)
    if error is not None:
        raise CoalitionError(error)
    return _traded(matching, coalition)


def _traded(matching: Matching, coalition: ImprovingCoalition) -> Matching:
    """``matching`` after a valid coalition's trades, unchecked: its pairs less
    those given up plus those taken, and copies of its maps with only the
    traders' entries redone."""
    given_up, taken = _trades(coalition.kind, coalition.applicants, coalition.courses)
    traded = Matching.__new__(Matching)
    traded.pairs = matching.pairs.difference(given_up).union(taken)
    traded._optimal_in = traded._graph = None
    traded._of_applicant, traded._of_course = of_a, of_c = (
        dict(matching._of_applicant), dict(matching._of_course))
    for trades, change in ((given_up, frozenset.difference), (taken, frozenset.union)):
        for a, c in trades:
            for held, x, y in ((of_a, a, c), (of_c, c, a)):
                if ids := change(held.pop(x, frozenset()), (y,)):
                    held[x] = ids
    return traded
