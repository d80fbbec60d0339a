"""Course-allocation instances: applicants with tied preference lists over
courses, per-side quotas, plus the line-oriented text formats for instances,
priority orderings, and matchings."""

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, KeysView, Sequence

from .errors import (
    InstanceSemanticError,
    InstanceSyntaxError,
    OrderingError,
)

MAX_QUOTA = 2**31 - 1

# Ids may not use whitespace (``\s`` matches what ``str.isspace`` does) or ``()=#``.
_ID_FORBIDDEN = re.compile(r"[\s()=#]")

PreferenceList = tuple[frozenset[str], ...]
PriorityOrdering = tuple[str, ...]


def _check_id(token: str, role: str) -> None:
    if not token or _ID_FORBIDDEN.search(token):
        raise InstanceSemanticError(f"invalid {role} id {token!r}")


def _tie_sets(
    aid: str, ties: Iterable[Iterable[str]], capacity: dict[str, int]
) -> tuple[PreferenceList, dict[str, int]]:
    """``aid``'s ties as sets (nonempty, of known courses ranked once) and each course's tie."""
    index: dict[str, int] = {}
    tie_sets: list[frozenset[str]] = []
    for t, group in enumerate(ties):
        group = list(group)
        if not group:
            raise InstanceSemanticError(f"applicant {aid!r} has an empty tie group")
        for cid in group:
            if cid not in capacity:
                raise InstanceSemanticError(f"applicant {aid!r} ranks unknown course {cid!r}")
            if cid in index:
                raise InstanceSemanticError(
                    f"course {cid!r} appears twice in {aid!r}'s preference list")
            index[cid] = t
        tie_sets.append(frozenset(group))
    return tuple(tie_sets), index


@dataclass(frozen=True)
class Instance:
    """An immutable allocation instance.

    ``applicants`` and ``courses`` fix the display order; ``quota`` maps each
    applicant to the number of courses she may take, ``capacity`` each course
    to the number of seats. ``prefs[a]`` is the tuple of indifference classes
    of ``a``, most preferred first; only nonempty classes are stored, and
    ``build`` keeps equal classes as one frozenset. ``tie_index[a][c]`` is the
    index of ``c``'s class; equality and repr ignore it.
    """

    applicants: tuple[str, ...]
    courses: tuple[str, ...]
    quota: dict[str, int]
    capacity: dict[str, int]
    prefs: dict[str, PreferenceList]
    tie_index: dict[str, dict[str, int]] = field(compare=False, repr=False)

    @staticmethod
    def build(
        courses: Sequence[tuple[str, int]],
        applicants: Iterable[tuple[str, int, Sequence[Iterable[str]]]],
    ) -> "Instance":
        """Validate and construct an instance.

        ``courses`` holds (id, capacity) pairs, ``applicants`` any iterable
        of (id, quota, ties) triples, read once, in order, after the courses
        (``parse_instance`` yields each line's once its syntax is checked);
        ``ties`` is a sequence of course-id groups, most preferred first.
        Raises InstanceSemanticError on duplicate ids, dangling course
        references, out-of-range quotas, empty ties, or a course appearing
        twice in a preference list.
        """
        capacity: dict[str, int] = {}
        for cid, cap in courses:
            _check_id(cid, "course")
            if cid in capacity:
                raise InstanceSemanticError(f"duplicate course id {cid!r}")
            if not 1 <= cap <= MAX_QUOTA:
                raise InstanceSemanticError(
                    f"course {cid!r} quota {cap} out of range [1, {MAX_QUOTA}]")
            capacity[cid] = cap

        quota: dict[str, int] = {}
        prefs: dict[str, PreferenceList] = {}
        tie_index: dict[str, dict[str, int]] = {}
        shared: dict[frozenset[str], frozenset[str]] = {}
        for aid, b, ties in applicants:
            _check_id(aid, "applicant")
            if aid in quota or aid in capacity:
                raise InstanceSemanticError(f"duplicate id {aid!r}")
            if not 1 <= b <= MAX_QUOTA:
                raise InstanceSemanticError(
                    f"applicant {aid!r} quota {b} out of range [1, {MAX_QUOTA}]")
            quota[aid] = b
            tie_sets, tie_index[aid] = _tie_sets(aid, ties, capacity)
            prefs[aid] = tuple(map(shared.setdefault, tie_sets, tie_sets))

        # Dicts keep insertion order, so their keys are the ids in input order.
        return Instance(tuple(quota), tuple(capacity), quota, capacity, prefs, tie_index)

    def acceptable(self, applicant: str) -> KeysView[str]:
        """All courses appearing in the applicant's preference list, as a
        read-only set-like view (``in``, ``-``, ``==`` with a set all work)."""
        return self.tie_index[applicant].keys()

    def tie_of(self, applicant: str, course: str) -> int:
        """0-based indifference-class index of ``course`` for ``applicant``."""
        try:
            return self.tie_index[applicant][course]
        except KeyError:
            raise ValueError(
                f"course {course!r} is not acceptable to {applicant!r}") from None

    def total_quota(self) -> int:
        return sum(self.quota[a] for a in self.applicants)

    def fingerprint(self) -> str:
        return hashlib.sha256(serialize_instance(self).encode()).hexdigest()


def with_prefs(instance: Instance, applicant: str, ties: Iterable[Iterable[str]]) -> Instance:
    """Same instance with one applicant's preference list replaced, checked
    as ``Instance.build`` checks it; her declared tuple returns ``instance``."""
    if applicant not in instance.quota:
        raise InstanceSemanticError(f"unknown applicant {applicant!r}")
    if ties is instance.prefs[applicant]:  # her declared tuple, which build checked
        return instance
    prefs, index = _tie_sets(applicant, ties, instance.capacity)
    return replace(instance, prefs={**instance.prefs, applicant: prefs},
                   tie_index={**instance.tie_index, applicant: index})


# ----------------------------------------------------------------------
# Text formats.
#
# Instance file: first content line `courses: c1=2 c2=1 ...`, then one
# line per applicant `applicant a1 quota=2 prefs: ( c1 c2 ) ( c3 )`.
# `#` starts a comment anywhere. Ordering file: applicant ids separated
# by whitespace. Matching file: one `applicant course` pair per line.
# Words are split on whitespace; a syntax error names the 1-based line
# and column of the word at fault.
# ----------------------------------------------------------------------

def _tokenize(text: str) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, words) for each line with a word outside
    comments, a line at a time: only the current line's words are held."""
    lines = (raw.split("#", 1)[0].split() for raw in text.splitlines())
    return ((lineno, words) for lineno, words in enumerate(lines, start=1) if words)


def _syntax(text: str, lineno: int, index: int, message: str) -> InstanceSyntaxError:
    """The error at word ``index`` of line ``lineno``. Only here is the
    line rescanned for the word's column."""
    content = text.splitlines()[lineno - 1].split("#", 1)[0]
    column = list(re.finditer(r"\S+", content))[index].start() + 1
    return InstanceSyntaxError(message, lineno, column)


def _parse_int(digits: str, what: str, text: str, lineno: int, index: int) -> int:
    try:
        return int(digits)
    except ValueError:
        raise _syntax(text, lineno, index,
                      f"{what} must be an integer, got {digits!r}") from None


def _applicant(text: str, lineno: int, words: list[str],
               ids: dict[str, str]) -> tuple[str, int, list[list[str]]]:
    """(id, quota, ties) of one applicant line, after its syntax checks."""
    # A missing word is reported at the line's last one.
    last = len(words) - 1
    if words[0] != "applicant":
        raise _syntax(text, lineno, 0, "expected 'applicant'")
    if last < 1:
        raise _syntax(text, lineno, last, "expected an applicant id")
    if last < 2 or not words[2].startswith("quota="):
        raise _syntax(text, lineno, min(2, last), "expected quota=<n>")
    b = _parse_int(words[2][len("quota="):],
                   f"quota of applicant {words[1]!r}", text, lineno, 2)
    if last < 3 or words[3] != "prefs:":
        raise _syntax(text, lineno, min(3, last), "expected 'prefs:'")

    ties: list[list[str]] = []
    group: list[str] | None = None
    for i, word in enumerate(words[4:], start=4):
        if word == "(":
            if group is not None:
                raise _syntax(text, lineno, i, "nested '(' in tie group")
            group = []
        elif word == ")":
            if group is None:
                raise _syntax(text, lineno, i, "')' without matching '('")
            ties.append(group)
            group = None
        elif group is None:
            raise _syntax(text, lineno, i, f"expected '(', got {word!r}")
        else:
            group.append(ids.get(word, word))  # an unknown id stays, for build to report
    if group is not None:
        raise _syntax(text, lineno, last, "unclosed tie group")
    return words[1], b, ties


def parse_instance(text: str) -> Instance:
    """Parse an instance file, building each applicant as its line is read.

    Raises InstanceSyntaxError (with line/column) for malformed text and
    InstanceSemanticError for rule violations such as duplicate ids or
    unknown courses. Each course word in a tie becomes the header's own id
    string, so the instance holds one string per course, however often listed.
    """
    lines = _tokenize(text)
    first = next(lines, None)
    if first is None:
        raise InstanceSyntaxError("missing 'courses:' line", 1, 1)

    lineno, header = first
    if header[0] != "courses:":
        raise _syntax(text, lineno, 0, "expected 'courses:'")
    courses: list[tuple[str, int]] = []
    ids: dict[str, str] = {}  # each course id to itself, the one copy kept
    for i, word in enumerate(header[1:], start=1):
        if "=" not in word:
            raise _syntax(text, lineno, i, f"expected <id>=<quota>, got {word!r}")
        cid, _, qtext = word.partition("=")
        courses.append((cid, _parse_int(qtext, f"quota of course {cid!r}", text, lineno, i)))
        ids[cid] = cid

    applicants = (_applicant(text, lineno, words, ids) for lineno, words in lines)
    try:
        return Instance.build(courses, applicants)
    except InstanceSemanticError as error:
        semantic = error
    deque(applicants, maxlen=0)  # a later line's syntax error comes first, unchained
    raise semantic


def format_preference_list(ties: Sequence[Iterable[str]]) -> str:
    """Render tie groups as `( c1 c2 ) ( c3 )`; courses sorted within a tie."""
    return " ".join("( " + " ".join(sorted(tie)) + " )" for tie in ties)


def serialize_instance(instance: Instance) -> str:
    """Canonical text for an instance; courses within a tie are sorted."""
    out = [" ".join(
        ["courses:"] + [f"{c}={instance.capacity[c]}" for c in instance.courses])]
    for a in instance.applicants:
        groups = format_preference_list(instance.prefs[a])
        line = f"applicant {a} quota={instance.quota[a]} prefs:"
        out.append(line + " " + groups if groups else line)
    return "\n".join(out) + "\n"


def parse_ordering(text: str) -> PriorityOrdering:
    return tuple(word for _, words in _tokenize(text) for word in words)


def serialize_ordering(ordering: PriorityOrdering) -> str:
    return " ".join(ordering) + "\n"


def check_ordering(instance: Instance, ordering: Sequence[str]) -> str | None:
    """None if each applicant a occurs exactly quota(a) times in the ordering, else the error."""
    counts = Counter(ordering)  # keys in order of first appearance
    if counts == instance.quota:  # dict equality, in C: the usual case
        return None
    for x in counts:
        if x not in instance.quota:
            return f"unknown applicant {x!r} in ordering"
    for a in instance.applicants:
        if counts[a] != instance.quota[a]:
            return (f"{a} appears {counts[a]} time(s) in the ordering, "
                    f"needs {instance.quota[a]}")
    return None


def validate_ordering(instance: Instance, ordering: Sequence[str]) -> None:
    error = check_ordering(instance, ordering)
    if error is not None:
        raise OrderingError(error)


def parse_matching_pairs(text: str, instance: Instance) -> tuple[tuple[str, str], ...]:
    """Parse a matching file into (applicant, course) pairs.

    Ids must exist in the instance and no pair may repeat; pairs keep file
    order (matchings themselves are order-insensitive).
    """
    pairs: dict[tuple[str, str], None] = {}  # an ordered set
    for lineno, words in _tokenize(text):
        if len(words) != 2:
            raise _syntax(text, lineno, 0, "expected '<applicant-id> <course-id>'")
        a, c = words
        if a not in instance.quota:
            raise InstanceSemanticError(f"unknown applicant {a!r} in matching")
        if c not in instance.capacity:
            raise InstanceSemanticError(f"unknown course {c!r} in matching")
        if (a, c) in pairs:
            raise InstanceSemanticError(f"duplicate pair ({a}, {c}) in matching")
        pairs[a, c] = None
    return tuple(pairs)


def serialize_matching_pairs(pairs: Iterable[tuple[str, str]]) -> str:
    lines = [f"{a} {c}" for a, c in sorted(pairs)]
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Random instances.
# ----------------------------------------------------------------------

def generate_random_instance(
    n1: int,
    n2: int,
    max_b: int,
    max_q: int,
    tie_density: float,
    seed: int,
) -> Instance:
    """Generate a random valid instance, deterministically for a fixed seed.

    Each course is acceptable to each applicant with probability 1/2; the
    acceptable set is shuffled and split into ties, where each course joins
    the previous tie with probability ``tie_density`` (0 gives strict
    preferences, values near 1 give long ties).
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("n1 and n2 must be nonnegative")
    if max_b < 1 or max_q < 1:
        raise ValueError("max_b and max_q must be at least 1")
    if not 0.0 <= tie_density <= 1.0:
        raise ValueError("tie_density must lie in [0, 1]")

    rng = random.Random(seed)
    course_ids = [f"c{j}" for j in range(1, n2 + 1)]
    courses = [(c, 1 + rng.randrange(max_q)) for c in course_ids]

    applicants: list[tuple[str, int, list[list[str]]]] = []
    for i in range(1, n1 + 1):
        b = 1 + rng.randrange(max_b)
        acceptable = [c for c in course_ids if rng.random() < 0.5]
        # Fisher-Yates, explicit so the draw sequence stays pinned.
        for k in range(len(acceptable) - 1, 0, -1):
            j = rng.randrange(k + 1)
            acceptable[k], acceptable[j] = acceptable[j], acceptable[k]
        ties: list[list[str]] = []
        for c in acceptable:
            if ties and rng.random() < tie_density:
                ties[-1].append(c)
            else:
                ties.append([c])
        applicants.append((f"a{i}", b, ties))

    return Instance.build(courses, applicants)
