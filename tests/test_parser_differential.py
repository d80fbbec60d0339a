"""Differential test of the text front end against the positioned-token
parser it replaced.

The reference below is the earlier `_tokenize`, which built one `_Token`
(text, line, column) per word, and the three parsers that read those tokens.
On fixture, generated and mutated texts, both must return the same instance,
ordering or pairs, or raise the same exception type with the same message,
line and column.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import pytest

from camatch import (
    CamatchError,
    Instance,
    InstanceSemanticError,
    InstanceSyntaxError,
    generate_random_instance,
    parse_instance,
    parse_matching_pairs,
    parse_ordering,
    run_gsdt,
    serialize_instance,
    serialize_matching_pairs,
    serialize_ordering,
)
from instances import FIXTURE_DIR

# ----------------------------------------------------------------------
# Reference: the positioned-token parser.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[list[_Token]]:
    lines: list[list[_Token]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        toks = [
            _Token(m.group(), lineno, m.start() + 1)
            for m in re.finditer(r"\S+", content)
        ]
        if toks:
            lines.append(toks)
    return lines


def _syntax(tok: _Token, message: str) -> InstanceSyntaxError:
    return InstanceSyntaxError(message, tok.line, tok.column)


def _parse_int(tok: _Token, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _syntax(tok, f"{what} must be an integer, got {text!r}") from None


def reference_parse_instance(text: str) -> Instance:
    lines = _tokenize(text)
    if not lines:
        raise InstanceSyntaxError("missing 'courses:' line", 1, 1)

    header = lines[0]
    if header[0].text != "courses:":
        raise _syntax(header[0], "expected 'courses:'")
    courses: list[tuple[str, int]] = []
    for tok in header[1:]:
        if "=" not in tok.text:
            raise _syntax(tok, f"expected <id>=<quota>, got {tok.text!r}")
        cid, _, qtext = tok.text.partition("=")
        cap = _parse_int(tok, qtext, f"quota of course {cid!r}")
        courses.append((cid, cap))

    applicants: list[tuple[str, int, list[list[str]]]] = []
    for line in lines[1:]:
        toks = iter(line)
        kw = next(toks)
        if kw.text != "applicant":
            raise _syntax(kw, "expected 'applicant'")
        def take(expect: str) -> _Token:
            try:
                return next(toks)
            except StopIteration:
                raise _syntax(line[-1], f"expected {expect}") from None

        aid = take("an applicant id")
        quota_tok = take("quota=<n>")
        if not quota_tok.text.startswith("quota="):
            raise _syntax(quota_tok, "expected quota=<n>")
        b = _parse_int(quota_tok, quota_tok.text[len("quota="):],
                       f"quota of applicant {aid.text!r}")
        prefs_kw = take("'prefs:'")
        if prefs_kw.text != "prefs:":
            raise _syntax(prefs_kw, "expected 'prefs:'")

        ties: list[list[str]] = []
        group: list[str] | None = None
        for tok in toks:
            if tok.text == "(":
                if group is not None:
                    raise _syntax(tok, "nested '(' in tie group")
                group = []
            elif tok.text == ")":
                if group is None:
                    raise _syntax(tok, "')' without matching '('")
                ties.append(group)
                group = None
            elif group is None:
                raise _syntax(tok, f"expected '(', got {tok.text!r}")
            else:
                group.append(tok.text)
        if group is not None:
            raise _syntax(line[-1], "unclosed tie group")
        applicants.append((aid.text, b, ties))

    return Instance.build(courses, applicants)


def reference_parse_ordering(text: str) -> tuple[str, ...]:
    return tuple(tok.text for line in _tokenize(text) for tok in line)


def reference_parse_matching_pairs(text: str, instance: Instance) -> tuple[tuple[str, str], ...]:
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for line in _tokenize(text):
        if len(line) != 2:
            raise _syntax(line[0], "expected '<applicant-id> <course-id>'")
        a, c = line[0].text, line[1].text
        if a not in instance.quota:
            raise InstanceSemanticError(f"unknown applicant {a!r} in matching")
        if c not in instance.capacity:
            raise InstanceSemanticError(f"unknown course {c!r} in matching")
        if (a, c) in seen:
            raise InstanceSemanticError(f"duplicate pair ({a}, {c}) in matching")
        seen.add((a, c))
        pairs.append((a, c))
    return tuple(pairs)


# ----------------------------------------------------------------------
# Comparison.
# ----------------------------------------------------------------------


def outcome(parse, *args):
    """What a parse returns, or the type, message, line and column of what
    it raises. Any exception that is not a CamatchError is an outcome too,
    so a crash in one parser shows as a mismatch."""
    try:
        value = parse(*args)
    except Exception as exc:
        return ("raised", type(exc), str(exc),
                getattr(exc, "line", None), getattr(exc, "column", None))
    if isinstance(value, Instance):
        # Dict order is part of the result: it fixes iteration order downstream.
        return ("ok", value.applicants, value.courses, tuple(value.quota.items()),
                tuple(value.capacity.items()), tuple(value.prefs.items()))
    return ("ok", value)


def mismatches(cases):
    """(kind, text, new outcome, reference outcome) for each case on which
    the two parsers differ, or on which the new one lets a non-CamatchError
    escape."""
    bad = []
    for kind, text, instance in cases:
        if kind == "instance":
            got = outcome(parse_instance, text)
            want = outcome(reference_parse_instance, text)
        elif kind == "ordering":
            got = outcome(parse_ordering, text)
            want = outcome(reference_parse_ordering, text)
        else:
            got = outcome(parse_matching_pairs, text, instance)
            want = outcome(reference_parse_matching_pairs, text, instance)
        escaped = got[0] == "raised" and not issubclass(got[1], CamatchError)
        if got != want or escaped:
            bad.append((kind, text, got, want))
    return bad


def assert_no_mismatch(cases):
    bad = mismatches(cases)
    assert not bad, f"{len(bad)} of {len(cases)} texts differ; first: {bad[:3]!r}"


# ----------------------------------------------------------------------
# Corpora.
# ----------------------------------------------------------------------


def texts_of(instance: Instance, seed: int):
    """An instance text plus an ordering and a matching text for it."""
    rng = random.Random(seed)
    ordering = [a for a in instance.applicants for _ in range(instance.quota[a])]
    rng.shuffle(ordering)
    pairs = run_gsdt(instance, ordering).matching.pairs
    return [
        ("instance", serialize_instance(instance), None),
        ("ordering", serialize_ordering(tuple(ordering)), None),
        ("matching", serialize_matching_pairs(pairs), instance),
    ]


def test_fixture_texts_parse_alike():
    cases = []
    for path in sorted(FIXTURE_DIR.glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        cases.append(("instance", text, None))
        cases.extend(texts_of(parse_instance(text), seed=len(cases)))
    assert len(cases) == 4 * 6
    assert_no_mismatch(cases)


@pytest.mark.parametrize("n1, n2", [(10, 5), (40, 15), (80, 30), (640, 100)])
def test_ladder_texts_parse_alike(n1, n2):
    instance = generate_random_instance(n1, n2, 3, 4, 0.4, seed=1)
    cases = texts_of(instance, seed=n1)
    assert outcome(parse_instance, cases[0][1])[0] == "ok"
    assert_no_mismatch(cases)


# Words and glued suffixes a mutation may insert: syntax, bad integers,
# integers Python's int() accepts, and non-ASCII ids.
STRAY = [
    "(", ")", "#", "=", "quota=", "prefs:", "courses:", "applicant", "((", "()",
    "x", "1.5", "-1", "0", "2147483648", "", "1_0", "\u0663", "+3", " 7 ",
    "quota=x", "quota=1_0", "quota=\u0663", "quota=+3", "quota=", "quota=-2",
    "c1=", "=2", "c1=\u0663", "c1=+1", "c1=x", "c1==1", "c9=1",
    "\u00e71", "\u8ab2", "a\u00e9", "c\u0301", "#c1", "( c1 )", "a1 c1",
]
# Separators a mutation may put between words: line ends of every kind,
# tabs and the whitespace str.split() and `\s` share.
SEPARATORS = [
    " ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\x1f", "\u3000",
    "\n", "\r\n", "\r", "\x85", "\u2028", "\x1c", "\n\n", " # note\n",
]


def mutate(text: str, rng: random.Random) -> str:
    """``text`` with one to three random edits to its words or separators."""
    parts = re.split(r"(\s+)", text)  # words at even indices, separators at odd
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(9)
        i = rng.randrange(0, len(parts), 2)
        if op == 0:
            parts[i] = ""
        elif op == 1:
            parts[i] = parts[i] + rng.choice(SEPARATORS) + parts[i]
        elif op == 2:
            j = rng.randrange(0, len(parts), 2)
            parts[i], parts[j] = parts[j], parts[i]
        elif op == 3:
            parts[i] = rng.choice(STRAY) + rng.choice(SEPARATORS) + parts[i]
        elif op == 4:
            parts[i] = parts[i] + rng.choice(STRAY)
        elif op == 5 and len(parts) > 1:
            parts[rng.randrange(1, len(parts), 2)] = rng.choice(SEPARATORS)
        elif op == 6 and parts[i]:
            k = rng.randrange(len(parts[i]))
            parts[i] = parts[i][:k] + rng.choice(STRAY) + parts[i][k + 1:]
        elif op == 7:
            return "".join(parts).replace("\n", rng.choice(["\r\n", "\r", "\t\n"]))
        else:
            parts[i] = parts[i] + "#" + rng.choice(STRAY)
    return "".join(parts)


def mutated_corpus(rounds: int, seed: int = 12):
    """Seeded mutations of the fixture texts, of the texts of small generated
    instances, and of hand-written texts with comments and blank lines."""
    rng = random.Random(seed)
    bases = []
    for path in sorted(FIXTURE_DIR.glob("*.txt")):
        bases.extend(texts_of(parse_instance(path.read_text(encoding="utf-8")), seed=len(bases)))
    for k in range(40):
        instance = generate_random_instance(
            rng.randint(1, 4), rng.randint(1, 4), 2, 2, 0.5, seed=k)
        bases.extend(texts_of(instance, seed=k))
    commented = (
        "# header comment\n\ncourses: c1=2 c2=1 # seats\n"
        "applicant a1 quota=2 prefs: ( c1 c2 ) # both\n\n"
        "applicant a2 quota=1 prefs: ( c2 ) ( c1 )\n")
    bases.append(("instance", commented, None))
    bases.append(("ordering", "a1 # first\n a2\n\na1\n", None))
    bases.append(("matching", "a1 c1 # seat\n\na2 c2\n",
                  parse_instance(commented)))
    cases = []
    for _ in range(rounds):
        kind, text, instance = rng.choice(bases)
        cases.append((kind, mutate(text, rng), instance))
    return cases


# Texts no mutation of a valid one is likely to reach.
EDGE_TEXTS = ["", "\n\n", "# only a comment\n", " \t\r\n", "courses:", "courses:\r\n",
              "\ufeffcourses: c1=1\n", "courses: c1=1\napplicant", "courses: c1=1\n(\n"]
# A syntax error on any line comes before a semantic error on an earlier
# one, or in the header, which is checked before any applicant line is read.
EDGE_TEXTS += [
    "courses: c1=1\napplicant a1 quota=1 prefs: ( c9 )\napplicant a2 quota=x prefs: ( c1 )\n",
    "courses: c1=1 c1=2\napplicant a1 quota=1 prefs: ( c1 )\napplicant a2 quota=1 prefs: ( c1\n",
    "courses: c1=1\napplicant a1 quota=1 prefs: ( c1 )\napplicant a1 quota=1 prefs: ( c1 )\n"
    "applicant a3 quota=1 prefs: ( c1 )\napplicant a4 quota=1 prefs: c1\n",
    "courses: c1=1 c1=2\napplicant a1 quota=1 prefs: ( c1 )\n",
]

# Every message the three parsers give an InstanceSyntaxError.
SYNTAX_MESSAGES = [
    "missing 'courses:' line", "expected 'courses:'", "expected <id>=<quota>, got",
    "must be an integer, got", "expected 'applicant'", "expected an applicant id",
    "expected quota=<n>", "expected 'prefs:'", "nested '(' in tie group",
    "')' without matching '('", "expected '(', got", "unclosed tie group",
    "expected '<applicant-id> <course-id>'",
]


def test_mutated_texts_parse_alike():
    cases = mutated_corpus(20_000) + [("instance", text, None) for text in EDGE_TEXTS]
    assert_no_mismatch(cases)
    # The corpus reaches every syntax error, semantic errors, and valid texts.
    results = [outcome(parse_instance, text) if kind == "instance"
               else outcome(parse_matching_pairs, text, instance)
               for kind, text, instance in cases if kind != "ordering"]
    syntax = [r[2] for r in results if r[0] == "raised" and r[1] is InstanceSyntaxError]
    assert [m for m in SYNTAX_MESSAGES if not any(m in text for text in syntax)] == []
    assert any(r[0] == "raised" and r[1] is InstanceSemanticError for r in results)
    assert sum(r[0] == "ok" for r in results) > 1000
