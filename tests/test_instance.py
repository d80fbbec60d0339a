"""Instance model: parsing, serialization, validation, generation."""

import hashlib
import random
import tracemalloc

import pytest

from camatch import (
    Instance,
    InstanceSemanticError,
    InstanceSyntaxError,
    OrderingError,
    check_ordering,
    generate_random_instance,
    parse_instance,
    parse_matching_pairs,
    parse_ordering,
    serialize_instance,
    serialize_matching_pairs,
    validate_ordering,
)
from camatch.instance import with_prefs
from camatch.oracle import impossibility_instance
from instances import fixture_instances, random_small_instances

WALKTHROUGH_TEXT = """\
# worked three-applicant instance
courses: c1=2 c2=1 c3=1
applicant a1 quota=2 prefs: ( c1 c2 ) ( c3 )
applicant a2 quota=3 prefs: ( c2 ) ( c1 c3 )
applicant a3 quota=2 prefs: ( c3 ) ( c2 ) ( c1 )
"""


def test_parse_walkthrough(t1):
    inst = parse_instance(WALKTHROUGH_TEXT)
    assert inst == t1
    assert inst.applicants == ("a1", "a2", "a3")
    assert inst.courses == ("c1", "c2", "c3")
    assert inst.quota == {"a1": 2, "a2": 3, "a3": 2}
    assert inst.capacity == {"c1": 2, "c2": 1, "c3": 1}
    assert inst.prefs["a1"] == (frozenset({"c1", "c2"}), frozenset({"c3"}))
    assert inst.total_quota() == 7


def test_parse_minimal():
    inst = parse_instance("courses: c1=1\napplicant a1 quota=1 prefs: ( c1 )\n")
    assert inst.applicants == ("a1",)
    assert inst.acceptable("a1") == {"c1"}


def test_parse_empty_instance():
    inst = parse_instance("courses:\n")
    assert inst.applicants == () and inst.courses == ()
    assert serialize_instance(inst) == "courses:\n"


def test_duplicate_course_in_tie_is_semantic_error():
    text = "courses: c1=1\napplicant a1 quota=1 prefs: ( c1 c1 )\n"
    with pytest.raises(InstanceSemanticError, match="appears twice"):
        parse_instance(text)


@pytest.mark.parametrize(
    "text,match",
    [
        ("applicant a1 quota=1 prefs:", "expected 'courses:'"),
        ("courses: c1=1\napplicant a1 prefs:", "quota="),
        ("courses: c1=1\napplicant a1 quota=x prefs:", "integer"),
        ("courses: c1=1\napplicant a1 quota=1 prefs: ( c1", "unclosed"),
        ("courses: c1=1\napplicant a1 quota=1 prefs: c1 )", "expected '\\('"),
        ("courses: c1=1\napplicant a1 quota=1 prefs: ( c1 ( c1 )", "nested"),
        ("courses: c1=1\napplicant a1 quota=1 prefs: ( c1 ) )", "without matching"),
        ("courses: c1\n", "<id>=<quota>"),
    ],
)
def test_syntax_errors(text, match):
    with pytest.raises(InstanceSyntaxError, match=match):
        parse_instance(text)


def test_syntax_error_reports_position():
    try:
        parse_instance("courses: c1=1\napplicant a1 quota=bad prefs:\n")
    except InstanceSyntaxError as exc:
        assert exc.line == 2
        assert exc.column == 14
    else:
        pytest.fail("no error raised")


@pytest.mark.parametrize("text", [
    "courses: c1=1\napplicant a1 quota=1 prefs: ( c9 )\napplicant a2 quota=1 prefs: ( c1\n",
    "courses: c1=1 c1=2\napplicant a1 quota=1 prefs: ( c1 )\napplicant a2 quota=1 prefs: c1\n",
], ids=["applicant", "header"])
def test_a_later_syntax_error_is_raised_unchained(text):
    """A syntax error on line 3 comes before the semantic error found first,
    and is not raised while handling it."""
    with pytest.raises(InstanceSyntaxError, match="^line 3, ") as raised:
        parse_instance(text)
    assert raised.value.__context__ is None


def test_the_parse_holds_only_the_current_lines_words():
    """Each applicant is built as its line is parsed, so the parse peaks
    little above what the parsed instance holds (tracemalloc). A parse that
    kept every line's words until the build peaked at about 1.8 times."""
    text = serialize_instance(generate_random_instance(640, 100, 3, 4, 0.4, 1))
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(inst.applicants) == 640
    assert peak / held < 1.4


@pytest.mark.parametrize(
    "text,match",
    [
        ("courses: c1=0\n", "out of range"),
        ("courses: c1=1\napplicant a1 quota=0 prefs:", "out of range"),
        (f"courses: c1={2**31}\n", "out of range"),
        ("courses: c1=1 c1=2\n", "duplicate course"),
        ("courses: c1=1\napplicant a1 quota=1 prefs:\n"
         "applicant a1 quota=1 prefs:", "duplicate id"),
        ("courses: c1=1\napplicant a1 quota=1 prefs: ( c9 )", "unknown course"),
        ("courses: c1=1 c2=1\n"
         "applicant a1 quota=1 prefs: ( c1 ) ( c2 c1 )", "appears twice"),
    ],
)
def test_semantic_errors(text, match):
    with pytest.raises(InstanceSemanticError, match=match):
        parse_instance(text)


@pytest.mark.parametrize("applicant, ties, match", [
    ("a1", [["zz"]], "applicant 'a1' ranks unknown course 'zz'"),
    ("a1", [[]], "applicant 'a1' has an empty tie group"),
    ("a1", [["c1"], ["c1"]], "course 'c1' appears twice in 'a1'"),
    ("zz", [["c1"]], "unknown applicant 'zz'"),
], ids=["unknown-course", "empty-tie", "twice", "unknown-applicant"])
def test_with_prefs_rejects_what_build_rejects(t1, applicant, ties, match):
    with pytest.raises(InstanceSemanticError, match=match):
        with_prefs(t1, applicant, ties)


def test_comments_and_blank_lines_ignored():
    text = "\n# header\ncourses: c1=1  # trailing\n\napplicant a1 quota=1 prefs: ( c1 )\n"
    inst = parse_instance(text)
    assert inst.capacity == {"c1": 1}


def test_round_trip_worked_examples(worked_examples):
    for inst in worked_examples.values():
        assert parse_instance(serialize_instance(inst)) == inst


def test_round_trip_random_draws():
    rng = random.Random(42)
    for draw in range(1000):
        inst = generate_random_instance(
            rng.randrange(5),
            rng.randrange(5),
            1 + rng.randrange(3),
            1 + rng.randrange(3),
            rng.random(),
            seed=draw,
        )
        # generator output is always a valid instance and survives the trip
        assert parse_instance(serialize_instance(inst)) == inst


def test_generator_deterministic():
    a = generate_random_instance(3, 3, 2, 2, 0.5, seed=7)
    b = generate_random_instance(3, 3, 2, 2, 0.5, seed=7)
    assert a == b


GOLDEN_SEED7 = """\
courses: c1=2 c2=1 c3=2
applicant a1 quota=1 prefs: ( c3 ) ( c1 )
applicant a2 quota=1 prefs: ( c2 c3 ) ( c1 )
applicant a3 quota=1 prefs: ( c3 )
"""


def test_generator_golden_snapshot():
    inst = generate_random_instance(3, 3, 2, 2, 0.5, seed=7)
    assert serialize_instance(inst) == GOLDEN_SEED7


def test_generator_zero_density_gives_singletons():
    inst = generate_random_instance(3, 3, 2, 2, 0.0, seed=1)
    for a in inst.applicants:
        assert all(len(tie) == 1 for tie in inst.prefs[a])


def test_generator_empty_cases():
    inst = generate_random_instance(0, 5, 1, 1, 0.5, seed=3)
    assert inst.applicants == ()
    assert len(inst.courses) == 5
    with pytest.raises(ValueError):
        generate_random_instance(1, 1, 0, 1, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_random_instance(1, 1, 1, 1, 1.5, seed=0)


def test_check_ordering_walkthrough(t1):
    assert check_ordering(t1, ("a1", "a1", "a2", "a2", "a3", "a2", "a3")) is None
    error = check_ordering(t1, ("a1", "a2", "a3"))
    assert error == "a1 appears 1 time(s) in the ordering, needs 2"
    with pytest.raises(OrderingError):
        validate_ordering(t1, ("a1", "a2", "a3"))


def test_check_ordering_edge_cases(t1):
    empty = parse_instance("courses:\n")
    assert check_ordering(empty, ()) is None
    assert "unknown applicant" in check_ordering(t1, ("zz",) * 7)


def test_ordering_accepts_exactly_quota_multiset(fleet):
    rng = random.Random(9)
    for inst in fleet[:10]:
        good = [a for a in inst.applicants for _ in range(inst.quota[a])]
        for _ in range(5):
            rng.shuffle(good)
            assert check_ordering(inst, tuple(good)) is None
        if good:
            assert check_ordering(inst, tuple(good[:-1])) is not None
            assert check_ordering(inst, tuple(good + [good[0]])) is not None


def test_parse_ordering_roundtrip():
    assert parse_ordering("a1 a2 a1\n") == ("a1", "a2", "a1")
    assert parse_ordering("# nothing\n") == ()


def test_parse_matching_pairs(t1):
    pairs = parse_matching_pairs("a1 c1\na2 c3  # comment\n", t1)
    assert pairs == (("a1", "c1"), ("a2", "c3"))
    assert serialize_matching_pairs(pairs) == "a1 c1\na2 c3\n"
    assert serialize_matching_pairs([]) == ""
    with pytest.raises(InstanceSyntaxError):
        parse_matching_pairs("a1 c1 extra\n", t1)
    with pytest.raises(InstanceSemanticError, match="unknown applicant"):
        parse_matching_pairs("zz c1\n", t1)
    with pytest.raises(InstanceSemanticError, match="unknown course"):
        parse_matching_pairs("a1 zz\n", t1)
    with pytest.raises(InstanceSemanticError, match="duplicate pair"):
        parse_matching_pairs("a1 c1\na1 c1\n", t1)


def test_build_rejects_bad_ids():
    # Every character ``str.split`` splits on, as ``str.isspace`` names them;
    # a zero-width space, which it keeps, is allowed.
    spaces = [ch for ch in map(chr, range(0x3001)) if ch.isspace()]
    assert len(spaces) == 29
    for ch in spaces:
        with pytest.raises(InstanceSemanticError, match="invalid course id"):
            Instance.build([(f"c{ch}1", 1)], [])
    assert Instance.build([("c\u200b1", 1)], []).courses == ("c\u200b1",)
    with pytest.raises(InstanceSemanticError):
        Instance.build([("c1", 1)], [("a=1", 1, [])])
    with pytest.raises(InstanceSemanticError, match="empty tie"):
        Instance.build([("c1", 1)], [("a1", 1, [[]])])


def test_shipped_fixture_files_are_canonical(fixture_dir):
    paths = sorted(fixture_dir.glob("*.txt"))
    assert len(paths) == 6
    for path in paths:
        text = path.read_text()
        assert serialize_instance(parse_instance(text)) == text, path.name


def test_impossibility_builder_matches_its_fixture_files(impossibility_family):
    """The package builds the four 2x2 instances itself, since it reads no
    repository file; this keeps that copy equal to the shipped one."""
    for k, inst in impossibility_family.items():
        assert impossibility_instance(k) == inst


def test_sweep_fleets_hold_their_pinned_instances():
    """Neither a move of the fleets nor a change to `generate_random_instance`
    may silently change the sweep inputs."""
    def digest(fleet):
        return hashlib.sha256("".join(map(serialize_instance, fleet)).encode()).hexdigest()

    assert digest(fixture_instances(50)) == (
        "3b33419574669c8e5f85417c91cfa312ce8573e416f881018bf4b0c1b68df433")
    assert digest(random_small_instances(200)) == (
        "46d163b20f454dcd115e12b5b5b3baac482114a91029ed63c7726932710b2e6c")
