"""The dominating matching of a negative verdict is derived from the input
matching, not rebuilt: its pairs are the input's less those the coalition
gives up plus those it takes, and its lookup maps are copies of the input's
with only the traders' entries redone. It must equal a matching built from
scratch on those pairs, id by id, and leave the input untouched. A negative
verdict checks its certificate once: the reduction checks the coalition it
returns, so the verdict derives the dominating matching without a second
check, while ``satisfy_coalition`` called directly still checks."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from camatch import (
    CoalitionError,
    CoalitionKind,
    ImprovingCoalition,
    Matching,
    generate_random_instance,
    is_pareto_optimal,
    parse_instance,
    satisfy_coalition,
)
from camatch import envy
from camatch import matching as matching_module
from camatch.envy import CycleWitness, build_envy_graph, extract_improving_coalition
from camatch.matching import _trades, pareto_dominates
from test_climb_random_starts import random_feasible_matching
from test_envy_random_cycles import SIZES, random_negative_cycles

ALTERNATING, AUGMENTING, CYCLIC = (
    CoalitionKind.ALTERNATING_PATH, CoalitionKind.AUGMENTING_PATH, CoalitionKind.CYCLIC)


def assert_derived_as_built(inst, matching, coalition, result):
    """``result``, derived by satisfying ``coalition`` on ``matching``, has
    the pairs and maps of a matching built from scratch, no kept verdict,
    and left the input's maps as a fresh build of the input has them."""
    given_up, taken = _trades(coalition.kind, coalition.applicants, coalition.courses)
    built = Matching((matching.pairs - set(given_up)) | set(taken))
    assert result.pairs == built.pairs
    for a in inst.applicants:
        assert result.of_applicant(a) == built.of_applicant(a)
    for c in inst.courses:
        assert result.of_course(c) == built.of_course(c)
    # No entry for an id that holds nothing, as in a fresh build.
    assert (result._of_applicant, result._of_course) == (built._of_applicant, built._of_course)
    assert result._optimal_in is None
    fresh = Matching(matching.pairs)
    assert (matching._of_applicant, matching._of_course) == (
        fresh._of_applicant, fresh._of_course)
    assert pareto_dominates(inst, result, matching)


def test_every_random_cycle_coalition_derives_the_matching_a_build_gives():
    # The coalitions of tests/test_envy_random_cycles.py, drawn the same way.
    kinds = Counter()
    for shape, (count, _, _) in SIZES.items():
        rng = random.Random(f"cycles {shape}")
        for _ in range(count):
            inst = generate_random_instance(*shape, 3, 4, 0.4, rng.randrange(2**31))
            matching = random_feasible_matching(inst, rng.randrange(2**31))
            for nodes, weights in random_negative_cycles(inst, matching, rng):
                witness = CycleWitness(tuple(nodes), sum(weights))
                coalition = extract_improving_coalition(
                    inst, matching, build_envy_graph(inst, matching), witness)
                result = satisfy_coalition(inst, matching, coalition)
                assert_derived_as_built(inst, matching, coalition, result)
                kinds[coalition.kind] += 1
    assert kinds == {ALTERNATING: 400, AUGMENTING: 1_643, CYCLIC: 907}


# (n1, n2): the verdicts on 60 seeded random feasible matchings, by kind.
# Seats are scarce at 80x30 and plentiful at 40x60; 40x15 leaves some
# applicants and courses exposed at once.
@pytest.mark.parametrize("shape, pinned", [
    ((80, 30), {ALTERNATING: 0, AUGMENTING: 0, CYCLIC: 60, None: 0}),
    ((40, 60), {ALTERNATING: 59, AUGMENTING: 0, CYCLIC: 1, None: 0}),
    ((40, 15), {ALTERNATING: 0, AUGMENTING: 11, CYCLIC: 49, None: 0}),
])
def test_every_negative_verdict_derives_the_matching_a_build_gives(shape, pinned):
    rng = random.Random(f"derived {shape}")
    kinds = Counter(dict.fromkeys(pinned, 0))
    for _ in range(60):
        inst = generate_random_instance(*shape, 3, 4, 0.4, rng.randrange(2**31))
        matching = random_feasible_matching(inst, rng.randrange(2**31))
        check = is_pareto_optimal(inst, matching)
        if not check:
            assert_derived_as_built(inst, matching, check.coalition, check.dominating)
        kinds[None if check else check.coalition.kind] += 1
    assert kinds == pinned


@pytest.fixture
def sequence_checks(monkeypatch):
    """The ``allow_repeats`` flag of each coalition-shape check, in call
    order. ``envy`` holds its own reference, so both names are spied on."""
    calls = []
    original = matching_module._sequence_error

    def spy(instance, matching, kind, applicants, courses, allow_repeats):
        calls.append(allow_repeats)
        return original(instance, matching, kind, applicants, courses, allow_repeats)

    for holder in (matching_module, envy):
        monkeypatch.setattr(holder, "_sequence_error", spy)
    return calls


def test_a_negative_verdict_checks_its_certificate_once(sequence_checks):
    rng = random.Random("checked once")
    for _ in range(20):
        inst = generate_random_instance(80, 30, 3, 4, 0.4, rng.randrange(2**31))
        matching = random_feasible_matching(inst, rng.randrange(2**31))
        sequence_checks.clear()
        check = is_pareto_optimal(inst, matching)
        assert not check
        # The pseudocoalition check, then the reduced coalition's; no third.
        assert sequence_checks == [True, False]


SWAP = ("courses: c1=1 c2=1\n"
        "applicant a1 quota=1 prefs: ( c1 ) ( c2 )\n"
        "applicant a2 quota=1 prefs: ( c1 ) ( c2 )\n")

REFUSED_UNDER_O = f"""
from camatch import CoalitionError, CoalitionKind, ImprovingCoalition, Matching
from camatch import parse_instance, satisfy_coalition
inst = parse_instance({SWAP!r})
mu = Matching([("a1", "c2"), ("a2", "c1")])
bad = ImprovingCoalition(CoalitionKind.CYCLIC, ("a1", "a2"), ("c2", "c1"))
print(__debug__)
try:
    satisfy_coalition(inst, mu, bad)
except CoalitionError as exc:
    print(exc)
"""


def test_satisfy_coalition_still_checks_a_direct_call(sequence_checks):
    # a2 would trade c1 for c2, which she ranks lower.
    inst = parse_instance(SWAP)
    mu = Matching([("a1", "c2"), ("a2", "c1")])
    bad = ImprovingCoalition(CYCLIC, ("a1", "a2"), ("c2", "c1"))
    with pytest.raises(CoalitionError, match="a2 must weakly prefer c2 to c1"):
        satisfy_coalition(inst, mu, bad)
    assert sequence_checks == [False]
    # A valid one is checked once too: a2, unmatched, takes the free c1.
    half = Matching([("a1", "c2")])
    gain = ImprovingCoalition(CoalitionKind.AUGMENTING_PATH, ("a2",), ("c1",))
    sequence_checks.clear()
    result = satisfy_coalition(inst, half, gain)
    assert sequence_checks == [False]
    assert_derived_as_built(inst, half, gain, result)
    assert result == mu


@pytest.mark.parametrize("flags, debug", [([], "True"), (["-O"], "False")])
def test_satisfy_coalition_refuses_an_invalid_coalition_under_python_O(flags, debug):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, *flags, "-c", REFUSED_UNDER_O],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{debug}\na2 must weakly prefer c2 to c1\n"
