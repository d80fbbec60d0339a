"""The staged-flow mechanism: golden runs, flow/matching correspondence,
tie-pointer monotonicity, ordering derivation."""

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from camatch import (
    FeasibilityError,
    GuidedToward,
    Instance,
    Matching,
    NotParetoOptimalError,
    OrderingError,
    characteristic_vector,
    derive_ordering,
    generate_random_instance,
    is_pareto_optimal,
    render_trace,
    run_gsdt,
)
from camatch.envy import _pair_priority_order
from camatch.gsdt import SNK, SRC, FlowNetwork
from camatch.oracle import distinct_orderings, enumerate_poms, is_pom_bruteforce
from instances import ProbeRecord, capacity_history, probes

WALKTHROUGH_ORDERING = ("a1", "a1", "a2", "a2", "a3", "a2", "a3")

WALKTHROUGH_CAPACITIES = (
    (0, 0, 0),
    (1, 0, 0),
    (2, 0, 0),
    (2, 1, 0),
    (2, 2, 0),
    (2, 2, 1),
    (2, 3, 1),
    (2, 3, 2),
)


def _direct(a, t, c):
    return (SRC, ("app", a), ("tie", a, t), ("crs", c), SNK)


# One entry per stage: first tie probed, tie reached, path or None.
WALKTHROUGH_RECORD = (
    (0, 0, _direct("a1", 0, "c1")),
    (0, 0, _direct("a1", 0, "c2")),
    (0, 1, _direct("a2", 1, "c1")),
    (1, 1, _direct("a2", 1, "c3")),
    (0, 3, None),
    (1, 2, None),
    (3, 3, None),
)

WALKTHROUGH_TRACE = [
    "stage=1 applicant=a1 tie=1 path=sigma,a1,a1:t1,c1,tau added=a1,c1",
    "stage=2 applicant=a1 tie=1 path=sigma,a1,a1:t1,c2,tau added=a1,c2",
    "stage=3 applicant=a2 tie=1 path=FAIL added=none",
    "stage=3 applicant=a2 tie=2 path=sigma,a2,a2:t2,c1,tau added=a2,c1",
    "stage=4 applicant=a2 tie=2 path=sigma,a2,a2:t2,c3,tau added=a2,c3",
    "stage=5 applicant=a3 tie=1 path=FAIL added=none",
    "stage=5 applicant=a3 tie=2 path=FAIL added=none",
    "stage=5 applicant=a3 tie=3 path=FAIL added=none",
    "stage=6 applicant=a2 tie=2 path=FAIL added=none",
    "stage=7 applicant=a3 tie=- path=FAIL added=none",
]


def test_walkthrough_golden_run(t1):
    result = run_gsdt(t1, WALKTHROUGH_ORDERING)
    assert capacity_history(t1, result.ordering) == WALKTHROUGH_CAPACITIES
    assert list(render_trace(result)) == WALKTHROUGH_TRACE
    assert result.matching == Matching(
        [("a1", "c1"), ("a1", "c2"), ("a2", "c1"), ("a2", "c3")])
    assert result.record == WALKTHROUGH_RECORD
    assert result.visits == (3, 3, 3, 4, 3)
    assert tuple(s.entry for s in result.stages) == WALKTHROUGH_RECORD
    assert result.stages[-1].matching == result.matching
    assert is_pareto_optimal(t1, result.matching)
    assert is_pom_bruteforce(t1, result.matching)


def test_manipulation_runs(ex1):
    mu1 = Matching([("a1", "c2"), ("a2", "c1")])
    mu2 = Matching([("a1", "c1"), ("a1", "c2")])
    assert run_gsdt(ex1, ("a1", "a2", "a1")).matching == mu1
    assert run_gsdt(ex1, ("a1", "a1", "a2")).matching == mu2
    # a1 misreports a strict preference for c1 and walks away with both seats
    from camatch.oracle import with_prefs

    lying = with_prefs(ex1, "a1", [["c1"], ["c2"]])
    assert run_gsdt(lying, ("a1", "a2", "a1")).matching == mu2


def test_empty_instance():
    empty = Instance.build([], [])
    result = run_gsdt(empty, ())
    assert result.matching == Matching()
    assert result.stages == ()
    assert capacity_history(empty, result.ordering) == ((),)


def test_invalid_ordering_rejected(t1):
    with pytest.raises(OrderingError):
        run_gsdt(t1, ("a1", "a2", "a3"))


def test_stage_one_direct_path(t1):
    result = run_gsdt(t1, WALKTHROUGH_ORDERING)
    first = probes(result.stages[0].entry)[0]
    assert first.path is not None and len(first.path) == 5


def test_find_augmenting_path_direct_call(t1):
    from camatch.gsdt import FlowNetwork
    from camatch import find_augmenting_path

    net = FlowNetwork(t1)
    net.cap_src["a1"] = 1
    net.cap_tie[("a1", 0)] = 1
    path = find_augmenting_path(net, "a1", 0)
    assert path == [
        ("src",), ("app", "a1"), ("tie", "a1", 0), ("crs", "c1"), ("snk",)]
    assert len(net.arc_visits) == 1


def test_rerouting_chain_preserves_indifference():
    # a2 claims c1 by pushing a1 onto c2 inside a1's tie; a1's per-tie counts
    # are untouched
    inst = Instance.build(
        [("c1", 1), ("c2", 1)],
        [("a1", 1, [["c1", "c2"]]), ("a2", 1, [["c1"]])],
    )
    result = run_gsdt(inst, ("a1", "a2"))
    assert result.stages[0].matching == Matching([("a1", "c1")])
    reroute = probes(result.stages[1].entry)[0].path
    assert reroute == (
        ("src",), ("app", "a2"), ("tie", "a2", 0), ("crs", "c1"),
        ("tie", "a1", 0), ("crs", "c2"), ("snk",))
    assert result.matching == Matching([("a1", "c2"), ("a2", "c1")])
    chi_before = characteristic_vector(inst, "a1", {"c1"})
    chi_after = characteristic_vector(inst, "a1", {"c2"})
    assert chi_before == chi_after


def test_exhausted_ties_advance_pointer(ex1):
    # stage 3 serves a1 again: c2 is hers already and c1 cannot be freed,
    # so both ties fail and her pointer runs off the end of the list
    result = run_gsdt(ex1, ("a1", "a2", "a1"))
    stage3 = result.stages[2]
    assert [p.tie for p in probes(stage3.entry)] == [0, 1]
    assert all(p.path is None for p in probes(stage3.entry))
    assert probes(stage3.entry)[-1].path is None
    assert stage3.curr == 2


def _stage_instances(instance, result):
    quotas = {a: 0 for a in instance.applicants}
    for rec in result.stages:
        quotas[rec.applicant] += 1
        yield dict(quotas), rec


def test_flow_matching_correspondence(fleet):
    # per stage: the served applicant gains one course in the probed tie;
    # everyone else's per-tie counts are untouched
    rng = random.Random(11)
    for inst in rng.sample(fleet, 20):
        for sigma in distinct_orderings(inst):
            result = run_gsdt(inst, sigma)
            prev = Matching()
            for rec in result.stages:
                for a in inst.applicants:
                    chi_now = characteristic_vector(
                        inst, a, rec.matching.of_applicant(a))
                    chi_prev = characteristic_vector(
                        inst, a, prev.of_applicant(a))
                    stage_probes = probes(rec.entry)
                    if a != rec.applicant or not stage_probes or stage_probes[-1].path is None:
                        assert chi_now == chi_prev
                    else:
                        t = stage_probes[-1].tie
                        bump = list(chi_prev)
                        bump[t] += 1
                        assert chi_now == tuple(bump)
                prev = rec.matching


def test_tie_pointers_and_per_tie_counts_monotone(fleet):
    rng = random.Random(12)
    for inst in rng.sample(fleet, 20):
        for sigma in distinct_orderings(inst):
            result = run_gsdt(inst, sigma)
            last_curr = {a: 0 for a in inst.applicants}
            last_counts = {
                a: [0] * len(inst.prefs[a]) for a in inst.applicants}
            for rec in result.stages:
                curr = {**last_curr, rec.applicant: rec.curr}  # only hers moves
                for a in inst.applicants:
                    assert curr[a] >= last_curr[a]
                    counts = list(characteristic_vector(
                        inst, a, rec.matching.of_applicant(a)))
                    assert all(
                        n >= o for n, o in zip(counts, last_counts[a]))
                    last_counts[a] = counts
                last_curr = curr


def test_paths_stay_on_active_ties(fleet):
    # no augmenting path ever touches a tie below an applicant's active one
    rng = random.Random(14)
    for inst in rng.sample(fleet, 20):
        for sigma in distinct_orderings(inst):
            result = run_gsdt(inst, sigma)
            curr_before = {a: 0 for a in inst.applicants}
            for rec in result.stages:
                for probe in probes(rec.entry):
                    if probe.path is None:
                        continue
                    for node in probe.path:
                        if node[0] != "tie":
                            continue
                        _, a, t = node
                        expect = probe.tie if a == rec.applicant else curr_before[a]
                        assert t == expect
                curr_before[rec.applicant] = rec.curr


def test_work_bounds(fleet):
    for inst in fleet:
        ties = sum(len(inst.prefs[a]) for a in inst.applicants)
        length = sum(len(t) for a in inst.applicants for t in inst.prefs[a])
        for sigma in distinct_orderings(inst):
            result = run_gsdt(inst, sigma)
            assert result.searches <= len(result.matching) + ties
            assert all(v <= 8 * max(length, 1) + 8 for v in result.arc_visits)


def test_flow_network_check_catches_corruption(t1):
    net = FlowNetwork(t1)
    net.cap_src["a1"] = 1
    net.cap_tie[("a1", 0)] = 1
    net.augment([("src",), ("app", "a1"), ("tie", "a1", 0), ("crs", "c1"), ("snk",)])
    net.check()
    net.free += 1  # a seat the holders do not leave
    with pytest.raises(AssertionError):
        net.check()


def test_flow_network_check_catches_lost_holder(t1):
    # No course counts its units apart from its holders, so only the count
    # of the tie that sent the unit can catch its loss: the full check's,
    # or the stage check of the tie a1 probed.
    path = [SRC, ("app", "a1"), ("tie", "a1", 0), ("crs", "c1"), SNK]
    net = FlowNetwork(t1)
    net.cap_src["a1"] = 1
    net.cap_tie[("a1", 0)] = 1
    net.augment(path)
    net.check()
    net.holders["c1"].discard(("a1", 0))  # the unit at c1 no longer comes from a tie
    with pytest.raises(AssertionError):
        net.check()
    with pytest.raises(AssertionError):
        net.check("a1", range(1), path)


def test_flow_network_check_counts_the_courses_each_tie_holds(t1):
    # The tie's capacity drops to 0 while a1's source capacity still admits
    # one unit, so only the count of courses the tie holds (c1) can catch
    # the corruption: the full check's count off ``holders``, or the stage
    # check of the tie a1 probed.
    path = [SRC, ("app", "a1"), ("tie", "a1", 0), ("crs", "c1"), SNK]
    net = FlowNetwork(t1)
    net.cap_src["a1"] = 1
    net.cap_tie[("a1", 0)] = 1
    net.augment(path)
    net.check()
    net.check("a1", range(1), path)
    net.cap_tie[("a1", 0)] = 0
    with pytest.raises(AssertionError):
        net.check()
    with pytest.raises(AssertionError):
        net.check("a1", range(1), path)


@pytest.mark.parametrize("capacity", [1, -1])
def test_full_check_catches_capacity_at_a_tie_never_probed(t1, capacity):
    # The full check compares holder counts with the nonzero capacities
    # only; a stray capacity at a tie that holds nothing must not slip
    # through that filter, while a zero entry is the same as none.
    from camatch import gsdt

    net = FlowNetwork(t1)
    gsdt.serve(net, WALKTHROUGH_ORDERING[:2])
    unprobed = next((a, 0) for a in t1.applicants if not net.cap_src[a])  # never served
    net.cap_tie[unprobed] = 0
    net.check()
    net.cap_tie[unprobed] = capacity
    with pytest.raises(AssertionError):
        net.check()


@pytest.mark.parametrize("corrupt", [
    lambda net: net.holders["c1"].update({("a2", 1), ("a3", 2)}),  # 3 units, 2 seats
    lambda net: net.holders["c1"].add(("a3", 0)),  # a tie that lists only c3
], ids=["overfilled", "stray-holder"])
def test_scoped_check_catches_corruption_at_its_course(t1, corrupt):
    net = FlowNetwork(t1)
    net.cap_src["a1"] = 1
    net.cap_tie[("a1", 0)] = 1
    net.augment([("src",), ("app", "a1"), ("tie", "a1", 0), ("crs", "c1"), ("snk",)])
    corrupt(net)

    def through(c):  # a stage path whose one course is c; no tie is in scope
        return [SRC, ("app", "a1"), ("tie", "a1", 0), ("crs", c), SNK]

    net.check("a1", range(0), through("c2"))  # outside the scope
    net.check("a1", range(0), through("c3"))
    with pytest.raises(AssertionError):
        net.check("a1", range(0), through("c1"))


CHECK_REACHED = """
import random
from camatch import generate_random_instance, gsdt, run_gsdt
from camatch.oracle import run_list

inst = generate_random_instance(10, 5, 3, 4, 0.4, seed=3)
ordering = [a for a in sorted(inst.applicants) for _ in range(inst.quota[a])]
random.Random(0).shuffle(ordering)
result = run_gsdt(inst, ordering)
base = gsdt.FlowNetwork(inst)
gsdt.serve(base, ordering[:ordering.index("a1")])

def reached(self, a=None, probed=range(0), path=()):
    raise RuntimeError("check reached")

gsdt.FlowNetwork.check = reached
for name, call in [("run_gsdt", lambda: run_gsdt(inst, ordering)),
                   ("stages", lambda: result.stages),
                   ("run_list", lambda: run_list(base, ordering, "a1", inst.prefs["a1"]))]:
    try:
        call()
        print(name, "skipped")
    except RuntimeError:
        print(name, "reached")
"""


@pytest.mark.parametrize("flags, status", [([], "reached"), (["-O"], "skipped")])
def test_network_checks_run_unless_python_runs_with_O(flags, status):
    # Each ``FlowNetwork.check`` call site sits under ``if __debug__:``, so
    # ``python -O`` skips the checks and default runs keep every one.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, *flags, "-c", CHECK_REACHED],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [f"{name} {status}" for name in (
        "run_gsdt", "stages", "run_list")] + [""]


def test_stage_check_fires_without_reading_the_trace(monkeypatch, t1):
    # An augment that drops the holder it adds leaves the probed tie's
    # capacity with no course held; the check after that very stage must
    # catch it, before the next probe and before anyone reads the stage trace.
    from camatch import gsdt

    augment = FlowNetwork.augment
    search = gsdt.find_augmenting_path
    probes = []

    def augment_dropping_its_new_holder(self, path):
        augment(self, path)
        self.holders[path[-2][1]].discard(path[-3][1:])

    def counted_search(*args, **kwargs):
        probes.append(args[1:3])
        return search(*args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "augment", augment_dropping_its_new_holder)
    monkeypatch.setattr(gsdt, "find_augmenting_path", counted_search)
    with pytest.raises(AssertionError):
        run_gsdt(t1, WALKTHROUGH_ORDERING)
    assert probes == [("a1", 0)]


def test_stage_check_covers_its_failed_probes(monkeypatch, t1):
    # A failed probe that keeps its raised tie capacity: a2's first tie
    # fails at stage 3, and the check after that stage must catch it, not
    # the full check at the end of the run (a2 never probes that tie again).
    from camatch import gsdt

    search = gsdt.find_augmenting_path
    probes = []

    def search_keeping_failed_capacity(net, applicant, tie):
        probes.append((applicant, tie))
        path = search(net, applicant, tie)
        if path is None:
            net.cap_tie[applicant, tie] += 1  # survives the stage's rollback
        return path

    monkeypatch.setattr(gsdt, "find_augmenting_path", search_keeping_failed_capacity)
    with pytest.raises(AssertionError):
        run_gsdt(t1, WALKTHROUGH_ORDERING)
    assert probes == [("a1", 0), ("a1", 0), ("a2", 0), ("a2", 1)]


def test_stage_check_covers_the_ties_on_its_path(monkeypatch):
    # a2's stage reroutes a1 from c1 to c2 inside a1's tie; an augment that
    # miscounts that tie, the path's second, must fail the check after that
    # very stage, before a3 is probed.
    from camatch import gsdt

    inst = Instance.build(
        [("c1", 1), ("c2", 1), ("c3", 1)],
        [("a1", 1, [["c1", "c2"]]), ("a2", 1, [["c1"]]), ("a3", 1, [["c3"]])],
    )
    augment = FlowNetwork.augment
    search = gsdt.find_augmenting_path
    probes = []

    def augment_miscounting_a_rerouted_tie(self, path):
        augment(self, path)
        for _, a, t in path[4:-1:2]:
            self.cap_tie[a, t] += 1

    def counted_search(*args, **kwargs):
        probes.append(args[1:3])
        return search(*args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "augment", augment_miscounting_a_rerouted_tie)
    monkeypatch.setattr(gsdt, "find_augmenting_path", counted_search)
    with pytest.raises(AssertionError):
        run_gsdt(inst, ("a1", "a2", "a3"))
    assert probes == [("a1", 0), ("a2", 0)]


def test_stage_check_covers_the_probed_tie_that_took_the_seat(monkeypatch, t1):
    # a1's first stage takes c1 through the tie it probes, the path's first;
    # an augment that miscounts that tie's capacity must fail the check
    # after that very stage, before the next probe, not a later stage's
    # check or the full check at the end of the run.
    from camatch import gsdt

    augment = FlowNetwork.augment
    search = gsdt.find_augmenting_path
    probes = []

    def augment_miscounting_the_probed_tie(self, path):
        augment(self, path)
        self.cap_tie[path[2][1], path[2][2]] += 1

    def counted_search(*args, **kwargs):
        probes.append(args[1:3])
        return search(*args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "augment", augment_miscounting_the_probed_tie)
    monkeypatch.setattr(gsdt, "find_augmenting_path", counted_search)
    with pytest.raises(AssertionError):
        run_gsdt(t1, WALKTHROUGH_ORDERING)
    assert probes == [("a1", 0)]


def test_stage_check_covers_every_course_on_its_path(monkeypatch):
    # a2's stage reroutes a1 from c1 to c2 along a 7-node path whose first
    # course, c1 at path[3], is not its last; an augment that adds at c1 a
    # holder of a3's, whose tie lists only c3, must fail the check after
    # that very stage, before a3 is probed. No tie in the stage's scope
    # counts that holder, so only c1's own check can catch it.
    from camatch import gsdt

    inst = Instance.build(
        [("c1", 1), ("c2", 1), ("c3", 1)],
        [("a1", 1, [["c1", "c2"]]), ("a2", 1, [["c1"]]), ("a3", 1, [["c3"]])],
    )
    augment = FlowNetwork.augment
    search = gsdt.find_augmenting_path
    probes, paths = [], []

    def augment_adding_a_stray_holder(self, path):
        augment(self, path)
        paths.append(tuple(path))
        if len(path) >= 7:
            self.holders[path[3][1]].add(("a3", 0))

    def counted_search(*args, **kwargs):
        probes.append(args[1:3])
        return search(*args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "augment", augment_adding_a_stray_holder)
    monkeypatch.setattr(gsdt, "find_augmenting_path", counted_search)
    with pytest.raises(AssertionError):
        run_gsdt(inst, ("a1", "a2", "a3"))
    assert probes == [("a1", 0), ("a2", 0)]
    assert paths[-1] == (SRC, ("app", "a2"), ("tie", "a2", 0), ("crs", "c1"),
                         ("tie", "a1", 0), ("crs", "c2"), SNK)


def test_stages_check_the_whole_network_after_each_replayed_stage(monkeypatch):
    # An augment that takes back the seat it lent, augments, and lends one
    # (``free`` one too many) while a seat is left. No scoped check reads
    # ``free``, and a lent seat changes no probe, since it is lent only while
    # a real one is free. On this instance the last augmentation fills every
    # seat, so it lends none and the run's final check passes. Only the
    # full check after each stage the replay serves sees the lent seat; one
    # check after the whole ordering would not. (At seed 1 a seat is left at
    # the end, and the run's final check catches it.)
    augment = FlowNetwork.augment

    def augment_lending_a_seat(self, path):
        self.free -= vars(self).pop("lent", 0)
        augment(self, path)
        self.lent = bool(self.free)
        self.free += self.lent

    inst = generate_random_instance(10, 5, 3, 4, 0.4, 2)
    ordering = [a for a in sorted(inst.applicants) for _ in range(inst.quota[a])]
    random.Random(2).shuffle(ordering)
    honest = run_gsdt(inst, ordering)
    monkeypatch.setattr(FlowNetwork, "augment", augment_lending_a_seat)
    result = run_gsdt(inst, ordering)
    assert (result.record, result.visits) == (honest.record, honest.visits)
    with pytest.raises(AssertionError) as refusal:
        result.stages
    assert refusal.traceback[-1].name == "check"


def test_full_network_stage_records_equal_fresh_ones(monkeypatch):
    # a0 and a1 take c1, c3, c4 and c5, and a2's first stage takes c2 from
    # her second tie, which leaves no seat. Then a3, a4 (a longer list than
    # any served so far) and a2 again (from her second tie) meet a full
    # network: each records one entry, which expands to a failed probe per
    # tie she has left, and adds no arc-visit entry.
    from camatch import gsdt

    inst = Instance.build(
        [(f"c{i}", 1) for i in range(1, 6)],
        [("a0", 3, [["c3", "c4", "c5"]]), ("a1", 1, [["c1"]]),
         ("a2", 2, [["c1"], ["c2"], ["c3"]]), ("a3", 1, [["c1"], ["c2"]]),
         ("a4", 1, [[f"c{i}"] for i in range(1, 6)])],
    )
    stage = gsdt._stage
    full = []

    def spied_stage(net, a):
        first, was_full, visits = net.curr[a], not net.free, len(net.arc_visits)
        stage(net, a)
        if was_full:
            full.append((a, first))
            assert net.record[-1] == (first, len(inst.prefs[a]), None)
            fresh = tuple(ProbeRecord(t, None) for t in range(first, len(inst.prefs[a])))
            assert probes(net.record[-1]) == fresh
            assert len(net.arc_visits) == visits

    monkeypatch.setattr(gsdt, "_stage", spied_stage)
    result = run_gsdt(inst, ("a0", "a0", "a0", "a1", "a2", "a3", "a4", "a2"))
    assert full == [("a3", 0), ("a4", 0), ("a2", 1)]
    assert tuple(map(probes, result.record[5:])) == (
        (ProbeRecord(0, None), ProbeRecord(1, None)),
        tuple(ProbeRecord(t, None) for t in range(5)),
        (ProbeRecord(1, None), ProbeRecord(2, None)),
    )
    assert result.arc_visits[-9:] == (0,) * 9
    assert [len(probes(s.entry)) for s in result.stages] == [1, 1, 1, 1, 2, 2, 5, 2]


STAGE_3_PATH = _direct("a2", 1, "c1")


def with_entry(stage, entry):
    """The walkthrough run's record with one stage's entry replaced."""
    assert WALKTHROUGH_RECORD[stage - 1] != entry
    return WALKTHROUGH_RECORD[:stage - 1] + (entry,) + WALKTHROUGH_RECORD[stage:]


def breaks(stage):
    return f"stage {stage}: the record breaks the stage rules"


# (forged fields of the walkthrough run's result, a matching as its pairs;
# the refusal): a2's failed first tie dropped from stage 3, her failed probe
# at stage 6 relabelled onto her first tie, stage 1's path sent to c2
# instead of c1, the last entry dropped, an eighth entry added, another
# Pareto optimal matching, and 500 more arc visits on the first probe.
FORGERIES = [
    pytest.param({"record": with_entry(3, (1, 1, STAGE_3_PATH))}, breaks(3), id="3-from-1"),
    pytest.param({"record": with_entry(6, (0, 1, None))}, breaks(6), id="6-0-1"),
    pytest.param({"record": with_entry(1, (0, 0, _direct("a1", 0, "c2")))}, breaks(1), id="1-0-c2"),
    pytest.param({"record": WALKTHROUGH_RECORD[:-1]}, breaks(7), id="last-missing"),
    pytest.param({"record": (*WALKTHROUGH_RECORD, (3, 3, None))}, breaks(8), id="8-extra"),
    pytest.param({"matching": (("a1", "c1"), ("a1", "c2"), ("a2", "c1"), ("a3", "c3"))},
                 "matching: not what the replay served", id="matching"),
    pytest.param({"visits": (503, 3, 3, 4, 3)}, "visits: not what the replay served",
                 id="visits"),
]


def forge(result, changes):
    """The run's result with ``changes`` in place of its own fields."""
    changes = {k: Matching(v) if k == "matching" else v for k, v in changes.items()}
    assert all(getattr(result, k) != v for k, v in changes.items())
    return dataclasses.replace(result, **changes)


@pytest.mark.parametrize("changes, refusal", FORGERIES)
def test_trace_rejects_a_record_the_stage_rules_would_not_produce(t1, changes, refusal):
    # The replay behind ``stages`` serves the run again and must refuse a
    # record whose entries differ from the ones the stage rules give, or
    # that has more or fewer entries than the ordering has stages, and a
    # matching or arc visits other than the ones it served.
    # ``render_trace`` does not replay, and renders a forged record as it is.
    forged = forge(run_gsdt(t1, WALKTHROUGH_ORDERING), changes)
    with pytest.raises(AssertionError, match=f"^{refusal}$"):
        forged.stages


FORGE_UNDER_O = """
import ast, dataclasses, sys
from camatch import Matching, parse_instance, run_gsdt

path, ordering = sys.argv[1], sys.argv[2].split()
result = run_gsdt(parse_instance(open(path).read()), ordering)
changes = ast.literal_eval(sys.argv[3])
changes = {k: Matching(v) if k == "matching" else v for k, v in changes.items()}
forged = dataclasses.replace(result, **changes)
print(__debug__)
try:
    forged.stages
except AssertionError as error:
    print(error)
"""


@pytest.mark.parametrize("changes, refusal", FORGERIES)
def test_trace_rejects_a_forged_record_under_python_O(changes, refusal):
    # The same forgery as above, in a ``python -O`` process, where every
    # ``assert`` statement is skipped: the replay must still refuse it.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORGE_UNDER_O, str(root / "fixtures" / "walkthrough.txt"),
         " ".join(WALKTHROUGH_ORDERING), repr(changes)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"False\n{refusal}\n"


def test_trace_does_not_replay_the_stages(t1):
    # ``stages`` is a cached property, so it shows in vars() once built.
    canonical = run_gsdt(t1, WALKTHROUGH_ORDERING)
    mu = canonical.matching
    guided = run_gsdt(t1, derive_ordering(t1, mu), GuidedToward(mu))
    assert list(render_trace(canonical)) == WALKTHROUGH_TRACE
    assert list(render_trace(guided))
    assert "stages" not in vars(canonical)
    assert "stages" not in vars(guided)


@pytest.mark.parametrize("stage, entry, old, new", [
    (3, (1, 1, STAGE_3_PATH), "stage=3 applicant=a2 tie=1 path=FAIL added=none", None),
    (6, (0, 1, None), "stage=6 applicant=a2 tie=2 path=FAIL added=none",
     "stage=6 applicant=a2 tie=1 path=FAIL added=none"),
])
def test_trace_renders_a_forged_record_as_it_is(t1, stage, entry, old, new):
    # The record forged as above: the trace shows the forged entry (a
    # dropped or relabelled failed probe), and only the replay behind
    # ``stages`` refuses it.
    forged = forge(run_gsdt(t1, WALKTHROUGH_ORDERING), {"record": with_entry(stage, entry)})
    expected = [new if line == old else line for line in WALKTHROUGH_TRACE]
    expected = [line for line in expected if line is not None]
    assert expected != WALKTHROUGH_TRACE
    assert list(render_trace(forged)) == expected
    with pytest.raises(AssertionError):
        forged.stages


def test_stages_replay_under_the_results_own_policy():
    # a1 is indifferent between c1 and c2, so the optimum that gives her c2
    # is not the canonical one, and its guided replay takes another path than
    # the canonical run of the same derived ordering. The replay behind
    # ``stages`` serves each run under its own policy: with the policies
    # swapped, each record breaks at its first stage.
    inst = Instance.build([("c1", 1), ("c2", 1)], [("a1", 1, [["c1", "c2"]])])
    poms = enumerate_poms(inst).poms
    target, = (pom for pom in poms if pom != run_gsdt(inst, ("a1",)).matching)
    ordering = derive_ordering(inst, target)
    guided = run_gsdt(inst, ordering, GuidedToward(target))
    canonical = run_gsdt(inst, ordering)
    assert (len(poms), guided.matching) == (2, target)
    assert guided.record != canonical.record
    for result, swapped in (guided, None), (canonical, GuidedToward(target)):
        assert [s.entry for s in result.stages] == list(result.record)
        with pytest.raises(AssertionError, match=f"^{breaks(1)}$"):
            dataclasses.replace(result, policy=swapped).stages


def test_the_last_stage_record_copies_and_pickles_at_640x100():
    # The 640x100 run has 1,262 stages. Every record reads one run list that
    # all records of the read share, so a deep copy or a pickle round trip of
    # the last one holds no chain of records as long as the run. The copies
    # are made before any ``matching`` is read, so each builds its own.
    inst = generate_random_instance(640, 100, 3, 4, 0.4, 1)
    ordering = [a for a in sorted(inst.applicants) for _ in range(inst.quota[a])]
    random.Random(2).shuffle(ordering)
    result = run_gsdt(inst, ordering)
    last = result.stages[-1]
    assert last.stage == len(ordering) == 1262
    for dup in copy.deepcopy(last), pickle.loads(pickle.dumps(last)):
        assert dup is not last
        assert (dup, hash(dup)) == (last, hash(last))
        assert dup.matching == last.matching == result.matching


def test_stage_records_compare_hash_and_show_only_their_own_fields(t1):
    # Two results built apart share no run list, yet their records compare
    # and hash equal pairwise: the shared list stays out of equality (where
    # it would recurse without end) and out of the repr.
    first, second = (run_gsdt(t1, WALKTHROUGH_ORDERING).stages for _ in range(2))
    assert len(first) == len(second) == len(WALKTHROUGH_ORDERING)
    for rec, twin in zip(first, second):
        assert rec is not twin
        assert (rec, hash(rec)) == (twin, hash(twin))
        assert repr(rec) == (f"StageRecord(stage={rec.stage}, "
                             f"applicant={rec.applicant!r}, entry={rec.entry!r})")
    assert repr(first[4]) == "StageRecord(stage=5, applicant='a3', entry=(0, 3, None))"


# ----------------------------------------------------------------------
# Ordering derivation and guided replay.
# ----------------------------------------------------------------------

def test_derive_ordering_manipulation(ex1):
    mu2 = Matching([("a1", "c1"), ("a1", "c2")])
    sigma = derive_ordering(ex1, mu2)
    assert sigma[:2] == ("a1", "a1")
    assert run_gsdt(ex1, sigma, GuidedToward(mu2)).matching == mu2


def test_derive_ordering_single_pair():
    inst = Instance.build([("c1", 1)], [("a1", 2, [["c1"]])])
    mu = Matching([("a1", "c1")])
    sigma = derive_ordering(inst, mu)
    assert sigma == ("a1", "a1")
    assert run_gsdt(inst, sigma, GuidedToward(mu)).matching == mu


def test_derive_ordering_rejects_dominated(ex1):
    dominated = Matching([("a2", "c1")])
    with pytest.raises(NotParetoOptimalError) as exc:
        derive_ordering(ex1, dominated)
    assert exc.value.coalition == is_pareto_optimal(ex1, dominated).coalition


def test_derive_ordering_reproduces_every_walkthrough_pom(t1):
    for pom in enumerate_poms(t1).poms:
        sigma = derive_ordering(t1, pom)
        assert run_gsdt(t1, sigma, GuidedToward(pom)).matching == pom


def test_guided_toward_dominated_target_still_yields_pom(ex1):
    # the guidance only biases path choice; optimality is unaffected
    result = run_gsdt(ex1, ("a1", "a1", "a2"), GuidedToward(Matching([("a2", "c1")])))
    assert is_pareto_optimal(ex1, result.matching)


def test_canonical_on_derived_ordering_is_indifference_equivalent(fleet):
    # Exact reproduction is only promised under guidance. Unguided, the
    # derived ordering may land on a different optimum; on this fixed fleet
    # every such outcome leaves every applicant's per-tie counts unchanged.
    # A failure here is a flagged counterexample to study, not noise.
    from camatch.oracle import preference_profile

    exact = 0
    divergent = 0
    for inst in fleet:
        for pom in enumerate_poms(inst).poms:
            sigma = derive_ordering(inst, pom)
            out = run_gsdt(inst, sigma).matching
            if out == pom:
                exact += 1
            else:
                divergent += 1
            assert is_pareto_optimal(inst, out)
            assert preference_profile(inst, out) == preference_profile(inst, pom)
    assert exact > 0


def test_derive_ordering_orders_same_applicant_seats():
    # regression: a3 holds both seats she is indifferent between, and a2's
    # lower-choice seat on c2 must come after a3's. With a2 served first,
    # her better-tie probe could reroute a3 through c2's spare seat and
    # derail the replay.
    inst = Instance.build(
        [("c1", 2), ("c2", 2)],
        [("a1", 2, [["c1"], ["c2"]]),
         ("a2", 1, [["c1"], ["c2"]]),
         ("a3", 2, [["c1", "c2"]])],
    )
    pom = Matching([("a1", "c1"), ("a2", "c2"), ("a3", "c1"), ("a3", "c2")])
    assert is_pareto_optimal(inst, pom)
    sigma = derive_ordering(inst, pom)
    assert run_gsdt(inst, sigma, GuidedToward(pom)).matching == pom
    # a3's two seats are served back to back, ahead of a2's
    assert sigma.index("a2") > max(
        i for i, x in enumerate(sigma[:4]) if x == "a3")


def test_reachability_on_dense_instances():
    # denser preference structures than the fleet: every course acceptable
    rng = random.Random(909)
    reproduced = 0
    for i in range(12):
        n1, n2 = 2 + i % 3, 2 + (i // 3) % 3
        courses = [(f"c{j}", 1 + rng.randrange(2)) for j in range(1, n2 + 1)]
        apps = []
        for k in range(1, n1 + 1):
            ids = [f"c{j}" for j in range(1, n2 + 1)]
            rng.shuffle(ids)
            ties, cur = [], [ids[0]]
            for c in ids[1:]:
                if rng.random() < 0.5:
                    cur.append(c)
                else:
                    ties.append(cur)
                    cur = [c]
            ties.append(cur)
            apps.append((f"a{k}", 1 + rng.randrange(2), ties))
        inst = Instance.build(courses, apps)
        for pom in enumerate_poms(inst).poms:
            sigma = derive_ordering(inst, pom)
            assert run_gsdt(inst, sigma, GuidedToward(pom)).matching == pom
            reproduced += 1
    assert reproduced > 30


def test_pair_priority_order_respects_strict_envy(fleet):
    rng = random.Random(15)
    for inst in rng.sample(fleet, 20):
        for pom in enumerate_poms(inst).poms:
            order = _pair_priority_order(inst, pom)
            position = {p: i for i, p in enumerate(order)}
            for a, c in order:
                for a2, c2 in order:
                    if a2 == a or c2 in pom.of_applicant(a):
                        continue
                    if c2 not in inst.acceptable(a):
                        continue
                    if inst.tie_of(a, c2) < inst.tie_of(a, c):
                        # strict envy arcs always point at earlier pairs
                        assert position[(a2, c2)] < position[(a, c)]


@pytest.mark.parametrize("pairs", [
    [("a2", "c2")],
    [("a1", "c1"), ("a2", "c1")],
], ids=["unacceptable", "over-capacity"])
def test_guided_target_must_be_feasible(monkeypatch, ex1, pairs):
    from camatch import gsdt

    def no_search(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(gsdt, "find_augmenting_path", no_search)
    with pytest.raises(FeasibilityError):
        run_gsdt(ex1, ("a1", "a2", "a1"), GuidedToward(Matching(pairs)))
