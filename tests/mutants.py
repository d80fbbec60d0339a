"""A catalogue of deliberate faults that the tier-1 suite must catch, and
its runner.

Each ``Mutant`` names one fault: a file under ``src/``, the exact text it
replaces (found exactly once), the text put in its place, and the pytest
node ids that must fail on it. For each mutant the runner copies ``src/`` to
a temporary directory, applies the one replacement there, and runs the named
tests against the copy under a timeout. A mutant is killed when every named
test fails. The run fails if the old text is not found exactly once (a
refactor moved the code: move the mutant with it), or if a mutant survives.

Std-lib only; pytest runs in the child process. From the repository root:

    python tests/mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/camatch
    old: str
    new: str
    killers: tuple[str, ...]  # pytest node ids that must fail


MUTANTS = [
    # The misreport search records one probed block too few.
    Mutant("decide-one-block-short", "oracle.py",
           "decided.add(prefs[:probed])", "decided.add(prefs[:max(probed - 1, 0)])",
           ("tests/test_gsdt_resume.py::test_a_search_whose_earlier_runs_decide_lists_finds_what_the_reference_finds[0]",
            "tests/test_gsdt_resume.py::test_the_search_runs_the_lists_a_per_list_bound_runs_in_the_same_order",)),
    Mutant("decide-one-block-short-wrapping", "oracle.py",
           "decided.add(prefs[:probed])", "decided.add(prefs[:probed - 1])",
           ("tests/test_gsdt_resume.py::test_a_search_whose_earlier_runs_decide_lists_finds_what_the_reference_finds[0]",
            "tests/test_gsdt_resume.py::test_the_search_runs_the_lists_a_per_list_bound_runs_in_the_same_order",)),
    # A copy of the network runs without its policy.
    Mutant("copy-drops-policy", "gsdt.py",
           "new.instance, new.free, new.guided_order = instance, self.free, self.guided_order",
           "new.instance, new.free, new.guided_order = instance, self.free, None",
           ("tests/test_gsdt_differential.py::test_region_search_equals_the_references_where_seats_abound[0]",)),
    # The replay serves a guided run canonically.
    Mutant("stages-ignore-policy", "gsdt.py",
           "net, stages = FlowNetwork(self.instance, self.policy), []",
           "net, stages = FlowNetwork(self.instance), []",
           ("tests/test_gsdt.py::test_stages_replay_under_the_results_own_policy",)),
    # A stage's matching leaves out its own delta.
    Mutant("stage-matching-one-short", "gsdt.py",
           "self.run[:self.stage]", "self.run[:self.stage - 1]",
           ("tests/test_gsdt.py::test_rerouting_chain_preserves_indifference",
            "tests/test_gsdt.py::test_flow_matching_correspondence",)),
    # A dead probed tie is searched again.
    Mutant("no-dead-tie-exit", "gsdt.py",
           "    if start in dead or not net.free:",
           "    if not net.free:",
           ("tests/test_gsdt_dead_set.py::test_a_filled_tie_is_dead_and_its_next_probe_inspects_nothing",)),
    # The guided fast path tries the target's courses in descending id.
    Mutant("guided-reversed", "gsdt.py",
           "        for c in order.get(key, ()):",
           "        for c in reversed(order.get(key, ())):",
           ("tests/test_gsdt_stage_reference.py::test_canonical_and_guided_runs_match_the_frozen_loop[0]",
            "tests/test_gsdt_differential.py::test_region_search_equals_the_references_where_seats_abound[0]",)),
    # ``augment`` takes back the seat it lent, then lends one (``free`` one
    # too many) while a seat is left. No scoped check reads ``free``.
    Mutant("lending-augment", "gsdt.py",
           "        self.free -= 1\n",
           "        self.free -= 1 + vars(self).pop('lent', 0)\n"
           "        self.lent = int(self.free > 0)\n"
           "        self.free += self.lent\n",
           ("tests/test_stagewise_differential.py::test_every_stage_output_is_pareto_optimal_for_its_quotas[40-15-20-1606]",
            "tests/test_gsdt.py::test_walkthrough_golden_run",)),
    # The pair order reads each course hub whole, the course with its holders.
    Mutant("pair-order-whole-hub", "envy.py",
           "for v in hub[1:]]", "for v in hub]",
           ("tests/test_acceptance.py::test_criterion_6_reachability",)),
    # The pair order drops the arcs to its applicant's other seats.
    Mutant("pair-order-no-own-seats", "envy.py",
           "if j != i and ties[j] <= ties[i]:", "if False:",
           ("tests/test_certificate_pin.py::test_certificates_at_bench_scale_match_the_pin",)),
    # ``derive_ordering`` skips its verdict when a graph is kept.
    Mutant("derive-skips-kept-verdict", "gsdt.py",
           "check = envy.is_pareto_optimal(instance, pom)",
           "check = pom._graph is not None or envy.is_pareto_optimal(instance, pom)",
           ("tests/test_verdict_memo.py::test_the_pair_order_reads_no_graph_kept_for_another_instance",
            "tests/test_verdict_memo.py::test_an_equal_instance_object_derives_off_a_graph_of_its_own",)),
    # The Tarjan fallback gives the fan an empty list even when a course is exposed.
    Mutant("fan-always-empty", "envy.py",
           "[graph._out[-1] if exposed else ()]", "[()]",
           ("tests/test_climb_random_starts.py::test_climbed_optima_replay_exactly[40-60]",
            "tests/test_envy_hub_differential.py::test_hub_graph_equals_expanded_reference[0]",)),
    # A pair tail's search also stops at an exposed course, as an applicant's does.
    Mutant("pair-stops-at-exposed-course", "envy.py",
           "fan = [len(graph._out) - 1 if tail < len(graph.applicants) else -1]",
           "fan = [len(graph._out) - 1]",
           ("tests/test_envy_hub_differential.py::test_hub_graph_equals_expanded_reference[2]",
            "tests/test_envy_hub_differential.py::test_hub_graph_equals_expanded_reference[5]",
            "tests/test_envy_hub_differential.py::test_hub_graph_equals_expanded_reference[14]",
            "tests/test_dominating_derived.py::test_every_negative_verdict_derives_the_matching_a_build_gives[shape1-pinned1]",)),
    # An exposed head is not checked before it is read, so it reads the fan.
    Mutant("exposed-head-reads-fan", "envy.py",
           "parent[head], queue, found = head, [head], [head]",
           "parent[head], queue, found = head, [head], []",
           ("tests/test_envy_hub_differential.py::test_an_exposed_head_closes_at_once",)),
    # A lone root is not marked visited.
    Mutant("lone-root-unmarked", "scc.py",
           "            index[root] = 0\n", "",
           ("tests/test_scc_differential.py::test_random_graphs_match_the_reference[0]",
            "tests/test_acceptance.py::test_criterion_6_reachability",)),
]

# Runs in a fresh interpreter, so camatch is imported from the mutated copy;
# writes the ids of the failed tests to argv[1].
CHILD = """
import json, sys
import camatch, pytest
assert camatch.__file__.startswith(sys.argv[2]), camatch.__file__
failed = []

class Failures:
    def pytest_runtest_logreport(self, report):
        if report.failed:
            failed.append(report.nodeid)

pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[3:]], plugins=[Failures()])
with open(sys.argv[1], "w") as out:
    json.dump(failed, out)
"""


def run(mutant: Mutant) -> str | None:
    """None when ``mutant`` is killed, else why not."""
    if not mutant.killers:
        return "it names no test that kills it"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "camatch" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"its old text occurs {text.count(mutant.old)} times in {mutant.file}, not once"
        target.write_text(text.replace(mutant.old, mutant.new))
        report = Path(tmp) / "report.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        try:
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, str(report), str(src), *mutant.killers],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"its tests ran past {TIMEOUT_S} s"
        if not report.exists():
            return f"pytest did not finish:\n{proc.stdout}{proc.stderr}"
        failed = set(json.loads(report.read_text()))
        if survivors := [k for k in mutant.killers if k not in failed]:
            return "these tests passed or did not run: " + ", ".join(survivors)
        return None


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        why = run(mutant)
        took = time.perf_counter() - start
        print(f"{mutant.name}: {'killed' if why is None else 'SURVIVED'} ({took:.1f} s)")
        if why is not None:
            survived += 1
            print(f"  {why}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
