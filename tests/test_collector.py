"""The cyclic collector: ``cli.main`` runs a command with it off and leaves it
as it found it, and no library call changes it. A command run as its own
process prints what the in-process API gives."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from camatch import (
    Matching,
    derive_ordering,
    find_beneficial_misreport,
    generate_random_instance,
    is_pareto_optimal,
    parse_instance,
    run_gsdt,
    serialize_instance,
    serialize_matching_pairs,
)
from camatch.cli import main
from instances import FIXTURE_DIR

WALKTHROUGH = FIXTURE_DIR / "walkthrough.txt"
ORDER = ("a1", "a1", "a2", "a2", "a3", "a2", "a3")


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collecting(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def library_calls():
    t1 = parse_instance(WALKTHROUGH.read_text())
    optimum = run_gsdt(t1, ORDER).matching
    return {
        "parse_instance": lambda: parse_instance(WALKTHROUGH.read_text()),
        "run_gsdt": lambda: run_gsdt(t1, ORDER),
        "is_pareto_optimal": lambda: is_pareto_optimal(t1, Matching(sorted(optimum.pairs)[1:])),
        "derive_ordering": lambda: derive_ordering(t1, optimum),
        "find_beneficial_misreport": lambda: find_beneficial_misreport(
            parse_instance((FIXTURE_DIR / "manipulation.txt").read_text()),
            ("a1", "a2", "a1"), "a1"),
    }


@pytest.mark.parametrize("name", list(library_calls()))
def test_library_calls_leave_the_collector_alone(collecting, name):
    call = library_calls()[name]
    call()
    assert gc.isenabled() is collecting


@pytest.mark.parametrize("argv, code", [
    (["solve", str(WALKTHROUGH), "--ordering", " ".join(ORDER)], 0),
    (["enumerate", str(WALKTHROUGH)], 0),
    (["solve", str(WALKTHROUGH), "--ordering", "a1"], 2),
    (["solve", str(FIXTURE_DIR / "no-such-file.txt"), "--ordering", "a1"], 2),
    (["enumerate", str(WALKTHROUGH), "--limit", "0"], 3),
])
def test_main_restores_the_collector(collecting, capsys, monkeypatch, argv, code):
    states = []
    real = gc.isenabled
    monkeypatch.setattr("camatch.cli.parse_instance",
                        lambda text: states.append(real()) or parse_instance(text))
    assert main(argv) == code
    capsys.readouterr()
    assert gc.isenabled() is collecting
    assert states in ([], [False])  # a command that reads its instance reads it uncollected


def test_verify_as_a_process_prints_what_the_api_gives(tmp_path, capsys):
    inst = generate_random_instance(640, 100, 3, 4, 0.4, 1)
    order = tuple(a for a in inst.applicants for _ in range(inst.quota[a]))
    canonical = serialize_matching_pairs(run_gsdt(inst, order).matching.pairs)
    half = "".join(canonical.splitlines(keepends=True)[::2])
    (tmp_path / "inst.txt").write_text(serialize_instance(inst))
    (tmp_path / "half.txt").write_text(half)
    argv = ["verify", str(tmp_path / "inst.txt"), str(tmp_path / "half.txt")]

    check = is_pareto_optimal(inst, Matching(tuple(tuple(p.split()) for p in half.splitlines())))
    assert not check
    api = ("NOT-PARETO-OPTIMAL\n" f"coalition: {check.coalition.describe()}\n" "dominating:\n"
           + serialize_matching_pairs(check.dominating.pairs))
    assert main(argv) == 1
    assert capsys.readouterr().out == api

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "camatch.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, api, "")
