"""Command-line contract: exit codes, formats, pipelines."""

from pathlib import Path

import pytest

from camatch import envy
from camatch.cli import main


@pytest.fixture()
def ex1_path(fixture_dir):
    return str(fixture_dir / "manipulation.txt")


@pytest.fixture()
def t1_path(fixture_dir):
    return str(fixture_dir / "walkthrough.txt")


@pytest.fixture()
def impossibility_path(fixture_dir):
    return lambda k: str(fixture_dir / f"impossibility_i{k}.txt")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_manipulation(capsys, ex1_path):
    code, out, _ = run_cli(capsys, "solve", ex1_path, "--ordering", "a1 a2 a1")
    assert code == 0
    assert out == "a1 c2\na2 c1\n"


def test_solve_with_ordering_file(capsys, ex1_path, tmp_path):
    ordering = tmp_path / "sigma.txt"
    ordering.write_text("a1 a1 a2\n")
    code, out, _ = run_cli(
        capsys, "solve", ex1_path, "--ordering-file", str(ordering))
    assert code == 0
    assert out == "a1 c1\na1 c2\n"


def test_solve_trace_shows_all_stages(capsys, t1_path):
    code, out, _ = run_cli(
        capsys, "solve", t1_path, "--trace",
        "--ordering", "a1 a1 a2 a2 a3 a2 a3")
    assert code == 0
    trace_lines = [l for l in out.splitlines() if l.startswith("stage=")]
    assert {l.split()[0] for l in trace_lines} == {
        f"stage={i}" for i in range(1, 8)}


def test_solve_empty_instance(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("courses:\n")
    code, out, _ = run_cli(capsys, "solve", str(path), "--ordering", "")
    assert code == 0
    assert out == ""


def test_solve_bad_ordering(capsys, ex1_path):
    code, _, err = run_cli(capsys, "solve", ex1_path, "--ordering", "a1 a2")
    assert code == 2
    assert "needs" in err


def test_verify_pom(capsys, ex1_path, tmp_path):
    matching = tmp_path / "mu1.txt"
    matching.write_text("a1 c2\na2 c1\n")
    code, out, _ = run_cli(capsys, "verify", ex1_path, str(matching))
    assert code == 0
    assert out.strip() == "PARETO-OPTIMAL"


def test_verify_dominated(capsys, ex1_path, tmp_path):
    matching = tmp_path / "dominated.txt"
    matching.write_text("a2 c1\n")
    code, out, _ = run_cli(capsys, "verify", ex1_path, str(matching))
    assert code == 1
    assert "NOT-PARETO-OPTIMAL" in out
    assert "coalition: augmenting-path: a1 c2" in out
    assert "a1 c2" in out.splitlines()[-2:][0] or "a1 c2" in out


def test_verify_malformed_matching(capsys, ex1_path, tmp_path):
    matching = tmp_path / "bad.txt"
    matching.write_text("a1 c2 c1\n")
    code, _, err = run_cli(capsys, "verify", ex1_path, str(matching))
    assert code == 2


def test_verify_infeasible_names_constraint(capsys, t1_path, tmp_path):
    matching = tmp_path / "infeasible.txt"
    matching.write_text("a2 c2\na3 c2\n")
    code, _, err = run_cli(capsys, "verify", t1_path, str(matching))
    assert code == 2
    assert "|mu(c2)| = 2 exceeds quota 1" in err


@pytest.mark.parametrize("target, constraint", [
    ("a2 c2\n", "course c2 is not acceptable to a2"),
    ("a1 c1\na2 c1\n", "|mu(c1)| = 2 exceeds quota 1"),
], ids=["unacceptable", "over-capacity"])
def test_solve_guided_infeasible_target_is_usage_error(
        capsys, ex1_path, tmp_path, target, constraint):
    matching = tmp_path / "m.txt"
    matching.write_text(target)
    code, out, err = run_cli(
        capsys, "solve", ex1_path, "--ordering", "a1 a2 a1", "--guided", str(matching))
    assert code == 2
    assert out == ""
    assert f"infeasible matching: {constraint}" in err


def test_enumerate_impossibility_family(capsys, impossibility_path):
    code, out, _ = run_cli(capsys, "enumerate", impossibility_path(1))
    assert code == 0
    assert out.splitlines()[0] == "poms=3 examined=8"
    code, out, _ = run_cli(capsys, "enumerate", impossibility_path(4))
    assert code == 0
    assert out.splitlines()[0].startswith("poms=2")


def test_enumerate_empty_instance(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("courses:\n")
    code, out, _ = run_cli(capsys, "enumerate", str(path))
    assert code == 0
    assert out.splitlines() == ["poms=1 examined=1", "(empty)"]


def test_enumerate_limit_zero_on_a_courses_only_file(capsys, tmp_path):
    # The one (empty) matching already goes past a limit of 0.
    path = tmp_path / "empty.txt"
    path.write_text("courses: c1=1\n")
    code, out, err = run_cli(capsys, "enumerate", str(path), "--limit", "0")
    assert code == 3 and out == ""
    assert "limit exceeded" in err


def test_enumerate_limit(capsys, tmp_path):
    lines = ["courses: " + " ".join(f"c{i}=1" for i in range(1, 9))]
    for i in range(1, 7):
        lines.append(
            f"applicant a{i} quota=4 prefs: ( " +
            " ".join(f"c{j}" for j in range(1, 9)) + " )")
    path = tmp_path / "big.txt"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "enumerate", str(path), "--limit", "1000")
    assert code == 3
    assert "limit" in err


def test_enumerate_negative_limit_is_usage_error(capsys, ex1_path):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", ex1_path, "--limit", "-1"])
    assert exc.value.code == 2
    assert "--limit: must be nonnegative, got -1" in capsys.readouterr().err


def test_ordering_for_round_trip(capsys, ex1_path, tmp_path):
    matching = tmp_path / "mu2.txt"
    matching.write_text("a1 c1\na1 c2\n")
    code, out, _ = run_cli(capsys, "ordering-for", ex1_path, str(matching))
    assert code == 0
    assert out == "a1 a1 a2\n"
    # guided replay reproduces the matching byte for byte
    code, out, _ = run_cli(
        capsys, "solve", ex1_path, "--ordering", out.strip(),
        "--guided", str(matching))
    assert code == 0
    assert out == "a1 c1\na1 c2\n"


def test_ordering_for_rejects_dominated(capsys, ex1_path, tmp_path):
    matching = tmp_path / "dominated.txt"
    matching.write_text("a2 c1\n")
    code, out, _ = run_cli(capsys, "ordering-for", ex1_path, str(matching))
    assert code == 1
    assert "NOT-PARETO-OPTIMAL" in out


@pytest.mark.parametrize("pairs, code", [("a1 c1\na1 c2\n", 0), ("a2 c1\n", 1)])
def test_ordering_for_builds_the_envy_graph_once(
        capsys, monkeypatch, ex1_path, tmp_path, pairs, code):
    builds = []
    build = envy.build_envy_graph

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(envy, "build_envy_graph", counted_build)
    matching = tmp_path / "matching.txt"
    matching.write_text(pairs)
    assert run_cli(capsys, "ordering-for", ex1_path, str(matching))[0] == code
    assert len(builds) == 1


def test_misreport_finding(capsys, ex1_path):
    code, out, _ = run_cli(
        capsys, "misreport", ex1_path, "a1", "--ordering", "a1 a2 a1")
    assert code == 1
    assert "FOUND applicant=a1" in out
    assert "fabricated: ( c1 ) ( c2 )" in out
    assert out.startswith("# misreport space:")


def test_misreport_none(capsys, ex1_path):
    code, out, _ = run_cli(
        capsys, "misreport", ex1_path, "a1", "--ordering", "a1 a1 a2")
    assert code == 0
    assert "NONE examined=6" in out


def test_misreport_inconclusive(capsys, ex1_path):
    code, out, _ = run_cli(
        capsys, "misreport", ex1_path, "a1",
        "--ordering", "a1 a2 a1", "--limit", "2")
    assert code == 3
    assert "INCONCLUSIVE" in out


def test_misreport_negative_limit_is_usage_error(capsys, ex1_path):
    with pytest.raises(SystemExit) as exc:
        main(["misreport", ex1_path, "a1", "--ordering", "a1 a2 a1", "--limit", "-3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--limit: must be nonnegative, got -3" in captured.err


def test_gen_golden_and_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "gen", "3", "3", "2", "2", "0.5", "7")
    assert code == 0
    code, out2, _ = run_cli(capsys, "gen", "3", "3", "2", "2", "0.5", "7")
    assert out1 == out2
    assert out1.splitlines()[0] == "courses: c1=2 c2=1 c3=2"


def test_gen_bad_params(capsys):
    code, _, err = run_cli(capsys, "gen", "3", "3", "0", "2", "0.5", "7")
    assert code == 2
    assert "max_b" in err


def test_gen_output_parses_and_solves(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "3", "2", "2", "2", "0.3", "11")
    path = tmp_path / "gen.txt"
    path.write_text(out)
    from camatch import parse_instance

    inst = parse_instance(out)
    sigma = " ".join(a for a in inst.applicants for _ in range(inst.quota[a]))
    code, out, _ = run_cli(capsys, "solve", str(path), "--ordering", sigma)
    assert code == 0


def test_solve_then_verify_pipeline(capsys, t1_path, tmp_path):
    code, out, _ = run_cli(
        capsys, "solve", t1_path, "--ordering", "a1 a1 a2 a2 a3 a2 a3")
    assert code == 0
    matching = tmp_path / "solved.txt"
    matching.write_text(out)
    code, out, _ = run_cli(capsys, "verify", t1_path, str(matching))
    assert code == 0
    assert out.strip() == "PARETO-OPTIMAL"


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent/i.txt", "/nonexistent/m.txt")
    assert code == 2


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("applicants: nope\n")
    code, _, err = run_cli(capsys, "enumerate", str(path))
    assert code == 2
    assert "line 1" in err


def test_directory_as_instance_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "enumerate", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


def test_non_utf8_instance_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("courses: c\xe9=1\n".encode("latin-1"))
    code, _, err = run_cli(capsys, "enumerate", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_misreport_unknown_applicant_is_usage_error(capsys, ex1_path):
    code, out, err = run_cli(
        capsys, "misreport", ex1_path, "zz", "--ordering", "a1 a2 a1")
    assert code == 2
    assert out == ""
    assert "unknown applicant 'zz'" in err


@pytest.mark.parametrize("argv", [
    ("solve", "{instance}", "--ordering-file", "{ordering}"),
    ("solve", "{instance}", "--ordering-file", "{ordering}", "--guided", "{matching}"),
    ("verify", "{instance}", "{matching}"),
    ("ordering-for", "{instance}", "{matching}"),
    ("misreport", "{instance}", "a1", "--ordering-file", "{ordering}"),
    ("enumerate", "{instance}"),
])
def test_byte_order_mark_is_accepted(capsys, ex1_path, tmp_path, argv):
    texts = {
        "instance": Path(ex1_path).read_text(encoding="utf-8"),
        "ordering": "a1 a2 a1\n",
        "matching": "a1 c2\na2 c1\n",
    }

    def run(marked):
        paths = {}
        for name, text in texts.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(("\ufeff" if name == marked else "") + text, encoding="utf-8")
            paths[name] = str(path)
        return run_cli(capsys, *(arg.format(**paths) for arg in argv))

    plain_code, plain_out, _ = run(None)
    for marked in texts:
        if "{%s}" % marked in argv:
            assert run(marked) == (plain_code, plain_out, "")
