"""The CLI exit-code contract on drawn input files: every command exits 0,
1, 2 or 3, prints no traceback, and lets no exception escape ``main``. A
reader that closes stdout early ends the command with 0 and no error."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from camatch import generate_random_instance, serialize_instance
from camatch.cli import main

APPLICANTS = ["a1", "a2", "a3"]
COURSES = ["c1", "c2", "c3"]
# Words that break the formats, and integers int() reads in odd ways.
JUNK = ["(", ")", "#", "=", "quota=", "prefs:", "courses:", "applicant", "x",
        "-1", "0", "1_0", "\u0663", "+3", "2147483648", "c9", "a9", "\u00e71"]
SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", "\xa0"]
# Each drawn set of files is valid, or has one of these faults.
FAULTS = [None, None, None, None, "quota", "unknown course", "ordering", "infeasible",
          "words in instance", "words in ordering", "words in matching",
          "bytes in instance", "bytes in ordering", "bytes in matching"]


@st.composite
def input_files(draw):
    """The bytes of an instance, an ordering and a matching file, valid for
    one another apart from at most one drawn fault."""
    fault = draw(st.sampled_from(FAULTS))
    courses = draw(st.lists(st.sampled_from(COURSES), min_size=1, max_size=3, unique=True))
    capacity = {c: draw(st.integers(1, 2)) for c in courses}
    if fault == "quota":
        capacity[courses[0]] = draw(st.sampled_from([0, -1, "x", "1_0", "+1"]))
    lines = ["courses: " + " ".join(f"{c}={q}" for c, q in capacity.items())]
    ordering, pairs = [], []
    seats = {c: q if isinstance(q, int) else 0 for c, q in capacity.items()}
    for a in draw(st.lists(st.sampled_from(APPLICANTS), min_size=1, max_size=3, unique=True)):
        quota = draw(st.integers(1, 3))
        listed = draw(st.permutations(courses))[:draw(st.integers(0, len(courses)))]
        if fault == "unknown course" and a == "a1":
            listed.append("c9")
        ties, cut = [], 0
        while cut < len(listed):
            size = draw(st.integers(1, len(listed) - cut))
            ties.append(listed[cut:cut + size])
            cut += size
        groups = " ".join("( " + " ".join(tie) + " )" for tie in ties)
        lines.append(f"applicant {a} quota={quota} prefs: {groups}")
        ordering += [a] * quota
        for c in listed:
            if draw(st.booleans()) and (
                    fault == "infeasible" or quota > 0 and seats.get(c, 0) > 0):
                pairs.append((a, c))
                quota -= 1
                seats[c] = seats.get(c, 0) - 1
    ordering = draw(st.permutations(ordering))
    if fault == "ordering":
        ordering = ordering[1:] + draw(st.lists(st.sampled_from(APPLICANTS + ["a9"]), max_size=2))
    texts = {
        "instance": "\n".join(lines) + "\n",
        "ordering": " ".join(ordering) + "\n",
        "matching": "".join(f"{a} {c}\n" for a, c in pairs),
    }
    files = {}
    for name, text in texts.items():
        if fault == f"words in {name}":
            for _ in range(draw(st.integers(1, 2))):
                k = draw(st.integers(0, len(text)))
                text = text[:k] + draw(st.sampled_from(JUNK + SEPARATORS)) + text[k:]
        files[name] = (b"\xff" if fault == f"bytes in {name}" else b"") + text.encode("utf-8")
    return files


COMMANDS = [
    ["solve", "{instance}", "--ordering-file", "{ordering}"],
    ["solve", "{instance}", "--ordering-file", "{ordering}", "--trace"],
    ["solve", "{instance}", "--ordering-file", "{ordering}", "--guided", "{matching}"],
    ["verify", "{instance}", "{matching}"],
    ["ordering-for", "{instance}", "{matching}"],
    ["enumerate", "{instance}", "--limit", "{limit}"],
    ["misreport", "{instance}", "{applicant}", "--ordering-file", "{ordering}",
     "--limit", "{limit}"],
]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(files=input_files(), applicant=st.sampled_from(APPLICANTS + ["a9"]),
       limit=st.integers(0, 40))
def test_every_command_keeps_the_exit_code_contract(tmp_path_factory, files, applicant, limit):
    directory = tmp_path_factory.mktemp("cli")
    fields = {"applicant": applicant, "limit": str(limit)}
    for name, data in files.items():
        path = directory / f"{name}.txt"
        path.write_bytes(data)
        fields[name] = str(path)
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(**fields) for arg in command])
        assert code in (0, 1, 2, 3), (command, code)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error:"), (command, err.getvalue())


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n1=st.integers(-1, 4), n2=st.integers(-1, 4), max_b=st.integers(0, 3),
       max_q=st.integers(0, 3), density=st.sampled_from(["0", "0.5", "1", "1.5", "-0.1"]),
       seed=st.integers(0, 9))
def test_gen_keeps_the_exit_code_contract(n1, n2, max_b, max_q, density, seed):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["gen", str(n1), str(n2), str(max_b), str(max_q), density, str(seed)])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error:")


def test_a_reader_that_stops_after_one_line_ends_the_command_quietly(tmp_path):
    """``camatch solve --trace | head -n 1`` on a trace far larger than a pipe
    buffer: the write after the reader has gone fails with a broken pipe,
    which the command meets with exit 0 and nothing on stderr."""
    inst = generate_random_instance(640, 100, 3, 4, 0.4, 1)
    (tmp_path / "inst.txt").write_text(serialize_instance(inst))
    ordering = " ".join(a for a in inst.applicants for _ in range(inst.quota[a]))
    (tmp_path / "order.txt").write_text(ordering)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "camatch.cli", "solve", str(tmp_path / "inst.txt"),
         "--ordering-file", str(tmp_path / "order.txt"), "--trace"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"stage=1 ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""
