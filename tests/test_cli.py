"""End-to-end command-line checks: envelopes, exit codes, reproducibility."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys

import pytest

from needleboard import brute_force, make_parity, make_random, read_text, write_text
from needleboard.cli import main


def _board_file(tmp_path, c, name="board.txt"):
    path = tmp_path / name
    buf = io.StringIO()
    write_text(c, buf)
    path.write_text(buf.getvalue(), encoding="ascii")
    return str(path)


def _run_json(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "needleboard/1"
    assert isinstance(doc["version"], str) and doc["version"]
    assert doc["config"]["subcommand"] == argv[0]
    return doc


def test_generate_round_trip(tmp_path):
    path = tmp_path / "parity.txt"
    assert main(["generate", "--n", "6", "--kind", "parity", "--out", str(path)]) == 0
    with open(path, encoding="ascii", newline="") as fh:
        assert read_text(fh) == make_parity(6)


def test_generate_writes_parseable_stdout(capsys):
    assert main(["generate", "--n", "2", "--kind", "constant"]) == 0
    out = capsys.readouterr().out
    c = read_text(io.StringIO(out))
    assert c.n == 2 and float(c.cells.sum()) == 4.0


def test_integrate_parity_row_cancels(tmp_path, capsys):
    board = _board_file(tmp_path, make_parity(4))
    doc = _run_json(["integrate", "--board", board, "--seg", "0,0.5,4,0.5"], capsys)
    res = doc["result"]
    assert res["value"] == 0.0
    assert res["crossings"] == 4
    assert res["covered_length"] == pytest.approx(4.0, abs=1e-12)


def test_integrate_monte_carlo_check(tmp_path, capsys):
    board = _board_file(tmp_path, make_random(4, 1))
    doc = _run_json(
        ["integrate", "--board", board, "--seg", "0,0,4,4", "--mc", "20000"], capsys
    )
    res = doc["result"]
    assert res["mc_samples"] == 20000
    assert abs(res["mc_value"] - res["value"]) <= 0.2


def test_search_envelope_and_parity_floor(tmp_path, capsys):
    board = _board_file(tmp_path, make_parity(8))
    doc = _run_json(["search", "--board", board], capsys)
    res = doc["result"]
    assert res["best_segment"]["value"] >= 8 * math.sqrt(2.0) - 1e-9
    assert res["best_chord"]["value"] >= 8 * math.sqrt(2.0) - 1e-9
    assert res["ratio_sqrt_n"] == pytest.approx(
        res["best_segment"]["value"] / math.sqrt(8.0), rel=1e-12
    )
    assert res["strategy"]["oracle"] is False
    assert "threads" not in doc["config"]


def test_search_oracle_matches_library(tmp_path, capsys):
    c = make_random(4, 3)
    board = _board_file(tmp_path, c)
    doc = _run_json(["search", "--board", board, "--oracle"], capsys)
    rep = brute_force(c)
    assert doc["result"]["best_chord"]["value"] == pytest.approx(
        rep.best_chord[1], abs=1e-15
    )
    assert doc["result"]["best_segment"]["value"] == pytest.approx(
        rep.best_segment[1], abs=1e-15
    )
    assert doc["result"]["strategy"]["oracle"] is True


def test_search_renders_svg(tmp_path):
    board = _board_file(tmp_path, make_parity(4))
    svg = tmp_path / "board.svg"
    out = tmp_path / "report.json"
    rc = main(["search", "--board", board, "--angles", "64",
               "--svg", str(svg), "--out", str(out)])
    assert rc == 0
    text = svg.read_text(encoding="ascii")
    assert "<svg" in text and "<line" in text
    assert text.count("<rect") == 4 * 4 + 2  # cells + backdrop + border


def test_project_csv_profile(tmp_path, capsys):
    board = _board_file(tmp_path, make_parity(4))
    rc = main(["project", "--board", board, "--theta", "0.3", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,value"
    ts = [float(row.split(",")[0]) for row in lines[1:]]
    assert len(ts) >= 2 and all(a < b for a, b in zip(ts, ts[1:]))


def test_certify_reports_sound_pair(tmp_path, capsys):
    board = _board_file(tmp_path, make_parity(4))
    doc = _run_json(["certify", "--board", board], capsys)
    res = doc["result"]
    assert 0.0 < res["certificate"] <= res["best_chord"]["value"]
    assert res["radius"] == 1.0


def test_spectrum_split_and_slice(tmp_path, capsys):
    board = _board_file(tmp_path, make_parity(4))
    doc = _run_json(["spectrum", "--board", board, "--a", "4", "--theta", "0.7"], capsys)
    res = doc["result"]
    assert res["total"] == pytest.approx(16.0, rel=1e-12)
    assert res["disk_energy"] + res["tail"] == pytest.approx(res["total"], rel=1e-12)
    assert 0.0 < res["disk_energy"] < res["total"]
    assert res["slice"]["residual"] <= 1e-6 * 16
    assert res["slice"]["line_energy"] >= 0.0


def test_tail_csv_rows(capsys):
    rc = main(["tail", "--n", "4", "--seg", "0,0.5,4,0.5", "--trials", "500",
               "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,frequency,envelope,allowance"
    assert len(lines) == 4  # default lambdas 1,2,3
    for row in lines[1:]:
        lam, freq, env, allow = (float(x) for x in row.split(","))
        assert 0.0 <= freq <= 1.0
        assert env == pytest.approx(2.0 * math.exp(-lam * lam / 2.0), rel=1e-12)
        assert allow >= 0.0


def test_verify_upper_csv_shape(capsys):
    rc = main(["verify-upper", "--ns", "4,8", "--trials", "2", "--seed", "7",
               "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,trial,angles,value"
    assert len(lines) == 1 + 2 * 2


def test_verify_lower_holds(capsys):
    rc = main(["verify-lower", "--ns", "4", "--fixtures", "constant,parity",
               "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "fixture,n,best_chord,ratio_sqrt_n,certificate,radius"
    assert len(lines) == 3
    for row in lines[1:]:
        parts = row.split(",")
        assert float(parts[2]) >= float(parts[4]) > 0.0


def test_perturb_within_unit_bound(capsys):
    doc = _run_json(["perturb", "--n", "4", "--trials", "50"], capsys)
    assert 0.0 <= doc["result"]["max_deviation"] <= 1.0


def test_bad_segment_names_token(capsys):
    for token in ("1,2,3", "nan,0,1,1", "0,0,inf,1"):
        rc = main(["integrate", "--board", "whatever.txt", "--seg", token])
        err = capsys.readouterr().err
        assert rc == 1
        assert token in err


@pytest.mark.parametrize("argv, env, named", [
    (["verify-upper", "--ns", "1,2", "--trials", "1"], None, "n=1"),
    (["verify-upper", "--ns", "4", "--trials", "0"], None, "trials"),
    (["perturb", "--n", "1", "--trials", "5"], None, "n=1"),
    (["generate", "--n", "2", "--threads", "0"], None, "--threads"),
    (["generate", "--n", "2", "--threads", "-3"], None, "--threads"),
    (["generate", "--n", "2"], "abc", "NEEDLEBOARD_THREADS"),
    # the thread cap is checked while parsing, before any pool exists
    (["generate", "--n", "2", "--threads", "257"], None, "--threads"),
    (["generate", "--n", "2", "--threads", "100000"], None, "--threads"),
    (["generate", "--n", "2"], "100000", "NEEDLEBOARD_THREADS"),
    (["project", "--board", "b.txt", "--theta", "nan"], None, "--theta"),
    (["project", "--board", "b.txt", "--theta", "inf"], None, "--theta"),
    (["spectrum", "--board", "b.txt", "--theta", "nan"], None, "--theta"),
    (["spectrum", "--board", "b.txt", "--a", "nan"], None, "--a"),
    (["spectrum", "--board", "b.txt", "--a", "inf"], None, "--a"),
    (["tail", "--seg", "0,0.5,4,0.5", "--lambdas", "1,nan"], None, "--lambdas"),
    (["verify-lower", "--ns", "4", "--fixtures", "parity,random:x"], None, "random:x"),
    (["verify-lower", "--ns", "-2"], None, "n=-2"),
    (["verify-lower", "--ns", "4,0"], None, "n=0"),
    # a segment whose length overflows; BOARD stands for a real board file
    (["integrate", "--board", "BOARD", "--seg", "1e308,0.5,-1e308,0.5"], None,
     "(1e+308, 0.5) -> (-1e+308, 0.5)"),
])
def test_bad_input_exits_one_naming_it(argv, env, named, capsys, monkeypatch, tmp_path):
    if env is not None:
        monkeypatch.setenv("NEEDLEBOARD_THREADS", env)
    board = _board_file(tmp_path, make_parity(4))
    rc = main([board if a == "BOARD" else a for a in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert named in captured.err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["generate", "--bogus"]) == 1
    assert "--bogus" in capsys.readouterr().err


def test_missing_board_flag_is_usage_error(capsys):
    assert main(["integrate", "--seg", "0,0,1,1"]) == 1
    assert "--board" in capsys.readouterr().err


def test_unreadable_board_path_exits_one(tmp_path, capsys):
    rc = main(["integrate", "--board", str(tmp_path / "missing.txt"),
               "--seg", "0,0,1,1"])
    assert rc == 1
    assert "missing.txt" in capsys.readouterr().err


def test_malformed_board_names_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("needleboard v1\n3\n+++\n++\n+++\n", encoding="ascii")
    rc = main(["integrate", "--board", str(path), "--seg", "0,0,1,1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "bad board file" in err and "line 4" in err


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["--version"]) == 0
    assert "needleboard" in capsys.readouterr().out


def _cli(argv, env=None):
    merged = dict(os.environ, **(env or {}))
    return subprocess.run(
        [sys.executable, "-m", "needleboard.cli", *argv],
        capture_output=True, env=merged,
    )


def test_monte_carlo_far_segment_writes_nothing_to_stderr(tmp_path):
    board = _board_file(tmp_path, make_parity(4))
    run = _cli(["integrate", "--board", board, "--seg", "0.5,0,0.5,1e100", "--mc", "1000"])
    assert run.returncode == 0
    assert run.stderr == b""


def test_reports_byte_identical_across_runs_and_threads(tmp_path):
    board = _board_file(tmp_path, make_random(8, 11))
    commands = [
        ["search", "--board", board, "--angles", "128"],
        ["verify-upper", "--ns", "4,8", "--trials", "2", "--seed", "7"],
    ]
    for argv in commands:
        first = _cli(argv + ["--threads", "1"])
        again = _cli(argv + ["--threads", "1"])
        wide = _cli(argv + ["--threads", "4"])
        via_env = _cli(argv, env={"NEEDLEBOARD_THREADS": "4"})
        for run in (first, again, wide, via_env):
            assert run.returncode == 0, run.stderr.decode()
        assert first.stdout == again.stdout == wide.stdout == via_env.stdout
