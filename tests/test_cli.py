"""End-to-end command-line checks: envelopes, exit codes, reproducibility."""

from __future__ import annotations

import importlib.util
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import needleboard
from needleboard import (
    AXES, KINDS, best_chord, brute_force, make_constant, make_parity, make_random, read_text,
    spectral, write_text,
)
from needleboard import cli, verify
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


@pytest.mark.parametrize("c", [make_constant(1, 1.0), make_constant(8, 1.0), make_parity(8)],
                         ids=["constant-1", "constant-8", "parity-8"])
def test_search_reports_the_exact_diagonal(tmp_path, capsys, c):
    # the best segment of these boards is the anti-diagonal, reported with
    # its exact ends and a length equal to its value
    board = _board_file(tmp_path, c)
    seg = _run_json(["search", "--board", board], capsys)["result"]["best_segment"]
    assert [seg[k] for k in ("ax", "ay", "bx", "by")] == [c.n, 0.0, 0.0, c.n]
    assert seg["length"] == seg["value"]


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


def test_search_svg_failure_emits_no_report(tmp_path, capsys):
    board = _board_file(tmp_path, make_parity(4))
    out = tmp_path / "report.json"
    svg = str(tmp_path / "missing" / "board.svg")
    assert main(["search", "--board", board, "--angles", "64", "--svg", svg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "board.svg" in captured.err
    assert main(["search", "--board", board, "--angles", "64", "--svg", svg,
                 "--out", str(out)]) == 1
    assert not out.exists()


def test_search_report_failure_removes_the_svg(tmp_path, capsys):
    # The other order: the SVG is written, then --out cannot be.
    board = _board_file(tmp_path, make_parity(4))
    svg = tmp_path / "board.svg"
    out = str(tmp_path / "missing" / "report.json")
    assert main(["search", "--board", board, "--angles", "64", "--svg", str(svg),
                 "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "report.json" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["board.txt"]


# 10^17 elements exceed any 57-bit address space, so numpy refuses the
# allocation before it touches memory.
@pytest.mark.parametrize("argv", [
    ["integrate", "--seg", "0,0.5,4,0.5", "--mc", "100000000000000000"],
    ["tail", "--n", "4", "--seg", "0,0.5,4,0.5", "--trials", "100000000000000000"],
], ids=["integrate-mc", "tail-trials"])
def test_memory_exhaustion_exits_1_without_a_traceback(tmp_path, capsys, argv):
    if argv[0] == "integrate":
        argv = [*argv, "--board", _board_file(tmp_path, make_parity(4))]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"needleboard: {argv[0]}: out of memory: Unable to allocate")


@pytest.mark.parametrize("kind", KINDS)
def test_huge_side_runs_out_of_memory_before_any_index_vector(kind, tmp_path, capsys,
                                                                monkeypatch):
    # At n = 2^29 one length-n int64 vector is 4 GiB, and the n x n board
    # (2 EiB) cannot exist: the board must be requested first.  Nothing
    # large is allocated here, since the n x n request raises MemoryError
    # and a length-n vector fails the test.
    n = 2**29
    full, arange = np.full, np.arange

    def board_request(shape, *args, **kwargs):
        if shape == (n, n):
            raise MemoryError(f"Unable to allocate the {n} x {n} board")
        return full(shape, *args, **kwargs)

    def index_vector(*args, **kwargs):
        if any(isinstance(a, (int, np.integer)) and a >= n for a in args):
            pytest.fail(f"np.arange{args} requested before the n x n board")
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "full", board_request)
    monkeypatch.setattr(np, "arange", index_vector)
    out = tmp_path / "board.txt"
    assert main(["generate", "--n", str(n), "--kind", kind, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"needleboard: generate: out of memory: "
                            f"Unable to allocate the {n} x {n} board\n")
    assert not out.exists()


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


def _certificate_above_every_chord(c):
    # a chord is at most sqrt(2) n max|z| long, so 2n beats every one
    return 2.0 * c.n, 1.0


def test_certify_contract_failure_exits_2_after_the_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "certified_lower_bound", _certificate_above_every_chord)
    board = _board_file(tmp_path, make_parity(4))
    assert main(["certify", "--board", board]) == 2
    captured = capsys.readouterr()
    res = json.loads(captured.out)["result"]
    assert res["certificate"] == 8.0
    assert captured.err == (f"needleboard: contract failure: certificate 8.0 exceeds "
                            f"best chord value {res['best_chord']['value']}\n")


def test_verify_lower_contract_failure_exits_2_without_a_report(tmp_path, capsys,
                                                               monkeypatch):
    monkeypatch.setattr(verify, "certified_lower_bound", _certificate_above_every_chord)
    out = tmp_path / "rows.json"
    assert main(["verify-lower", "--ns", "4", "--fixtures", "parity", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    _, v = best_chord(make_parity(4), angles=verify.lower_scan_angles(4))
    assert captured.err == (f"needleboard: contract failure: certificate 8.0 exceeds "
                            f"chord maximum {v} on fixture parity at n=4\n")


def test_spectrum_split_and_slice(tmp_path, capsys):
    board = _board_file(tmp_path, make_parity(4))
    doc = _run_json(["spectrum", "--board", board, "--a", "4", "--theta", "0.7"], capsys)
    res = doc["result"]
    assert res["total"] == pytest.approx(16.0, rel=1e-12)
    assert res["disk_energy"] + res["tail"] == pytest.approx(res["total"], rel=1e-12)
    assert 0.0 < res["disk_energy"] < res["total"]
    assert res["slice"]["residual"] <= 1e-6 * 16
    assert res["slice"]["line_energy"] >= 0.0


def test_spectrum_job_projects_the_board_once(tmp_path, capsys, monkeypatch):
    # line_energy and slice_residual share one interval profile.
    calls = []
    real = spectral.project

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spectral, "project", counting)
    board = _board_file(tmp_path, make_random(6, 2))
    _run_json(["spectrum", "--board", board, "--a", "4", "--theta", "0.7"], capsys)
    assert len(calls) == 1


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


@pytest.mark.parametrize("head", [
    ["integrate", "--board", "BOARD"],
    ["tail", "--n", "4", "--trials", "200"],
])
def test_seg_value_with_a_leading_minus(head, tmp_path, capsys):
    # "--seg -1,..." reads as "--seg=-1,...", byte for byte; a malformed or
    # non-finite segment written either way exits 1 naming it.
    board = _board_file(tmp_path, make_random(4, 2))
    head = [board if a == "BOARD" else a for a in head]
    assert main(head + ["--seg", "-1,0.5,3,0.5"]) == 0
    spaced = capsys.readouterr().out
    assert main(head + ["--seg=-1,0.5,3,0.5"]) == 0
    assert capsys.readouterr().out == spaced
    for token in ("-1,0.5", "-inf,0,1,1", "-1,nan,3,0.5", "-x"):
        assert main(head + ["--seg", token]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert token in captured.err
    # a following option is still an option, not the segment
    assert main(head + ["--seg", "--out", "x.json"]) == 1
    assert "expected one argument" in capsys.readouterr().err


def test_leading_minus_value_after_any_long_option(tmp_path, capsys):
    # "--option -1,..." reads as "--option=-1,...", abbreviations included
    board = _board_file(tmp_path, make_random(4, 2))
    tail = ["tail", "--n", "4", "--seg", "0,0.5,4,0.5", "--trials", "200"]
    for spaced, glued in [
        (["integrate", "--board", board, "--se", "-1,0.5,3,0.5"],
         ["integrate", "--board", board, "--seg=-1,0.5,3,0.5"]),
        (tail + ["--lambdas", "-0.5,1"], tail + ["--lambdas=-0.5,1"]),
    ]:
        assert main(spaced) == 0
        out = capsys.readouterr().out
        assert main(glued) == 0
        assert capsys.readouterr().out == out
    assert main(["verify-upper", "--ns", "-4,8"]) == 1
    assert "n=-4" in capsys.readouterr().err
    assert main(["tail", "--n", "4", "--se", "-1,0.5,3,0.5"]) == 1
    assert "could match --seg, --seed" in capsys.readouterr().err
    # a flag given such a value still fails
    assert main(["search", "--board", board, "--oracle", "-1"]) == 1
    assert "--oracle" in capsys.readouterr().err


# a side whose n x n float64 board is past numpy's largest array size
_HUGE = str(10**30)


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
    # finite, but past the quadrature grid's cap (and 8 A n overflows)
    (["spectrum", "--board", "BOARD", "--a", "1e308"], None, "radius 1e+308"),
    (["perturb", "--n", "4", "--trials", "5", "--seed", "-1"], None, "seed"),
    # not a number, or the wrong count of numbers
    (["verify-upper", "--ns", "4,x"], None, "--ns"),
    (["verify-lower", "--ns", "1.5"], None, "--ns"),
    (["tail", "--seg", "0,0.5,4,0.5", "--lambdas", "1,a"], None, "--lambdas"),
    (["spectrum", "--board", "BOARD", "--a", "x"], None, "--a"),
    (["project", "--board", "BOARD", "--theta", "1,2"], None, "--theta"),
    (["integrate", "--board", "BOARD", "--seg", "0,0,1"], None, "--seg"),
    # board sides checked before numpy allocates
    (["generate", "--kind", "constant", "--n", "-3"], None,
     "board side must be a positive integer, got -3"),
    (["generate", "--kind", "stripes", "--n", "-3"], None,
     "board side must be a positive integer, got -3"),
    (["generate", "--n", _HUGE], None, f"board side {_HUGE} is too large"),
    (["verify-upper", "--ns", _HUGE, "--trials", "1"], None, f"board side {_HUGE} is too large"),
    (["verify-lower", "--ns", _HUGE], None, f"board side {_HUGE} is too large"),
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


@pytest.mark.parametrize("raw, message", [
    ("+\u00e9+".encode("utf-8"), "line 3: illegal character '\u00e9' at column 2"),
    (b"\xff++", "line 3: illegal character '\\udcff' at column 1"),
], ids=["utf-8", "raw-byte"])
def test_non_ascii_board_byte_names_line_and_column(raw, message, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"needleboard v1\n3\n" + raw + b"\n+++\n+++\n")
    rc = main(["integrate", "--board", str(path), "--seg", "0,0,1,1"])
    assert rc == 1
    assert capsys.readouterr().err == f"needleboard: bad board file: {message}\n"


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["--version"]) == 0
    assert "needleboard" in capsys.readouterr().out


def _child_env(env=None):
    # the child imports the package from the source tree this process uses,
    # installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(needleboard.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **(env or {}))


def _cli(argv, env=None, module="needleboard.cli"):
    return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          env=_child_env(env))


def test_cli_import_loads_neither_fractions_nor_decimal():
    # Every CLI call pays its imports, and the benchmark's setup_s times a
    # fresh import: fractions (with decimal) costs 2-5 ms after numpy, so
    # geom imports it only for off-board segments.
    code = "import sys, needleboard.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_child_env())
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == b"[]\n"


def test_python_dash_m_needleboard_runs_the_cli(tmp_path):
    # The package runs as a module from its source tree, without an install.
    board = _board_file(tmp_path, make_random(5, 4))
    argv = ["spectrum", "--board", board, "--a", "4", "--theta", "0.7"]
    run = _cli(argv, module="needleboard")
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == _cli(argv).stdout
    bad = _cli(["spectrum", "--board", board, "--a", "nan"], module="needleboard")
    assert bad.returncode == 1


def test_monte_carlo_far_segment_writes_nothing_to_stderr(tmp_path):
    board = _board_file(tmp_path, make_parity(4))
    run = _cli(["integrate", "--board", board, "--seg", "0.5,0,0.5,1e100", "--mc", "1000"])
    assert run.returncode == 0
    assert run.stderr == b""


def test_threads_from_the_environment_give_the_one_thread_report(tmp_path):
    # criterion 10 compares --threads 1 and 4; this adds NEEDLEBOARD_THREADS
    board = _board_file(tmp_path, make_random(8, 11))
    commands = [
        ["search", "--board", board, "--angles", "128"],
        ["verify-upper", "--ns", "4,8", "--trials", "2", "--seed", "7"],
    ]
    for argv in commands:
        one = _cli(argv + ["--threads", "1"])
        via_env = _cli(argv, env={"NEEDLEBOARD_THREADS": "4"})
        for run in (one, via_env):
            assert run.returncode == 0, run.stderr.decode()
        assert one.stdout == via_env.stdout


def test_generate_offers_exactly_the_board_kinds():
    assert KINDS == ("constant", "parity", "stripes", "random")
    sub = next(a for a in cli._build_parser()._actions if a.dest == "subcommand")
    kind = next(a for a in sub.choices["generate"]._actions if a.dest == "kind")
    assert tuple(kind.choices) == KINDS


def test_generate_offers_exactly_the_stripe_axes():
    assert AXES == ("horizontal", "vertical")
    sub = next(a for a in cli._build_parser()._actions if a.dest == "subcommand")
    axis = next(a for a in sub.choices["generate"]._actions if a.dest == "axis")
    assert tuple(axis.choices) == AXES


def test_report_matrix_calls_parse_and_cover_every_subcommand():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "report_matrix.py")
    spec = importlib.util.spec_from_file_location("report_matrix", path)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    calls = matrix.calls()
    names = [name for name, _ in calls]
    assert len(set(names)) == len(names)
    parser = cli._build_parser()
    seen = {parser.parse_args(cli._glue_option_values(argv)).subcommand for _, argv in calls}
    assert seen == {
        "generate", "integrate", "project", "search", "certify", "spectrum", "tail",
        "verify-lower", "verify-upper", "perturb",
    }
