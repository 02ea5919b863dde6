"""Write one report file per call of a fixed, seeded list of CLI calls.

    python scripts/report_matrix.py OUTDIR

Runs every subcommand in process, against the package in this checkout's
src/, with OUTDIR as the working directory: board paths in the reports are
relative, so the matrices of two checkouts compare with ``diff -r``.
NAME.out holds a call's stdout.  NAME.err is written only for a call that
exits nonzero or writes to stderr, and holds the exit code and stderr.
Board files land in OUTDIR/boards.  A run takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

NS = (1, 2, 8, 16, 32, 64)
THETAS = (("0.7", "0.7"), ("0", "0"), ("pi2", repr(math.pi / 2)))


def calls() -> list[tuple[str, list[str]]]:
    """(name, argv) of every call, in run order; boards are written first."""
    out = []
    boards = {n: f"boards/random-{n}.txt" for n in NS}
    for n in NS:
        out.append((f"generate-random-{n}",
                    ["generate", "--n", str(n), "--seed", str(n), "--out", boards[n]]))
    for kind in ("constant", "parity", "stripes"):
        out.append((f"generate-{kind}-8", ["generate", "--n", "8", "--kind", kind]))
    out.append(("generate-constant-minus-8",
                ["generate", "--n", "8", "--kind", "constant", "--value", "-1"]))
    # tie-heavy boards, where the empty prefix ties and the search's
    # witness is the board entry
    tied = {}
    for name, kind in (("constant", ["constant"]), ("parity", ["parity"]),
                       ("stripes", ["stripes"]),
                       ("stripes-vertical", ["stripes", "--axis", "vertical"])):
        tied[name] = f"boards/{name}-8.txt"
        out.append((f"generate-{name}-8-file",
                    ["generate", "--n", "8", "--kind", *kind, "--out", tied[name]]))
    for n, board in boards.items():
        half = repr(n / 2)
        for tag, seg in (("row", f"0,{half},{n},{half}"),
                         ("off", f"-1,0.3,{n + 1},{repr(n - 0.3)}")):
            out.append((f"integrate-{tag}-{n}", ["integrate", "--board", board, f"--seg={seg}"]))
        for tag, theta in THETAS:
            out.append((f"project-{tag}-{n}", ["project", "--board", board, "--theta", theta]))
            # A = 4 and 16 put every quadrature sample on a binary fraction;
            # at 3.3 the samples round, though none comes within 2/G^2
            # (relative) of the disk's circle on a G-sample axis.
            for a in ("4", "16", "3.3"):
                out.append((f"spectrum-a{a}-{tag}-{n}",
                            ["spectrum", "--board", board, "--a", a, "--theta", theta]))
        # off-axis profiles past pi/2, and next to an axis, where the
        # profile's slope is about 1/theta
        for theta in ("2.0", "1e-6"):
            out.append((f"project-{theta}-{n}", ["project", "--board", board, "--theta", theta]))
        out.append((f"spectrum-default-{n}", ["spectrum", "--board", board]))
        out.append((f"certify-{n}", ["certify", "--board", board]))
        budget = ["--angles", "256"] if n == 64 else []
        out.append((f"search-{n}", ["search", "--board", board, *budget]))
    for name, board in tied.items():
        out.append((f"search-{name}-8", ["search", "--board", board]))
    out += [
        ("integrate-mc-8", ["integrate", "--board", boards[8], "--seg", "0.5,0,7.5,8",
                            "--mc", "1000"]),
        ("spectrum-a1e-100-8", ["spectrum", "--board", boards[8], "--a", "1e-100"]),
        ("spectrum-a500-8", ["spectrum", "--board", boards[8], "--a", "500"]),
        ("project-csv-8", ["project", "--board", boards[8], "--theta", "0.7",
                           "--format", "csv"]),
        ("search-oracle-8", ["search", "--board", boards[8], "--oracle",
                             "--svg", "search-oracle-8.svg"]),
        ("tail-8", ["tail", "--n", "8", "--seg", "0,0.5,8,7.5", "--trials", "2000",
                    "--seed", "5"]),
        ("tail-csv-8", ["tail", "--n", "8", "--seg", "0,0.5,8,7.5", "--trials", "500",
                        "--seed", "6", "--lambdas", "0.5,1,2", "--format", "csv"]),
        ("integrate-abbrev-minus-8", ["integrate", "--board", boards[8],
                                      "--se", "-1,0.3,9,7.7"]),
        ("tail-lambdas-minus-8", ["tail", "--n", "8", "--seg", "0,0.5,8,7.5", "--trials",
                                  "500", "--seed", "6", "--lambdas", "-0.5,1"]),
        ("verify-lower", ["verify-lower", "--ns", "4,8"]),
        ("verify-lower-csv", ["verify-lower", "--ns", "4", "--format", "csv"]),
        ("verify-lower-stripes-random", ["verify-lower", "--ns", "3",
                                         "--fixtures", "stripes,random:3"]),
        ("verify-upper", ["verify-upper", "--ns", "4,8", "--trials", "2", "--seed", "7"]),
        ("verify-upper-csv", ["verify-upper", "--ns", "6", "--trials", "2", "--seed", "8",
                              "--format", "csv"]),
        # past about n = 90 an orbit's boards no longer fit one kernel stack
        ("verify-upper-96", ["verify-upper", "--ns", "96", "--trials", "1", "--seed", "9"]),
        ("perturb", ["perturb", "--n", "8", "--trials", "200", "--seed", "3"]),
    ]
    return out


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1:
        sys.stderr.write("usage: python scripts/report_matrix.py OUTDIR\n")
        return 2
    os.makedirs(os.path.join(args[0], "boards"), exist_ok=True)
    sys.path.insert(0, SRC)
    from needleboard import cli

    os.chdir(args[0])
    for name, call in calls():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(call)
        with open(f"{name}.out", "w", encoding="utf-8", newline="") as fh:
            fh.write(out.getvalue())
        if rc or err.getvalue():
            with open(f"{name}.err", "w", encoding="utf-8", newline="") as fh:
                fh.write(f"exit {rc}\n{err.getvalue()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
