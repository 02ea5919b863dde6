"""needleboard benchmark: CLI jobs run in-process, back to back, one client.

Run from the repository root:

    python3 perfbench/run.py --workload search|scaling|spectrum \
        --seed N --seconds S --trace 0|1

Each job is one call to ``needleboard.cli.main(argv + ["--out", file])``,
the console script's entry point, so every layer runs as users run it.  A
round is the workload's fixed set of jobs; rounds run in a closed loop until
``--seconds`` have passed and at least COUNTED_ROUNDS rounds are done.
Inputs (board files, seeds) come from ``--seed`` alone.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it record the
environment and a summary that also names the figures not gated in
BENCHMARK.json (fail_frac and the result-quality ratios).  See README.md
for why each workload is there and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

COUNTED_ROUNDS = 4  # quality figures and work counts come from these rounds
ORACLE_ROUNDS = 1  # brute_force costs ~3x a search job, so only these are checked
SETUP_REPEATS = 7  # setup_s is the median of this many set-ups
POOL = 48  # input sets written in set-up; later rounds reuse them in order
SCALING_THREADS = 2  # matches nproc on the 2-core reference machine


class Job(NamedTuple):
    argv: list[str]
    board: object  # the Coloring the job reads, or None


class Round(NamedTuple):
    seed: int
    boards: list  # (n, Coloring, path) per board file


def _search_jobs(rnd: Round) -> list[Job]:
    return [Job(["search", "--board", path], c) for _, c, path in rnd.boards]


def _scaling_jobs(rnd: Round, threads: int = SCALING_THREADS) -> list[Job]:
    argv = ["verify-upper", "--ns", "32,64", "--trials", "1", "--seed", str(rnd.seed),
            "--threads", str(threads)]
    return [Job(argv, None)]


def _spectrum_jobs(rnd: Round) -> list[Job]:
    return [Job(["spectrum", "--board", path, "--a", "16", "--theta", "0.7"], c)
            for _, c, path in rnd.boards]


# name -> (board sides written per round, function making the round's jobs)
WORKLOADS = {
    "search": ((16,), _search_jobs),
    "scaling": ((), _scaling_jobs),
    "spectrum": ((32, 64), _spectrum_jobs),
}

# per-layer metric -> (span names, column): column 1 sums span
# durations, column 2 sums self times (duration minus child spans)
SEARCH_SPANS = ("search.scan_report", "search.best_chord", "search.best_segment")
WITNESS_SPANS = ("radon.max_chord_in_direction", "radon.max_segment_in_direction")
SPECTRAL_SPANS = ("spectral.tail_energy", "spectral.line_energy", "spectral.slice_residual")
SPAN_TIMES = {
    "search.kernel_s": (SEARCH_SPANS, 2),
    "search.witness_s": (WITNESS_SPANS, 1),
    "search.scan_report.s": (("search.scan_report",), 1),
    "search.best_segment.s": (("search.best_segment",), 1),
    "search.best_chord.s": (("search.best_chord",), 1),
    "radon.project.s": (("radon.project",), 1),
    "radon.max_segment_in_direction.s": (("radon.max_segment_in_direction",), 1),
    "radon.max_chord_in_direction.s": (("radon.max_chord_in_direction",), 1),
    "radon.breakpoint_offsets.s": (("radon.breakpoint_offsets",), 1),
    "geom.cell_crossings.s": (("geom.cell_crossings",), 1),
    "geom.integrate.s": (("geom.integrate",), 1),
    "spectral.tail_energy.s": (("spectral.tail_energy",), 1),
    "spectral.slice_residual.s": (("spectral.slice_residual",), 1),
    "spectral.line_energy.s": (("spectral.line_energy",), 1),
    "spectral.self_s": (SPECTRAL_SPANS, 2),
    "verify.upper_bound_scan.s": (("verify.upper_bound_scan",), 1),
    "verify.self_s": (("verify.upper_bound_scan",), 2),
    "board.read_text.s": (("board.read_text",), 1),
    "cli.self_s": (("cli.main",), 2),
}
SPAN_CALLS = ("radon.project", "radon.max_segment_in_direction",
              "radon.max_chord_in_direction", "geom.cell_crossings", "geom.integrate",
              "spectral.tail_energy")
WORK_COUNTS = {"search.directions": "count", "search.offsets": "count",
               "search.event_bytes": "B", "geom.crossings": "count",
               "spectral.grid": "count", "verify.trials": "count"}
# quality figure on the summary line -> its per-layer name in the traced run
QUALITY_LAYER = {"segment_ratio": "search.segment_ratio", "chord_ratio": "search.chord_ratio",
                 "slice_residual": "spectral.slice_residual_per_n2"}


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SPAN_TIMES}
    units.update({f"{name}.calls": "count" for name in SPAN_CALLS})
    units.update(WORK_COUNTS)
    units.update({name: "ratio" for name in QUALITY_LAYER.values()})
    units.update({"board.make_random.s": "s", "board.write_text.s": "s",
                  "trace.overhead_s": "s", "verify.speedup_t2": "x"})
    return units


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _hooks(nb):
    def offsets(counts, args, ts):
        n = args[0]
        counts["search.directions"] += 1
        counts["search.offsets"] += int(ts.size)
        # event temporaries of the vectorized scan: 2(n+1) float64 per offset
        counts["search.event_bytes"] += int(ts.size) * 2 * (n + 1) * 8

    def pieces(counts, args, crossings):
        counts["geom.crossings"] += len(crossings)

    def grid(counts, args, report):
        counts["spectral.grid"] += report.grid

    def trial(counts, args, result):
        counts["verify.trials"] += 1

    cli, search, radon, geom = nb.cli, nb.search, nb.radon, nb.geom
    spectral, verify = nb.spectral, nb.verify
    return [
        (cli, "read_text", "board.read_text", None),
        (cli, "scan_report", "search.scan_report", None),
        (cli, "tail_energy", "spectral.tail_energy", grid),
        (cli, "line_energy", "spectral.line_energy", None),
        (cli, "slice_residual", "spectral.slice_residual", None),
        (cli, "upper_bound_scan", "verify.upper_bound_scan", None),
        (search, "best_chord", "search.best_chord", None),
        (search, "best_segment", "search.best_segment", None),
        (search, "breakpoint_offsets", "radon.breakpoint_offsets", offsets),
        (search, "max_chord_in_direction", "radon.max_chord_in_direction", None),
        (search, "max_segment_in_direction", "radon.max_segment_in_direction", None),
        (verify, "best_segment", "search.best_segment", trial),
        (verify, "make_random", "board.make_random", None),
        (spectral, "project", "radon.project", None),
        (spectral, "integrate", "geom.integrate", None),
        (radon, "breakpoint_offsets", "radon.breakpoint_offsets", None),
        (radon, "integrate", "geom.integrate", None),
        (radon, "cell_crossings", "geom.cell_crossings", pieces),
        (geom, "cell_crossings", "geom.cell_crossings", pieces),
    ]


# ---------------------------------------------------------------- set-up

def _child_import_seconds() -> float:
    # Users pay the import on every CLI call, so time it in a fresh process.
    code = ("import time; t = time.perf_counter(); import needleboard; "
            "print(time.perf_counter() - t); print(needleboard.__file__)")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    seconds, origin = out.stdout.split()
    if not Path(origin).resolve().is_relative_to(SRC):
        raise RuntimeError(f"child imported needleboard from {origin}, not {SRC}")
    return float(seconds)


def set_up(nb, workload: str, seed: int, work: Path):
    """Write the input pool SETUP_REPEATS times; return rounds and timings."""
    sizes, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    seeds = [rng.randrange(1 << 31) for _ in range(POOL)]
    totals, gens, writes = [], [], []
    for _ in range(SETUP_REPEATS):
        t_import = _child_import_seconds()
        t_gen = t_write = 0.0
        rounds = []
        for r, s in enumerate(seeds):
            boards = []
            for n in sizes:
                t0 = time.perf_counter()
                c = nb.make_random(n, s)
                t1 = time.perf_counter()
                path = work / f"r{r}_n{n}.txt"
                with open(path, "w", encoding="ascii", newline="") as fh:
                    nb.write_text(c, fh)
                t2 = time.perf_counter()
                t_gen += t1 - t0
                t_write += t2 - t1
                boards.append((n, c, str(path)))
            rounds.append(Round(s, boards))
        totals.append(t_import + t_gen + t_write)
        gens.append(t_gen)
        writes.append(t_write)
    timing = {"setup_s": statistics.median(totals),
              "board.make_random.s": statistics.median(gens),
              "board.write_text.s": statistics.median(writes)}
    return rounds, timing


# ---------------------------------------------------------------- jobs

class Outcome(NamedTuple):
    job: Job
    seconds: float
    report: bytes | None  # None when the job exited nonzero or raised


def run_job(nb, job: Job, out: Path) -> Outcome:
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        rc = nb.cli.main(job.argv + ["--out", str(out)])
    except Exception:
        traceback.print_exc()
        rc = None
    seconds = time.perf_counter() - t0
    if rc != 0:
        sys.stderr.write(f"job {job.argv} exited with {rc}\n")
        return Outcome(job, seconds, None)
    return Outcome(job, seconds, out.read_bytes())


def check(nb, workload: str, outcome: Outcome, oracle: bool) -> dict:
    """Validate one report; return its result object or raise CheckFailed."""
    _require(outcome.report is not None, "no report (nonzero exit or exception)")
    doc = json.loads(outcome.report)
    _require(doc.get("schema") == "needleboard/1", f"schema {doc.get('schema')!r}")
    res = doc["result"]
    c = outcome.job.board
    if workload == "search":
        n = c.n
        tol = 1e-9 * n
        seg = res["best_segment"]
        witness = nb.Segment((seg["ax"], seg["ay"]), (seg["bx"], seg["by"]))
        got = abs(nb.integrate(c, witness))
        _require(abs(got - seg["value"]) <= tol,
                 f"segment witness integrates to {got}, report says {seg['value']}")
        ch = res["best_chord"]
        chord = nb.chord_segment(n, nb.Chord(nb.Direction(ch["theta"]), ch["t"]))
        got = abs(nb.integrate(c, chord))
        _require(abs(got - ch["value"]) <= tol,
                 f"chord witness integrates to {got}, report says {ch['value']}")
        if oracle:
            exact = nb.brute_force(c)
            _require(abs(exact.best_chord[1] - ch["value"]) <= tol,
                     f"best chord {ch['value']} != brute_force {exact.best_chord[1]}")
            _require(abs(exact.best_segment[1] - seg["value"]) <= tol,
                     f"best segment {seg['value']} != brute_force {exact.best_segment[1]}")
    elif workload == "scaling":
        ns, values = res["n_values"], res["values"]
        _require(ns == [32, 64], f"n_values {ns}")
        _require(len(values) == len(ns) and all(len(row) == res["trials"] for row in values),
                 f"values shape {[len(row) for row in values]}, "
                 f"expected {len(ns)} x {res['trials']}")
        for n, row in zip(ns, values):
            for v in row:
                _require(0.0 < v <= n * math.sqrt(2.0), f"value {v} outside (0, n sqrt 2] at n={n}")
    else:
        n = c.n
        gap = abs(res["disk_energy"] + res["tail"] - res["total"])
        _require(gap <= 1e-3 * res["total"], f"disk + tail misses total by {gap}")
        residual = res["slice"]["residual"]
        _require(residual <= 1e-6 * n * n, f"slice residual {residual} above 1e-6 n^2")
    return res


def quality(workload: str, results: list[tuple[Job, dict]]) -> dict[str, float]:
    """Result-quality figures (deterministic per seed) over checked reports."""
    if workload == "search":
        return {
            "segment_ratio": statistics.fmean(r["ratio_sqrt_n_log_n"] for _, r in results),
            "chord_ratio": statistics.fmean(
                r["best_chord"]["value"] / math.sqrt(r["n"]) for _, r in results),
        }
    if workload == "scaling":
        return {"segment_ratio": statistics.fmean(
            v / math.sqrt(n * math.log(n))
            for _, r in results for n, row in zip(r["n_values"], r["values"]) for v in row)}
    return {"slice_residual": max(r["slice"]["residual"] / job.board.n ** 2
                                  for job, r in results)}


# ---------------------------------------------------------------- environment

def _openblas(np) -> dict:
    info = {"openblas": None, "openblas_threads": None}
    try:
        info["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["openblas_threads"] = fn()
                return info
    return info


def environment(seed: int) -> dict:
    import numpy as np

    env = {"seed": seed, "nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor(),
           "python": platform.python_version(), "numpy": np.__version__}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            if level in ("2", "3"):
                env[f"l{level}"] = Path(index, "size").read_text().strip()
        except OSError:
            pass
    env.update(_openblas(np))
    return env


# ---------------------------------------------------------------- runs

def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "samples": len(values)}


def _work(rows: dict, counts) -> dict[str, int]:
    """Deterministic work of one traced pass: counters plus calls per span."""
    work = {f"{name}.calls": row[0] for name, row in rows.items()}
    work.update(counts)
    return work


class TracedPass(NamedTuple):
    seconds: float
    outcomes: list[Outcome]
    rows: dict[str, list]  # span name -> [calls, total s, self s]
    work: dict[str, int]


class Bench:
    """One benchmark run: closed loop of rounds, then output checks."""

    def __init__(self, nb, workload: str, seconds: float, trace: bool, work_dir: Path):
        self.nb = nb
        self.workload = workload
        self.make_jobs = WORKLOADS[workload][1]
        self.seconds = seconds
        self.out = work_dir / "report.json"
        self.tracer = Tracer(_hooks(nb)) if trace else None
        self.attempted = 0
        self.failed = 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        sys.stderr.write(f"check failed: {message}\n")

    def _plain(self, jobs: list[Job]) -> list[Outcome]:
        self.attempted += len(jobs)
        return [run_job(self.nb, job, self.out) for job in jobs]

    def _traced(self, jobs: list[Job]) -> TracedPass:
        self.attempted += len(jobs)
        outcomes = []
        with self.tracer.installed():
            for job in jobs:
                with self.tracer.span("cli.main"):
                    outcomes.append(run_job(self.nb, job, self.out))
        spans, counts = self.tracer.take()
        rows = summarize(spans)
        return TracedPass(sum(o.seconds for o in outcomes), outcomes, rows, _work(rows, counts))

    def run(self, rounds: list[Round], setup: dict) -> tuple[dict, dict]:
        """Return (summary, per-layer metrics); the latter is empty untraced."""
        plain: list[list[Outcome]] = []
        traced: list[TracedPass] = []
        start = time.perf_counter()
        while len(plain) < COUNTED_ROUNDS or time.perf_counter() - start < self.seconds:
            r = len(plain)
            jobs = self.make_jobs(rounds[r % len(rounds)])
            plain.append(self._plain(jobs))
            if self.tracer is None:
                continue
            traced.append(self._traced(jobs))
            for o, t in zip(plain[-1], traced[-1].outcomes):
                if t.report != o.report:
                    self._fail(f"traced report of {o.job.argv} differs from untraced")
            if r == 0 and self._traced(jobs).work != traced[0].work:
                self._fail("two traced passes over round 0 counted different work")

        results = []
        for r, outcomes in enumerate(plain):
            for outcome in outcomes:
                try:
                    res = check(self.nb, self.workload, outcome, oracle=r < ORACLE_ROUNDS)
                except (CheckFailed, KeyError, TypeError, ValueError) as exc:
                    self._fail(f"{outcome.job.argv}: {exc}")
                    continue
                if r < COUNTED_ROUNDS:
                    results.append((outcome.job, res))
        walls = [sum(o.seconds for o in outcomes) for outcomes in plain]
        summary = {"wall_s": _quartiles(walls), "rounds_s": walls, "setup_s": setup["setup_s"]}
        if results:
            summary.update(quality(self.workload, results))
        if self.tracer is None:
            return summary, {}
        return summary, self._layers(rounds, setup, walls, traced, summary)

    def _layers(self, rounds, setup, walls, traced: list[TracedPass], summary) -> dict:
        layers = {}
        for metric, (names, column) in SPAN_TIMES.items():
            layers[metric] = statistics.median(
                sum(p.rows.get(name, (0, 0.0, 0.0))[column] for name in names) for p in traced)
        # search and spectrum make boards in the set-up, scaling inside its jobs
        layers["board.make_random.s"] = setup["board.make_random.s"] + statistics.median(
            p.rows.get("board.make_random", (0, 0.0))[1] for p in traced)
        layers["board.write_text.s"] = setup["board.write_text.s"]
        work = sum((Counter(p.work) for p in traced[:COUNTED_ROUNDS]), Counter())
        for name in SPAN_CALLS:
            layers[f"{name}.calls"] = work.get(f"{name}.calls", 0)
        for name in WORK_COUNTS:
            layers[name] = work.get(name, 0)
        for name, layer in QUALITY_LAYER.items():
            layers[layer] = summary.get(name, 0.0)
        layers["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                                      - statistics.median(walls))
        layers["verify.speedup_t2"] = 0.0
        if self.workload == "scaling":
            # single-thread baseline: round 0's job again at --threads 1, over
            # the median two-thread round (one round alone is too noisy)
            single = self._plain(self.make_jobs(rounds[0], threads=1))
            if [o.report for o in single] != [o.report for o in traced[0].outcomes]:
                self._fail("scaling report differs between --threads 1 and 2")
            layers["verify.speedup_t2"] = (sum(o.seconds for o in single)
                                           / statistics.median(walls))
        return layers


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "needleboard" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no needleboard sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import needleboard as nb
    import needleboard.cli  # noqa: F401  (binds nb.cli)

    if not Path(nb.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"perfbench: imported needleboard from {nb.__file__}, not {SRC}\n")
        return 2

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        rounds, setup = set_up(nb, args.workload, args.seed, work_dir)
        bench = Bench(nb, args.workload, args.seconds, bool(args.trace), work_dir)
        summary, layers = bench.run(rounds, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    attempted, failed = bench.attempted, bench.failed
    summary["fail_frac"] = failed / attempted
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print("summary " + json.dumps({"workload": args.workload, **summary}, sort_keys=True))
    if args.trace:
        units = per_layer_units()
        metrics = {name: _metric(layers[name], units[name]) for name in sorted(units)}
    else:
        metrics = {"wall_s": _metric(summary["wall_s"]["median"], "s"),
                   "setup_s": _metric(setup["setup_s"], "s")}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
