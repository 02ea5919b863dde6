"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints one verdict line so a log scan shows per-criterion status.
Runtime caps are asserted where the check is a calibrated workload.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np

import needleboard
from needleboard import (
    Direction,
    Segment,
    best_chord,
    best_segment,
    brute_force,
    cell_crossings,
    hoeffding_tail,
    integrate,
    integrate_mc,
    interval_profile,
    lower_bound_scan,
    make_constant,
    make_parity,
    make_random,
    make_stripes,
    perturbation_check,
    slice_residual,
    tail_energy,
    upper_bound_scan,
)

# Largest A * tail / total observed when the bound was first measured: 0.3989
# (parity n=32, quadrature oracle); frozen with headroom, never retuned.
DECAY_RATIO_BOUND = 0.45


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _fixtures(n: int):
    yield make_constant(n, +1)
    yield make_parity(n)
    yield make_stripes(n, "horizontal")
    for seed in range(5):
        yield make_random(n, seed)


def test_criterion_01_scan_matches_exhaustive_oracle():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 6):
        for c in _fixtures(n):
            rep = brute_force(c)
            _, vc = best_chord(c, angles=2048)
            _, vs = best_segment(c, angles=2048)
            worst = max(worst, abs(vc - rep.best_chord[1]), abs(vs - rep.best_segment[1]))
    elapsed = time.perf_counter() - start
    _verdict(1, "scan matches oracle", worst <= 1e-9 and elapsed < 60.0,
             f"worst gap {worst:.3g}, {elapsed:.1f}s")


def test_criterion_02_analytic_fixture_values():
    worst = "all floors met"
    ok = True
    for n in (2, 4, 8):
        _, v = best_chord(make_constant(n, +1), angles=64)
        if abs(v - n * math.sqrt(2.0)) > 1e-9:
            ok, worst = False, f"constant {n}: chord {v}"
    for n in range(2, 33, 2):
        _, v = best_segment(make_parity(n), angles=64)
        if v < n * math.sqrt(2.0) - 1e-9:
            ok, worst = False, f"parity {n}: segment {v}"
    for n in (2, 4, 8, 16, 32):
        _, v = best_segment(make_stripes(n, "horizontal"), angles=64)
        if v < n - 1e-9:
            ok, worst = False, f"stripes {n}: segment {v}"
    _verdict(2, "analytic fixture values", ok, worst)


def test_criterion_03_certificate_soundness():
    start = time.perf_counter()
    rows = lower_bound_scan(
        ("constant", "parity", "stripes", "random:0", "random:1"), (2, 4, 8, 16, 32)
    )
    elapsed = time.perf_counter() - start
    sound = all(0.0 < r.certificate <= r.best_chord_value for r in rows)
    slack = min(r.best_chord_value - r.certificate for r in rows)
    _verdict(3, "certificate soundness", sound and elapsed < 300.0,
             f"{len(rows)} rows, min slack {slack:.3f}, {elapsed:.1f}s")


def test_criterion_04_growth_exponent_window():
    start = time.perf_counter()
    rep = upper_bound_scan((8, 16, 32, 64, 128), trials=10, seed=0)
    elapsed = time.perf_counter() - start
    growth = max(b / a for a, b in zip(rep.constants, rep.constants[1:]))
    ok = 0.40 <= rep.exponent <= 0.65 and growth < 2.0 and elapsed < 600.0
    _verdict(4, "growth exponent window", ok,
             f"exponent {rep.exponent:.4f}, max constant growth {growth:.3f}, {elapsed:.0f}s")


def test_criterion_05_concentration_envelope():
    start = time.perf_counter()
    te = hoeffding_tail(Segment((0.0, 0.0), (16.0, 16.0)), 16, trials=100_000,
                        seed=0, lambdas=(1.0, 2.0, 3.0))
    elapsed = time.perf_counter() - start
    margins = [te.envelope(lam) + te.allowance(k) - te.frequencies[k]
               for k, lam in enumerate(te.lambdas)]
    _verdict(5, "concentration envelope", min(margins) >= 0.0 and elapsed < 120.0,
             f"min margin {min(margins):.4f}, {elapsed:.1f}s")


def test_criterion_06_projection_transform_agreement():
    rng = np.random.default_rng(6)
    grid = [0.25 * k for k in range(-32, 33)]
    worst = 0.0
    ok = True
    for n in (2, 4, 8, 16):
        c = make_random(n, n)
        for theta in rng.uniform(0.0, math.pi, 20):
            r = slice_residual(c, interval_profile(c, Direction(float(theta))), grid)
            worst = max(worst, r / (n * n))
            ok = ok and r <= 1e-6 * n * n
    _verdict(6, "projection transform agreement", ok,
             f"worst residual/n^2 {worst:.3g}")


def test_criterion_07_energy_split_and_decay():
    worst_ident = 0.0
    worst_ratio = 0.0
    for n in (4, 8, 16):
        for c in _fixtures(n):
            for a in (4.0, 8.0, 16.0):
                rep = tail_energy(c, a)
                worst_ident = max(
                    worst_ident,
                    abs(rep.disk_energy + rep.tail - rep.total) / rep.total,
                )
                worst_ratio = max(worst_ratio, a * rep.tail / rep.total)
    ok = worst_ident <= 1e-3 and worst_ratio <= DECAY_RATIO_BOUND
    _verdict(7, "energy split and decay", ok,
             f"worst identity {worst_ident:.3g}, worst A*tail/total {worst_ratio:.4f}")


def _clip_length(seg: Segment, n: int) -> float:
    # Liang-Barsky, independent of the crossing walk
    dx = seg.b[0] - seg.a[0]
    dy = seg.b[1] - seg.a[1]
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, seg.a[0]), (dx, n - seg.a[0]), (-dy, seg.a[1]), (dy, n - seg.a[1])):
        if p == 0.0:
            if q < 0.0:
                return 0.0
            continue
        t = q / p
        if p < 0.0:
            t0 = max(t0, t)
        else:
            t1 = min(t1, t)
    return max(0.0, t1 - t0) * math.hypot(dx, dy)


def test_criterion_08_geometry_exactness():
    rng = np.random.default_rng(8)
    worst_rel = 0.0
    for _ in range(10_000):
        a, b = rng.uniform(-2.0, 18.0, (2, 2))
        seg = Segment((a[0], a[1]), (b[0], b[1]))
        covered = sum(e.length for e in cell_crossings(seg, 16))
        clipped = _clip_length(seg, 16)
        gap = abs(covered - clipped)
        worst_rel = max(worst_rel, gap / clipped if clipped > 0.0 else gap)
    worst_mc = 0.0
    for k in range(100):
        c = make_random(16, k)
        a, b = rng.uniform(-2.0, 18.0, (2, 2))
        seg = Segment((a[0], a[1]), (b[0], b[1]))
        worst_mc = max(worst_mc,
                       abs(integrate(c, seg) - integrate_mc(c, seg, 10_000)) / seg.length())
    ok = worst_rel <= 1e-12 and worst_mc <= 1e-2
    _verdict(8, "geometry exactness", ok,
             f"worst length rel {worst_rel:.3g}, worst mc/|s| {worst_mc:.3g}")


def test_criterion_09_snap_stability():
    rep = perturbation_check(8, 1000)
    branch_max = max(rep.generic_max, rep.strip_max, rep.split_max)
    _verdict(9, "snap stability", branch_max <= 1.0,
             f"generic {rep.generic_max:.3g}, strip {rep.strip_max:.3g}, "
             f"split {rep.split_max:.3g}")


def _cli(argv):
    # the child imports the package from the source tree this process uses
    src = os.path.dirname(os.path.dirname(os.path.abspath(needleboard.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "needleboard.cli", *argv],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=path))


def test_criterion_10_cli_determinism(tmp_path):
    board = str(tmp_path / "board.txt")
    gen = _cli(["generate", "--n", "8", "--kind", "random", "--seed", "11",
                "--out", board])
    assert gen.returncode == 0, gen.stderr.decode()
    commands = [
        ["search", "--board", board, "--angles", "128"],
        ["verify-upper", "--ns", "8,16", "--trials", "3", "--seed", "0"],
        ["tail", "--n", "8", "--seg", "0,0,8,8", "--trials", "2000", "--seed", "5"],
        ["perturb", "--n", "6", "--trials", "100"],
    ]
    ok = True
    note = "all byte-identical"
    for argv in commands:
        runs = [_cli(argv + ["--threads", "1"]), _cli(argv + ["--threads", "1"]),
                _cli(argv + ["--threads", "4"])]
        if any(r.returncode != 0 for r in runs):
            ok, note = False, f"{argv[0]}: nonzero exit"
            break
        if not (runs[0].stdout == runs[1].stdout == runs[2].stdout):
            ok, note = False, f"{argv[0]}: outputs differ"
            break
    _verdict(10, "cli determinism", ok, note)
