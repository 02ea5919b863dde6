"""Command-line front end.

Every subcommand maps to one library operation and emits a machine-readable
report.  JSON reports share one envelope: schema tag, package version, the
full parsed configuration, and the result.  Exit codes: 0 success, 1 usage
or input errors, 2 computation-contract failures (a certificate exceeding
the found maximum would be a bug, not a usage problem).

Reports are reproducible byte for byte for a fixed command line: seeds are
explicit, reductions are index-ordered, and thread counts never change
results (see the search module's concurrency contract).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

from . import __version__
from .board import (
    BoardFormatError,
    Coloring,
    make_constant,
    make_parity,
    make_random,
    make_stripes,
    read_text,
    write_text,
)
from .geom import Segment, cell_crossings, integrate, integrate_mc
from .radon import Chord, Direction, project
from .search import best_chord, brute_force, scan_report
from .spectral import certified_lower_bound, line_energy, slice_residual, tail_energy
from .verify import (
    hoeffding_tail,
    lower_bound_scan,
    lower_scan_angles,
    perturbation_check,
    upper_bound_scan,
)

_SCHEMA = "needleboard/1"
_THREAD_CAP = 256  # fixed upper bound on worker threads, whatever the machine


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _segment_arg(text: str) -> Segment:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"segment {text!r} must be four comma-separated numbers ax,ay,bx,by"
        )
    try:
        ax, ay, bx, by = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"segment {text!r} has a non-numeric part")
    if not all(math.isfinite(v) for v in (ax, ay, bx, by)):
        raise argparse.ArgumentTypeError(f"segment {text!r} has a non-finite part")
    return Segment((ax, ay), (bx, by))


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= _THREAD_CAP:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer of at most {_THREAD_CAP}"
        )
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _float_list_arg(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated number list")
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"{text!r} has a non-finite number")
    return values


def _int_list_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated integer list")


def _read_board(path: str) -> Coloring:
    with open(path, "r", encoding="ascii", newline="") as fh:
        return read_text(fh)


def _config_dict(args: argparse.Namespace) -> dict:
    # threads is a resource limit, not configuration: results never depend
    # on it, and reports must be byte-identical across thread counts
    out = {}
    for key, value in vars(args).items():
        if key in ("func", "threads"):
            continue
        if isinstance(value, Segment):
            value = [value.a[0], value.a[1], value.b[0], value.b[1]]
        out[key] = value
    return out


def _write_text_out(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, result) -> None:
    doc = {
        "schema": _SCHEMA,
        "version": __version__,
        "config": _config_dict(args),
        "result": result,
    }
    _write_text_out(args, json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _emit_csv(args: argparse.Namespace, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text_out(args, buf.getvalue())


def _chord_dict(ch: Chord, value: float) -> dict:
    return {"theta": ch.direction.theta, "t": ch.t, "value": value}


def _segment_dict(seg: Segment, value: float | None = None) -> dict:
    out = {
        "ax": seg.a[0], "ay": seg.a[1], "bx": seg.b[0], "by": seg.b[1],
        "length": seg.length(),
    }
    if value is not None:
        out["value"] = value
    return out


def _svg_board(c: Coloring, seg: Segment | None) -> str:
    # checker heatmap with the winning probe overdrawn; board y points up,
    # svg y points down
    cell = 32
    pad = 8
    side = c.n * cell + 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
        f'viewBox="0 0 {side} {side}">',
        f'<rect width="{side}" height="{side}" fill="#ffffff"/>',
    ]
    for i in range(c.n):
        for j in range(c.n):
            fill = "#e8e8e8" if c.cells[i, j] > 0 else "#404040"
            x = pad + i * cell
            y = pad + (c.n - 1 - j) * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}"/>'
            )
    parts.append(
        f'<rect x="{pad}" y="{pad}" width="{c.n * cell}" height="{c.n * cell}" '
        f'fill="none" stroke="#808080" stroke-width="1"/>'
    )
    if seg is not None:
        x1 = pad + seg.a[0] * cell
        y1 = pad + (c.n - seg.a[1]) * cell
        x2 = pad + seg.b[0] * cell
        y2 = pad + (c.n - seg.b[1]) * cell
        parts.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="#d62728" stroke-width="3" stroke-linecap="round"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_generate(args) -> int:
    if args.kind == "constant":
        c = make_constant(args.n, args.value)
    elif args.kind == "parity":
        c = make_parity(args.n)
    elif args.kind == "stripes":
        c = make_stripes(args.n, args.axis)
    else:
        c = make_random(args.n, args.seed)
    buf = io.StringIO()
    write_text(c, buf)
    _write_text_out(args, buf.getvalue())
    return 0


def _cmd_integrate(args) -> int:
    c = _read_board(args.board)
    value = integrate(c, args.seg)
    crossings = cell_crossings(args.seg, c.n)
    result = {
        "value": value,
        "crossings": len(crossings),
        "covered_length": crossings.total_length(),
    }
    if args.mc:
        result["mc_value"] = integrate_mc(c, args.seg, args.mc)
        result["mc_samples"] = args.mc
    _emit_json(args, result)
    return 0


def _cmd_project(args) -> int:
    c = _read_board(args.board)
    prof = project(c, Direction(args.theta))
    pairs = list(zip(prof.breakpoints.tolist(), prof.values.tolist()))
    if args.format == "csv":
        _emit_csv(args, ["t", "value"], [[t, v] for t, v in pairs])
    else:
        _emit_json(args, {
            "theta": prof.direction.theta,
            "breakpoints": [t for t, _ in pairs],
            "values": [v for _, v in pairs],
        })
    return 0


def _report_dict(rep) -> dict:
    ch, vc = rep.best_chord
    seg, vs = rep.best_segment
    return {
        "n": rep.n,
        "best_chord": _chord_dict(ch, vc),
        "best_segment": _segment_dict(seg, vs),
        "strategy": asdict(rep.strategy),
        "ratio_sqrt_n": rep.ratio_sqrt_n,
        "ratio_sqrt_n_log_n": rep.ratio_sqrt_n_log_n,
    }


def _cmd_search(args) -> int:
    c = _read_board(args.board)
    if args.oracle:
        rep = brute_force(c)
    else:
        rep = scan_report(c, angles=args.angles, threads=args.threads)
    _emit_json(args, _report_dict(rep))
    if args.svg:
        with open(args.svg, "w", encoding="ascii", newline="") as fh:
            fh.write(_svg_board(c, rep.best_segment[0]))
    return 0


def _cmd_certify(args) -> int:
    c = _read_board(args.board)
    bound, radius = certified_lower_bound(c)
    angles = lower_scan_angles(c.n)
    ch, vc = best_chord(c, angles=angles, threads=args.threads)
    _emit_json(args, {
        "certificate": bound,
        "radius": radius,
        "best_chord": _chord_dict(ch, vc),
        "scan_angles": angles,
    })
    if vc < bound:
        sys.stderr.write(
            f"needleboard certify: contract failure: certificate {bound} "
            f"exceeds best chord value {vc}\n"
        )
        return 2
    return 0


def _cmd_spectrum(args) -> int:
    c = _read_board(args.board)
    rep = tail_energy(c, args.a)
    result = {
        "total": rep.total,
        "a": rep.a,
        "disk_energy": rep.disk_energy,
        "tail": rep.tail,
        "ratio": rep.ratio,
        "grid": rep.grid,
    }
    if args.theta is not None:
        d = Direction(args.theta)
        grid = [k * 0.25 for k in range(-32, 33)]
        result["slice"] = {
            "theta": d.theta,
            "line_energy": line_energy(c, d),
            "residual": slice_residual(c, d, grid),
            "freq_window": 8.0,
        }
    _emit_json(args, result)
    return 0


def _cmd_tail(args) -> int:
    te = hoeffding_tail(args.seg, args.n, args.trials, args.seed, args.lambdas)
    rows = [
        [lam, te.frequencies[k], te.envelope(lam), te.allowance(k)]
        for k, lam in enumerate(te.lambdas)
    ]
    if args.format == "csv":
        _emit_csv(args, ["lambda", "frequency", "envelope", "allowance"], rows)
    else:
        _emit_json(args, {
            "n": te.n,
            "trials": te.trials,
            "seed": te.seed,
            "sigma": te.sigma,
            "segment": _segment_dict(te.segment),
            "rows": [
                {"lambda": r[0], "frequency": r[1], "envelope": r[2], "allowance": r[3]}
                for r in rows
            ],
        })
    return 0


def _cmd_verify_lower(args) -> int:
    rows = lower_bound_scan(args.fixtures.split(","), args.ns, threads=args.threads)
    if args.format == "csv":
        _emit_csv(
            args,
            ["fixture", "n", "best_chord", "ratio_sqrt_n", "certificate", "radius"],
            [[r.fixture, r.n, r.best_chord_value, r.ratio_sqrt_n, r.certificate, r.radius]
             for r in rows],
        )
    else:
        _emit_json(args, [asdict(r) for r in rows])
    return 0


def _cmd_verify_upper(args) -> int:
    rep = upper_bound_scan(
        args.ns, trials=args.trials, seed=args.seed, angles=args.angles,
        threads=args.threads,
    )
    if args.format == "csv":
        rows = []
        for n, used, row in zip(rep.n_values, rep.angles, rep.values):
            for t, v in enumerate(row, start=1):
                rows.append([n, t, used, v])
        _emit_csv(args, ["n", "trial", "angles", "value"], rows)
    else:
        _emit_json(args, {
            "n_values": list(rep.n_values),
            "trials": rep.trials,
            "seed": rep.seed,
            "angles": list(rep.angles),
            "values": [list(row) for row in rep.values],
            "exponent": rep.exponent,
            "constants": list(rep.constants),
        })
    return 0


def _cmd_perturb(args) -> int:
    rep = perturbation_check(args.n, args.trials, seed=args.seed)
    _emit_json(args, asdict(rep) | {"max_deviation": rep.max_deviation})
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="needleboard", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"needleboard {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def common(p, board=False):
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument(
            "--threads",
            type=_thread_count,
            default=None,
            help=f"direction-scan worker threads, 1 to {_THREAD_CAP}, default "
                 "$NEEDLEBOARD_THREADS or 1 (results are thread-count independent)",
        )
        if board:
            p.add_argument("--board", required=True, help="board text file")

    p = sub.add_parser("generate", help="write a board file")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--kind", choices=("constant", "parity", "stripes", "random"),
                   default="random")
    p.add_argument("--value", type=int, choices=(1, -1), default=1,
                   help="cell sign for --kind constant")
    p.add_argument("--axis", choices=("horizontal", "vertical"), default="horizontal",
                   help="stripe orientation for --kind stripes")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("integrate", help="integrate the coloring along a segment")
    common(p, board=True)
    p.add_argument("--seg", type=_segment_arg, required=True, metavar="AX,AY,BX,BY")
    p.add_argument("--mc", type=int, default=0, help="also report a midpoint-rule check")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("project", help="offset profile of a direction")
    common(p, board=True)
    p.add_argument("--theta", type=_finite_float, required=True,
                   help="direction angle, radians")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("search", help="maximize chord and segment discrepancy")
    common(p, board=True)
    p.add_argument("--angles", type=int, default=None,
                   help="direction budget: scan this many primitive lattice directions, "
                        "shortest first (default min(8 n^2, 200000), all of them "
                        "for n <= 405)")
    p.add_argument("--oracle", action="store_true",
                   help="use the exact lattice-direction oracle (n <= 16)")
    p.add_argument("--svg", help="also render board + best segment to this file")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("certify", help="certified lower bound vs found maximum")
    common(p, board=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("spectrum", help="frequency-disk energy split")
    common(p, board=True)
    p.add_argument("--a", type=_finite_float, default=8.0, help="disk radius")
    p.add_argument("--theta", type=_finite_float, default=None,
                   help="also report the slice residual for this direction")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("tail", help="empirical concentration of a segment integral")
    common(p)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--seg", type=_segment_arg, required=True, metavar="AX,AY,BX,BY")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambdas", type=_float_list_arg, default=(1.0, 2.0, 3.0))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("verify-lower", help="chord maxima vs certificates on fixtures")
    common(p)
    p.add_argument("--ns", type=_int_list_arg, default=(4, 8, 16))
    p.add_argument("--fixtures", default="constant,parity,stripes,random:0")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_verify_lower)

    p = sub.add_parser("verify-upper", help="best-segment scaling over random boards")
    common(p)
    p.add_argument("--ns", type=_int_list_arg, default=(8, 16, 32))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--angles", type=int, default=None,
                   help="direction budget per n (default min(8 n^2, 256))")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_verify_upper)

    p = sub.add_parser("perturb", help="integral stability under endpoint snapping")
    common(p)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_perturb)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.threads is None:
        try:
            args.threads = _thread_count(os.environ.get("NEEDLEBOARD_THREADS", "1"))
        except argparse.ArgumentTypeError as exc:
            sys.stderr.write(f"needleboard: NEEDLEBOARD_THREADS: {exc}\n")
            return 1
    try:
        return args.func(args)
    except BoardFormatError as exc:
        sys.stderr.write(f"needleboard: bad board file: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"needleboard: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"needleboard: {exc}\n")
        return 1
    except RuntimeError as exc:
        sys.stderr.write(f"needleboard: contract failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
