"""Command-line front end.

Every subcommand maps to one library operation and emits a machine-readable
report.  JSON reports share one envelope: schema tag, package version, the
full parsed configuration, and the result.  Exit codes: 0 success, 1 usage
or input errors, 2 computation-contract failures (a certificate exceeding
the found maximum would be a bug, not a usage problem).

Reports are reproducible byte for byte for a fixed command line: seeds are
explicit and reductions are index-ordered.  The direction scan runs on one
thread; --threads and NEEDLEBOARD_THREADS are still parsed and checked, so
existing command lines keep their exit codes, but they change nothing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, astuple

from . import __version__
from .board import AXES, KINDS, BoardFormatError, Coloring, make_board, read_text, write_text
from .geom import Segment, cell_crossings, integrate, integrate_mc
from .radon import Chord, Direction, project
from .search import best_chord, brute_force, scan_report
from .spectral import (
    certified_lower_bound,
    interval_profile,
    line_energy,
    slice_residual,
    tail_energy,
)
from .verify import (
    hoeffding_tail,
    lower_bound_scan,
    lower_scan_angles,
    perturbation_check,
    upper_bound_scan,
)

_SCHEMA = "needleboard/1"
_THREAD_CAP = 256  # largest --threads / NEEDLEBOARD_THREADS value accepted


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _numbers(kind, count: int = 0):
    """argparse type: comma-separated `kind` values, as a tuple.

    With `count` set there must be exactly that many, and count=1 returns
    the bare value.  Each message quotes the token; argparse names the flag.
    """
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        parts = text.split(",")
        if count and len(parts) != count:
            raise argparse.ArgumentTypeError(
                f"{text!r}: expected {count} comma-separated values, got {len(parts)}"
            )
        values = []
        for part in parts:
            try:
                value = kind(part)
            except ValueError:
                raise argparse.ArgumentTypeError(f"{text!r}: {part!r} is not {noun}") from None
            # comparisons, not math.isfinite, which overflows on huge ints
            if not -math.inf < value < math.inf:
                raise argparse.ArgumentTypeError(f"{text!r}: {part!r} is not finite")
            values.append(value)
        return values[0] if count == 1 else tuple(values)

    return parse


def _segment_arg(text: str) -> Segment:
    ax, ay, bx, by = _numbers(float, 4)(text)
    return Segment((ax, ay), (bx, by))


def _glue_option_values(argv: list[str]) -> list[str]:
    # argparse reads a token that starts with "-" and is not a plain number
    # as an option, so "--seg -1,0.5,3,0.5" or "--lambdas -0.5,1" would lose
    # its value.  Every option but -h is long, so a token with one leading
    # "-" after "--option" is passed as "--option=-1,...", which parses the
    # same; a token that starts with "--" is still read as the next option.
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev
                and tok.startswith("-") and not tok.startswith("--") and tok != "-h"):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


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


def _read_board(path: str) -> Coloring:
    # Undecodable bytes become lone surrogates, so read_text names every
    # character outside the format by line and column, raw bytes included.
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        return read_text(fh)


def _config_dict(args: argparse.Namespace) -> dict:
    # threads is accepted but unused, so it is not configuration: reports
    # must be byte-identical across its values
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


def _emit(args: argparse.Namespace, result, header=(), rows=()) -> None:
    # the report: with --format csv, `header` and `rows`; otherwise
    # `result` in the JSON envelope
    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        doc = {
            "schema": _SCHEMA,
            "version": __version__,
            "config": _config_dict(args),
            "result": result,
        }
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _write_text_out(args, text)


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
    c = make_board(args.kind, args.n, seed=args.seed, value=args.value, axis=args.axis)
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
        "covered_length": float(sum(e.length for e in crossings)),
    }
    if args.mc:
        result["mc_value"] = integrate_mc(c, args.seg, args.mc)
        result["mc_samples"] = args.mc
    _emit(args, result)
    return 0


def _cmd_project(args) -> int:
    c = _read_board(args.board)
    prof = project(c, Direction(args.theta))
    ts, vs = prof.breakpoints.tolist(), prof.values.tolist()
    _emit(args, {"theta": prof.direction.theta, "breakpoints": ts, "values": vs},
          ["t", "value"], zip(ts, vs))
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
        rep = scan_report(c, angles=args.angles)
    # The SVG goes first: a path that cannot be written exits 1 before any
    # report reaches stdout or --out.  A report that cannot be written
    # takes the SVG with it, so a failed run leaves neither file.
    if args.svg:
        with open(args.svg, "w", encoding="ascii", newline="") as fh:
            fh.write(_svg_board(c, rep.best_segment[0]))
    try:
        _emit(args, _report_dict(rep))
    except Exception:
        if args.svg:
            os.remove(args.svg)
        raise
    return 0


def _cmd_certify(args) -> int:
    c = _read_board(args.board)
    bound, radius = certified_lower_bound(c)
    angles = lower_scan_angles(c.n)
    ch, vc = best_chord(c, angles=angles)
    _emit(args, {
        "certificate": bound,
        "radius": radius,
        "best_chord": _chord_dict(ch, vc),
        "scan_angles": angles,
    })
    if vc < bound:
        raise RuntimeError(f"certificate {bound} exceeds best chord value {vc}")
    return 0


def _cmd_spectrum(args) -> int:
    c = _read_board(args.board)
    result = asdict(tail_energy(c, args.a))
    if args.theta is not None:
        profile = interval_profile(c, Direction(args.theta))
        grid = [k * 0.25 for k in range(-32, 33)]
        result["slice"] = {
            "theta": profile.direction.theta,
            "line_energy": line_energy(profile),
            "residual": slice_residual(c, profile, grid),
            "freq_window": 8.0,
        }
    _emit(args, result)
    return 0


def _cmd_tail(args) -> int:
    te = hoeffding_tail(args.seg, args.n, args.trials, args.seed, args.lambdas)
    header = ["lambda", "frequency", "envelope", "allowance"]
    rows = [
        [lam, te.frequencies[k], te.envelope(lam), te.allowance(k)]
        for k, lam in enumerate(te.lambdas)
    ]
    _emit(args, {
        "n": te.n,
        "trials": te.trials,
        "seed": te.seed,
        "sigma": te.sigma,
        "segment": _segment_dict(te.segment),
        "rows": [dict(zip(header, row)) for row in rows],
    }, header, rows)
    return 0


def _cmd_verify_lower(args) -> int:
    rows = lower_bound_scan(args.fixtures.split(","), args.ns)
    _emit(args, [asdict(r) for r in rows],
          ["fixture", "n", "best_chord", "ratio_sqrt_n", "certificate", "radius"],
          map(astuple, rows))
    return 0


def _cmd_verify_upper(args) -> int:
    rep = upper_bound_scan(args.ns, trials=args.trials, seed=args.seed, angles=args.angles)
    rows = [
        [n, t, used, v]
        for n, used, row in zip(rep.n_values, rep.angles, rep.values)
        for t, v in enumerate(row, start=1)
    ]
    _emit(args, asdict(rep), ["n", "trial", "angles", "value"], rows)
    return 0


def _cmd_perturb(args) -> int:
    rep = perturbation_check(args.n, args.trials, seed=args.seed)
    _emit(args, asdict(rep) | {"max_deviation": rep.max_deviation})
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
            help=f"accepted for compatibility, 1 to {_THREAD_CAP}, default "
                 "$NEEDLEBOARD_THREADS or 1; the scan runs on one thread whatever "
                 "the value",
        )
        if board:
            p.add_argument("--board", required=True, help="board text file")

    p = sub.add_parser("generate", help="write a board file")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--kind", choices=KINDS, default="random")
    p.add_argument("--value", type=int, choices=(1, -1), default=1,
                   help="cell sign for --kind constant")
    p.add_argument("--axis", choices=AXES, default="horizontal",
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
    p.add_argument("--theta", type=_numbers(float, 1), required=True,
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
    p.add_argument("--a", type=_numbers(float, 1), default=8.0, help="disk radius")
    p.add_argument("--theta", type=_numbers(float, 1), default=None,
                   help="also report the slice residual for this direction")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("tail", help="empirical concentration of a segment integral")
    common(p)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--seg", type=_segment_arg, required=True, metavar="AX,AY,BX,BY")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambdas", type=_numbers(float), default=(1.0, 2.0, 3.0))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("verify-lower", help="chord maxima vs certificates on fixtures")
    common(p)
    p.add_argument("--ns", type=_numbers(int), default=(4, 8, 16))
    p.add_argument("--fixtures", default="constant,parity,stripes,random:0")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_verify_lower)

    p = sub.add_parser("verify-upper", help="best-segment scaling over random boards")
    common(p)
    p.add_argument("--ns", type=_numbers(int), default=(8, 16, 32))
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
        args = _build_parser().parse_args(
            _glue_option_values(sys.argv[1:] if argv is None else list(argv))
        )
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
    except MemoryError as exc:
        sys.stderr.write(f"needleboard: {args.subcommand}: out of memory: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
