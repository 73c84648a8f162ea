"""Command-line front end.

Subcommands: survey, rho, invphi, bounds, products, probe, squares, each
declared once with its renderer beside its flags.  Each writes a single
JSON value or a CSV table to stdout, or to the file named by --out PATH,
byte-identical across reruns with the same arguments.  Subcommand flags
must be spelled in full.  A config file of key=value lines may supply
defaults; explicit flags win.  A key the chosen subcommand does not take is
skipped, and an unknown key is an error.

Exit codes: 0 success, 2 invalid arguments or polynomial (an unreadable
config file or an unwritable --out path included), 3 computation errors
(range overflow, nontotient input, and the like).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, islice

from .bound_lab import bounds_summary, split_and_twisted
from .case_analysis import (
    _check_case_split, _csv_lines, _json_records, _sweep, ew_density_probe, square_divisor_count,
    threshold_T,
)
from .quad_poly import QuadPoly, rho
from .totient_range import inverse_totient

DEFAULT_A = 0.7604
T_FLOOR = 16.0

_CONFIG_KEYS = {
    "poly", "x", "t", "a", "delta", "bound", "d", "y", "k", "format", "out",
    "records", "allow-reducible",
}
_BOOL_FLAGS = {"records", "allow-reducible"}


def _poly_arg(text: str) -> QuadPoly:
    try:
        return QuadPoly.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_arg(valid: Callable[[int], bool], rule: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer") from None
        if not valid(n):
            raise argparse.ArgumentTypeError(rule)
        return n
    return parse


_positive_int = _int_arg(lambda n: n >= 1, "must be a positive integer")
_nonzero_int = _int_arg(bool, "must be nonzero")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("expected a finite number")
    return value


def _product_y(text: str) -> float:
    value = _finite_float(text)
    if value < 3:
        raise argparse.ArgumentTypeError("must be at least 3")
    return value


def _t_arg(text: str):
    if text.strip().lower() == "auto":
        return "auto"
    return _finite_float(text)


def _config_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quadtotient", add_help=False)
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="key=value lines supplying defaults for the subcommand flags",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadtotient",
        description="Totient values of integer quadratics: surveys, root counts, "
        "inverse totients, prime products, and solved exponent constants.",
        parents=[_config_parser()],
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-", help="output path, '-' for stdout")
    poly = argparse.ArgumentParser(add_help=False)
    poly.add_argument("--poly", type=_poly_arg, required=True, metavar="a,b,c")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, *parents) -> argparse.ArgumentParser:
        parser = sub.add_parser(name, help=help_text, parents=[*parents, out], allow_abbrev=False)
        parser.set_defaults(error=parser.error)  # reports with this subcommand's usage
        return parser

    p_survey = command("survey", "classify every n <= x and tally cases", poly)
    p_survey.add_argument("--x", type=_positive_int, required=True)
    p_survey.add_argument(
        "--T", type=_t_arg, default="auto", help="cutoff, or 'auto' (clamped to >= 16)"
    )
    p_survey.add_argument("--A", type=_finite_float, default=DEFAULT_A)
    p_survey.add_argument("--delta", type=_finite_float, default=0.0)
    p_survey.add_argument("--format", choices=("csv", "json"), default="json")
    p_survey.add_argument("--records", action="store_true", help="keep per-n records")
    p_survey.add_argument("--allow-reducible", action="store_true")
    p_survey.set_defaults(render=_survey)

    p_rho = command("rho", "root count of the quadratic mod k", poly)
    p_rho.add_argument("--k", type=_positive_int, required=True)
    p_rho.set_defaults(render=lambda args: _json_line(rho(args.poly, args.k)))

    p_inv = command("invphi", "all m with phi(m) = n")
    p_inv.add_argument("n", type=_positive_int)
    p_inv.set_defaults(render=lambda args: _json_line(inverse_totient(args.n).preimages))

    command("bounds", "solved exponent constants as JSON").set_defaults(render=_bounds)

    p_prod = command("products", "split and twisted prime products")
    p_prod.add_argument("--d", type=_nonzero_int, required=True)
    p_prod.add_argument("--y", type=_product_y, required=True)
    p_prod.set_defaults(render=_products)

    p_probe = command("probe", "density of n <= x with a prime p > T, p - 1 | P(n)", poly)
    p_probe.add_argument("--T", type=_finite_float, required=True)
    p_probe.add_argument("--x", type=_positive_int, required=True)
    p_probe.set_defaults(render=_probe)

    p_squares = command("squares", "count n <= x with a square divisor of P(n) above bound", poly)
    p_squares.add_argument("--x", type=_positive_int, required=True)
    p_squares.add_argument("--bound", type=_positive_int, required=True)
    p_squares.set_defaults(
        render=lambda args: _json_line(square_divisor_count(args.poly, args.x, args.bound))
    )

    return parser


def _read_config(path: str) -> list[str]:
    """Translate key=value lines into argv fragments (inserted after the subcommand)."""
    fragments: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower().replace("_", "-")
            # argparse reads a spaced --key=value it lacks as a positional; a path keeps spaces
            value = value.strip() if key == "out" else "".join(value.split())
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key: {key!r}")
            flag = "--" + ("T" if key == "t" else "A" if key == "a" else key)
            if key in _BOOL_FLAGS:
                if value.lower() in ("1", "true", "yes", "on"):
                    fragments.append(flag)
                elif value.lower() not in ("0", "false", "no", "off"):
                    raise ValueError(f"config key {key!r} expects a boolean, got {value!r}")
            else:  # one fragment, so that a value such as -1,0,-1 is not read as a flag
                fragments.append(f"{flag}={value}")
    return fragments


class _ArgumentError(ValueError):
    """A renderer's argument check failed before any work: exit 2."""


def _emit(text: str | Iterable[str], out: str) -> None:
    """Write a renderer's output: one string, or an iterable of its pieces,
    joined 4096 at a time (unbuffered, as under -u, stdout pays per write)."""
    pieces = iter([text] if isinstance(text, str) else text)
    chunks = map("".join, iter(lambda: list(islice(pieces, 4096)), []))
    if out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)


def _json_line(value, indent: int | None = None) -> str:
    if indent is None:
        return json.dumps(value, separators=(",", ":")) + "\n"
    return json.dumps(value, indent=indent) + "\n"


def main(argv: list[str] | None = None) -> int:
    # Read --config first, wherever it stands, and put its values right after
    # the subcommand, so that the flags the user typed after them win.
    config, argv = _config_parser().parse_known_args(argv)
    fragments: list[str] = []
    if config.config is not None:
        try:
            fragments = _read_config(config.config)
        except (OSError, ValueError) as exc:
            return _fail(exc, 2)
        argv[1:1] = fragments
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    # skip the config values the subcommand does not take, one per fragment,
    # so that a typed copy of a fragment is still refused
    for fragment in fragments:
        if fragment in extras:
            extras.remove(fragment)
    if extras:
        args.error("unrecognized arguments: " + " ".join(extras))

    try:
        text = args.render(args)
    except _ArgumentError as exc:
        return _fail(exc, 2)
    except (ValueError, OverflowError, ArithmeticError) as exc:
        return _fail(exc, 3)
    try:
        _emit(text, args.out)
    except OSError as exc:
        return _fail(exc, 2)
    return 0


def _fail(error: object, code: int) -> int:
    print(f"error: {error}", file=sys.stderr)
    return code


def _survey(args: argparse.Namespace) -> str | Iterator[str]:
    # the case split's rules are argument checks: fail them before any work
    try:
        t_cut = args.T
        if t_cut == "auto":  # threshold_T checks A and delta; an OverflowError exits 3
            scale = threshold_T(max(args.x, 16), args.A, args.delta)  # it needs x > e^e
            t_cut = max(T_FLOOR, scale) if args.x >= 16 else T_FLOOR
        _check_case_split(args.poly, t_cut, args.A)
    except ValueError as exc:
        raise _ArgumentError(exc) from None
    if not args.allow_reducible and not args.poly.is_irreducible():
        raise _ArgumentError(
            f"{args.poly.to_text()} is reducible (square discriminant "
            f"{args.poly.discriminant()}); pass --allow-reducible to proceed"
        )
    # the sweep ends here, before any byte is written; only NotTotient rows are made later
    report, found = _sweep(args.poly, args.x, t_cut, args.A, args.records or args.format == "csv")
    if args.format == "csv":  # the bytes of report.to_csv()
        return _csv_lines(args.poly, args.x, found)
    summary = _json_line(report.summary_dict(), indent=2)
    if not args.records:
        return summary
    # the bytes of json.dumps(indent=2) with the records listed last, made
    # one row at a time: no dict per row, and no document held whole
    head = summary[: -len("\n}\n")] + ',\n  "records": [\n'
    return chain((head,), _json_records(args.poly, args.x, found), ("\n  ]\n}\n",))


def _bounds(args: argparse.Namespace) -> str:
    summary = {key: float(f"{value:.12g}") for key, value in bounds_summary().items()}
    return _json_line(summary, indent=2)


def _products(args: argparse.Namespace) -> str:
    split, twisted = split_and_twisted(args.d, args.y)
    result = {"d": args.d, "y": args.y, "split": split, "twisted": twisted}
    return _json_line(result, indent=2)


def _probe(args: argparse.Namespace) -> str:
    frac = ew_density_probe(args.poly, args.T, args.x)
    density = {
        "count": int(frac * args.x),
        "total": args.x,
        "density": f"{frac.numerator}/{frac.denominator}",
        "value": frac.numerator / frac.denominator,
    }
    return _json_line(density, indent=2)


def run() -> None:
    """Console entry point."""
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
