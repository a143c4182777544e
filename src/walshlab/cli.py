"""Command line driver: flat config files, CSV/JSON reporting, exit codes.

Subcommands
    transform   Walsh spectrum of a function spec (or inverse synthesis)
    kernels     Dirichlet kernel values, or a weighted block kernel sum
    mean        Nörlund mean of a function spec
    kappa       kernel floor constants and positivity thresholds per family
    lemma2      kernel lower bound check over a range of block exponents
    diverge     the blow-up experiment from a config file
    monitor     bounded-regime ratios for a function and weight family

Each subcommand takes only the flags it reads, spelled out in full, and
argparse refuses any other with exit 2.  Every one takes the output flags
--out, --format and --full-precision; --n goes with the grid commands
(transform, kernels, mean, monitor), --seed only with --f rand, and
kernels --family only with --block.  A diverge config holds the whole
experiment and its flags only the output.

Exit codes: 0 success, 2 config error (invalid input, an overflow of float64,
or an --out path that cannot be written), 3 assertion failure, 4 resource
cap.  All floats are printed with 9 significant digits unless
--full-precision asks for the shortest round-tripping form; CSV and JSON
runs of the same command carry identical numeric values.  Run constants
and summary verdicts go to stderr so the data stream stays
machine-readable.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from typing import Any, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .counterexample import (
    THEORY_CONSTANT_FORMULA,
    CounterexampleConfig,
    bounded_case_monitor_in_place,
    divergence_experiment,
)
from .dyadic import MAX_RESOLUTION_BITS, DyadicFunction, Resolution
from .errors import ConfigError, PreconditionError, ResourceCapError, WalshLabError
from .kernel_checks import block_kernel, kernel_lower_bound_check
from .transform import analyze_in_place, dirichlet_kernel, synthesize_in_place, walsh_function
from .weights import (
    cesaro_kappa_threshold,
    kappa,
    norlund_mean_in_place,
    parse_family,
    ualpha_kappa_threshold,
)

__all__ = [
    "main",
    "parse_config_text",
    "serialize_config",
]


def _float_text(v: float, full: bool) -> str:
    # the one rounding both encoders share, so CSV and JSON agree exactly
    return repr(float(v)) if full else f"{v:.9g}"


def _csv_cell(v: Any, full: bool) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _float_text(v, full)
    if v is None:
        return ""
    return str(v)


def _json_cell(v: Any, full: bool) -> Any:
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return float(_float_text(v, full))
    if isinstance(v, (list, tuple)):
        return [_json_cell(item, full) for item in v]
    return str(v)


_FORMATS = ("csv", "json")

# rows formatted and written at a time, so the whole output text is never held
_EMIT_ROWS = 1 << 12


def _json_number(text: str) -> str:
    """json.dumps of float(text), for a "%.9g" text with no '.' or with an
    exponent, "nan" and "inf" among them.  No two decimals of at most 15
    significant digits round to one normal double, so repr writes the
    text's own digits, and only its layout can differ: "1.0" for "1", and
    fixed notation for decimal exponents 9..15.  A subnormal carries fewer
    digits, so below 1e-307 repr is asked."""
    _, e, exponent = text.partition("e")
    if not e:
        # "nan", "inf" and "-inf" are spelled by json itself
        return text + ".0" if text[-1].isdigit() else json.dumps(float(text))
    if 9 <= int(exponent) <= 15 or int(exponent) < -307:
        return repr(float(text))
    return text


def _chunk_text(chunk: Sequence[Sequence[Any]], columns: Sequence[str], fmt: str,
                full: bool) -> str | None:
    """One chunk of a table as text, given one sequence of cells per
    column, made by one % over a row template repeated once per row; each
    column fills every width-th slot of the flat argument list.  A range
    or an all-int column is %d, and a float64 array or an all-float
    column %.9g or %r: numerals CSV never quotes.  Only a list or tuple
    column has its cells' types read.  A 9-digit JSON float is %s of its
    "%.9g" text, laid out as json.dumps lays out the float of that text.
    In JSON any other column is %s of json.dumps of _json_cell; a CSV
    chunk with one is None, for csv.writer to write."""
    width = len(columns)
    rows = len(chunk[0])
    flat: list[Any] = [None] * (rows * width)
    specs = []
    for j, column in enumerate(chunk):
        if isinstance(column, range):
            kinds, finite = {int}, True
        elif isinstance(column, np.ndarray):
            kinds, finite = {float}, bool(np.isfinite(column).all())
            column = column.tolist()
        else:
            kinds = set(map(type, column))
            finite = kinds == {float} and all(map(math.isfinite, column))
        if kinds == {int}:
            spec = "%d"
        elif kinds == {float} and fmt == "csv":
            spec = "%r" if full else "%.9g"
        elif kinds == {float} and not full:
            spec = "%s"
            column = [
                t if "." in t and "e" not in t else _json_number(t)
                for t in map("%.9g".__mod__, column)
            ]
        elif kinds == {float} and finite:
            spec = "%r"
        elif fmt == "csv":
            return None
        else:
            spec = "%s"
            # a row's values sit three levels deep in the indent=2 layout
            column = [
                json.dumps(_json_cell(v, full), indent=2).replace("\n", "\n      ")
                for v in column
            ]
        specs.append(spec)
        flat[j::width] = column
    if fmt == "csv":
        row = ",".join(specs) + "\n"
    else:
        keys = (json.dumps(c).replace("%", "%%") for c in columns)
        # each row leads with its separator; the first one's comma is dropped
        row = ",\n    {\n" + ",\n".join(f"      {k}: {s}" for k, s in zip(keys, specs)) + "\n    }"
    return row * rows % tuple(flat)


def _emit(
    args: argparse.Namespace,
    columns: Sequence[str],
    data: Sequence[Sequence[Any]],
    meta: dict[str, Any],
) -> None:
    """Write one table to ``args.out`` (or stdout) in ``args.format``.

    ``data`` holds one sequence per column, of equal lengths: a float64
    array, a range or a list.  The bytes are those of csv.writer over
    _csv_cell cells, or of json.dumps(indent=2) over _json_cell cells, row
    by row.  Each column is sliced _EMIT_ROWS rows at a time, and each
    chunk is written as _chunk_text makes it, so the whole output text is
    never held."""
    fmt, full = args.format, args.full_precision
    size = len(data[0])
    chunks = (
        [column[start : start + _EMIT_ROWS] for column in data]
        for start in range(0, size, _EMIT_ROWS)
    )
    with (
        open(args.out, "w", encoding="utf-8", newline="")
        if args.out
        else contextlib.nullcontext(sys.stdout)
    ) as out:
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(columns)
            for chunk in chunks:
                text = _chunk_text(chunk, columns, fmt, full)
                if text is None:
                    writer.writerows([_csv_cell(v, full) for v in row] for row in zip(*chunk))
                else:
                    out.write(text)
            return
        bodies = (_chunk_text(chunk, columns, fmt, full) for chunk in chunks)
        payload = {"meta": {k: _json_cell(v, full) for k, v in meta.items()}, "rows": []}
        # splice the rows in where json.dumps wrote the empty list
        head, tail = json.dumps(payload, indent=2).rsplit("[]", 1)
        first = next(bodies, None)
        if first is None:
            out.write(f"{head}[]{tail}\n")
            return
        out.write(f"{head}[{first[1:]}")
        out.writelines(bodies)
        out.write(f"\n  ]{tail}\n")


def _indexed(values: np.ndarray, column: str) -> tuple[tuple[str, str], tuple[range, np.ndarray]]:
    """Columns of a per-cell table: the cell indices and the values, which
    _chunk_text makes Python floats one chunk of rows at a time."""
    return ("index", column), (range(values.size), values)


def _note(line: str) -> None:
    """Print a line to stderr.  A closed stderr loses the line, not the
    run: the exit status stays the run's own."""
    try:
        print(line, file=sys.stderr)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


# ---------------------------------------------------------------------------
# flat key = value config files


def parse_config_text(text: str) -> dict[str, str]:
    """Parse a flat config: one ``key = value`` per line, # comments."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def serialize_config(mapping: dict[str, str]) -> str:
    """Canonical form: sorted keys, ``key = value`` lines.  Serializing a
    parse is idempotent, which is the round-trip normalization."""
    return "".join(f"{k} = {mapping[k]}\n" for k in sorted(mapping))


def _parse_alphas(text: str) -> tuple[int, ...]:
    """Accept '1,2,3', '1 2 3', or a range '1..5'.

    The smallest exponent must be at least 1, and the largest exponent a
    is checked against the weight horizon 2^MAX_RESOLUTION_BITS, which
    the 4^a weights of its window must fit under; both before any row
    runs and before a range is built."""
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError(f"bad exponent range {text!r}") from None
        if hi < lo:
            raise ConfigError(f"empty exponent range {text!r}")
        exponents = range(lo, hi + 1)
    else:
        parts = text.replace(",", " ").split()
        if not parts:
            raise ConfigError("empty exponent list")
        try:
            exponents = tuple(int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"bad exponent list {text!r}") from None
        lo, hi = min(exponents), max(exponents)
    if lo < 1:
        raise ConfigError(f"block exponents must be >= 1, got {lo}")
    if 2 * hi > MAX_RESOLUTION_BITS:
        raise ResourceCapError(
            f"block exponent {hi} needs 2^{2 * hi} weights, more than the "
            f"weight horizon 2^{MAX_RESOLUTION_BITS}"
        )
    return tuple(exponents)


def _get_float(mapping: dict[str, str], key: str, default: float = 0.0) -> float:
    # _experiment_config has already refused a missing required key
    if key not in mapping:
        return default
    try:
        return float(mapping[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {mapping[key]!r}") from None


def _experiment_config(mapping: dict[str, str]) -> CounterexampleConfig:
    for key in ("family", "p", "alphas"):
        if key not in mapping:
            raise ConfigError(f"config is missing required key {key!r}")
    known = {"family", "p", "alphas", "alpha_exp", "beta_exp"}
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    weights = parse_family(mapping["family"])
    try:
        return CounterexampleConfig(
            p=_get_float(mapping, "p"),
            weights=weights,
            alphas=_parse_alphas(mapping["alphas"]),
            alpha_exp=_get_float(mapping, "alpha_exp", 0.0),
            beta_exp=_get_float(mapping, "beta_exp", 0.0),
        )
    except PreconditionError as exc:
        raise ConfigError(f"hypothesis violated: {exc}") from None


# ---------------------------------------------------------------------------
# function specs


def _read_numeric_column(path: str) -> np.ndarray:
    """Plain one-number-per-line files, or CSV with the value in the last
    column (a header row is skipped).  Covers this tool's own output.
    The numbers stream into one float64 array, with no list beside it."""

    def numbers(lines: TextIO) -> Iterator[float]:
        started = False
        for raw in lines:
            line = raw.strip()
            if not line:
                continue
            cell = line.split(",")[-1].strip()
            try:
                value = float(cell)
            except ValueError:
                if started:
                    raise ConfigError(f"{path}: bad number {cell!r}") from None
                continue  # header row
            started = True
            yield value

    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = np.fromiter(numbers(fh), dtype=np.float64)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    if not values.size:
        raise ConfigError(f"{path}: no numeric data")
    return values


def _cells_from_spec(spec: str, resolution: Resolution, seed: int | None) -> np.ndarray:
    """The cell values of a function spec, in a writable buffer the caller
    may give up.  Its length and values pass DyadicFunction's checks."""
    kind, _, arg = spec.partition(":")
    if seed is not None and kind != "rand":
        raise ConfigError(f"--seed applies only to --f rand, not {spec!r}")
    if kind == "const":
        try:
            value = float(arg or "1")
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(f"bad constant {arg!r}")
        cells = np.full(resolution.size, value)
    elif kind == "walsh":
        try:
            n = int(arg)
        except ValueError:
            raise ConfigError(f"bad character index {arg!r}") from None
        cells = walsh_function(n, resolution).values.copy()
    elif kind == "dirichlet":
        try:
            n = int(arg)
        except ValueError:
            raise ConfigError(f"bad kernel order {arg!r}") from None
        cells = dirichlet_kernel(n, resolution).values.copy()
    elif kind == "rand":
        if arg:
            raise ConfigError(f"rand takes no argument, got {arg!r}")
        cells = np.random.default_rng(seed or 0).standard_normal(resolution.size)
    elif kind == "file":
        cells = _read_numeric_column(arg)
    else:
        raise ConfigError(
            f"unknown function spec {spec!r} (use const:V, walsh:K, dirichlet:N, "
            f"rand, or file:PATH)"
        )
    DyadicFunction.adopt(resolution, cells.view())  # marks only the view read-only
    return cells


# ---------------------------------------------------------------------------
# subcommands: each returns (columns, one sequence of cells per column,
# meta, exit status) for main to emit

_Table = tuple[Sequence[str], Sequence[Sequence[Any]], dict[str, Any], int]


def _cmd_transform(args: argparse.Namespace) -> _Table:
    resolution = Resolution(args.n)
    if args.inverse and (not args.f.startswith("file:") or args.seed is not None):
        raise ConfigError("--inverse needs --f file:PATH with coefficients, and no --seed")
    # with --inverse the file holds coefficients, read and checked as cells are
    buffer = _cells_from_spec(args.f, resolution, args.seed)
    if args.inverse:
        values = synthesize_in_place(buffer).values
        return *_indexed(values, "value"), {"n": resolution.bits, "inverse": True}, 0
    spectrum = analyze_in_place(buffer)
    meta = {"n": resolution.bits, "f": args.f}
    return *_indexed(spectrum.coefficients, "coefficient"), meta, 0


def _cmd_kernels(args: argparse.Namespace) -> _Table:
    resolution = Resolution(args.n)
    meta: dict[str, Any] = {"n": resolution.bits}
    if args.block is not None:
        w = parse_family(args.family or "log")
        values = block_kernel(w, args.block, resolution).values
        meta |= {"family": w.label, "block": args.block, "kappa": kappa(w)}
    else:
        if args.family is not None:
            raise ConfigError("--family applies only with --block")
        values = dirichlet_kernel(args.order, resolution).values
        meta |= {"order": args.order}
    return *_indexed(values, "value"), meta, 0


def _cmd_mean(args: argparse.Namespace) -> _Table:
    resolution = Resolution(args.n)
    w = parse_family(args.family)
    order = args.order if args.order is not None else resolution.size
    cells = _cells_from_spec(args.f, resolution, args.seed)
    # the spectrum is written into the cell buffer, and the mean into it again
    analyze_in_place(cells.view())
    mean = norlund_mean_in_place(cells, order, w)
    meta = {"n": resolution.bits, "family": w.label, "order": order, "f": args.f}
    return *_indexed(mean.values, "value"), meta, 0


_DEFAULT_KAPPA_FAMILIES = (
    "fejer",
    "log",
    "vlog",
    "cesaro:0.25",
    "cesaro:0.5",
    "ualpha:0.3",
)


def _cmd_kappa(args: argparse.Namespace) -> _Table:
    # the order A below which a cesaro:A or ualpha:A family's kappa is positive
    thresholds = {"cesaro": cesaro_kappa_threshold(), "ualpha": ualpha_kappa_threshold()}
    rows = []
    for label in args.families or _DEFAULT_KAPPA_FAMILIES:
        w = parse_family(label)
        value = kappa(w)
        rows.append((w.label, value, value > 0.0, thresholds.get(w.kind)))
    return ("family", "kappa", "positive", "threshold"), tuple(zip(*rows)), {}, 0


def _cmd_lemma2(args: argparse.Namespace) -> _Table:
    w = parse_family(args.family)
    rows = [
        (rep.family, rep.block_exp, rep.bits, rep.min_abs_kernel, rep.kappa,
         rep.passed, rep.kappa <= 0.0)
        for rep in kernel_lower_bound_check(w, _parse_alphas(args.alphas))
    ]
    data = tuple(zip(*rows))
    passed = sum(data[5])
    kap = kappa(w)
    _note(f"lemma2: {w.label}, kappa = {kap:.9g}, {passed}/{len(rows)} rows passed")
    columns = ("family", "alpha", "n", "min_abs_kernel", "kappa", "passed", "vacuous")
    return columns, data, {"family": w.label, "kappa": kap}, 0 if passed == len(rows) else 3


def _cmd_diverge(args: argparse.Namespace) -> _Table:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            mapping = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read {args.config}: {exc.strerror}") from None
    cfg = _experiment_config(mapping)
    report = divergence_experiment(cfg)
    _note(f"diverge: family = {cfg.weights.label}, p = {cfg.p:g}, alphas = {cfg.alphas}")
    _note(f"diverge: kappa = {report.kappa:.9g}, theory constant c = {report.theory_constant:.9g}")
    _note(f"diverge: {THEORY_CONSTANT_FORMULA}")
    _note(
        "diverge: ratios_strictly_increasing="
        f"{str(report.ratios_strictly_increasing).lower()} "
        f"floors_hold={str(report.floors_hold).lower()}"
    )
    columns = ("k", "N", "weak_lp", "pointwise_floor", "theory_bound",
               "hardy_estimate", "ratio")
    rows = [
        (r.k, r.resolution_used, r.weak_lp_value, r.pointwise_floor,
         r.theory_bound, r.hardy_estimate, r.ratio)
        for r in report.rows
    ]
    meta = {
        "family": cfg.weights.label,
        "p": cfg.p,
        "alphas": list(cfg.alphas),
        "alpha_exp": cfg.alpha_exp,
        "beta_exp": cfg.beta_exp,
        "kappa": report.kappa,
        "theory_constant": report.theory_constant,
        "theory_constant_formula": THEORY_CONSTANT_FORMULA,
        "ratios_strictly_increasing": report.ratios_strictly_increasing,
        "floors_hold": report.floors_hold,
        "ok": report.ok,
    }
    return columns, tuple(zip(*rows)), meta, 0 if report.ok else 3


def _cmd_monitor(args: argparse.Namespace) -> _Table:
    resolution = Resolution(args.n)
    w = parse_family(args.family)
    cells = _cells_from_spec(args.f, resolution, args.seed)
    pairs = bounded_case_monitor_in_place(cells, w, args.p)
    worst = max(r for _, r in pairs)
    _note(f"monitor: {w.label}, p = {args.p:g}, max ratio = {worst:.9g}")
    meta = {"family": w.label, "p": args.p, "n": resolution.bits, "f": args.f}
    if args.f == "rand":
        meta["seed"] = args.seed or 0
    return ("n", "ratio"), tuple(zip(*pairs)), meta, 0


# ---------------------------------------------------------------------------
# parser


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built at the first main call and shared by the later
    ones: parse_args reads it and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="walshlab",
        description="Walsh summability laboratory: transforms, Nörlund means, "
        "kernel bounds, and the divergence experiment.",
    )
    parser.add_argument("--version", action="version", version=f"walshlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    # the output flags, the only ones every subcommand takes
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="output path (default stdout)")
    output.add_argument("--format", choices=_FORMATS, default="csv")
    output.add_argument(
        "--full-precision",
        action="store_true",
        help="write floats at full precision instead of 9 significant digits",
    )

    def command(name: str, func, summary: str, grid: bool = False, spec: str | None = None):
        """A subcommand with the output flags, plus --n for a grid command
        and --f (default ``spec``) with its --seed for one that reads a
        function."""
        # no prefix of a flag stands for it: each flag has one spelling
        p = subs.add_parser(name, help=summary, parents=[output], allow_abbrev=False)
        if grid:
            p.add_argument("--n", type=int, required=True, help="resolution bits")
        if spec is not None:
            p.add_argument("--f", default=spec,
                           help="const:V | walsh:K | dirichlet:N | rand | file:PATH")
            p.add_argument("--seed", type=_seed, default=None,
                           help="RNG seed (u64) for --f rand, the only spec that reads it "
                           "(default 0)")
        p.set_defaults(func=func)
        return p

    p = command("transform", _cmd_transform, "Walsh spectrum of a function spec",
                grid=True, spec="const:1")
    p.add_argument("--inverse", action="store_true",
                   help="synthesize values from file:PATH coefficients")

    p = command("kernels", _cmd_kernels, "Dirichlet kernel or weighted block kernel values",
                grid=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--order", type=int, help="Dirichlet kernel order")
    mode.add_argument("--block", type=int, help="block exponent a: window [2^(2a), 2^(2a+1)]")
    p.add_argument("--family", default=None, help="weight family for --block (default log)")

    p = command("mean", _cmd_mean, "Nörlund mean of a function spec", grid=True, spec="rand")
    p.add_argument("--family", default="fejer")
    p.add_argument("--order", type=int, default=None, help="mean order (default 2^n)")

    p = command("kappa", _cmd_kappa, "kernel floor constants per family")
    p.add_argument("families", nargs="*", help=f"default: {' '.join(_DEFAULT_KAPPA_FAMILIES)}")

    p = command("lemma2", _cmd_lemma2, "kernel lower bound check over block exponents")
    p.add_argument("--family", required=True)
    p.add_argument("--alphas", default="1..4", help="exponent list '1,2,3' or range '1..4'")

    p = command("diverge", _cmd_diverge, "blow-up experiment from a config file")
    p.add_argument("--config", required=True, help="flat key = value config file: the experiment")

    p = command("monitor", _cmd_monitor, "bounded-regime ratio monitor", grid=True, spec="rand")
    p.add_argument("--family", default="fejer")
    p.add_argument("--p", type=float, default=1.0)

    return parser


def _to_devnull(stream: TextIO) -> None:
    """Point a closed stream's file descriptor, where it has one, at
    devnull, so the interpreter's final flush of what is still buffered
    raises nothing."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # an overflow raises here, not as numpy warnings and inf or NaN cells
        with np.errstate(over="raise", invalid="raise"):
            columns, data, meta, status = args.func(args)
        meta = {"command": args.command, "version": __version__} | meta
        try:
            _emit(args, columns, data, meta)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early: not bad input, and nothing to say
            if args.out is None:
                _to_devnull(sys.stdout)
    except ResourceCapError as exc:
        _note(f"resource cap: {exc}")
        return 4
    except (WalshLabError, ValueError, OSError) as exc:
        _note(f"config error: {exc}")
        return 2
    except FloatingPointError as exc:
        _note(f"config error: the input overflows float64 ({exc})")
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
