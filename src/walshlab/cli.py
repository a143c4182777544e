"""Command line driver: flat config files, CSV/JSON reporting, exit codes.

Subcommands
    transform   Walsh spectrum of a function spec (or inverse synthesis)
    kernels     Dirichlet kernel values, or a weighted block kernel sum
    mean        Nörlund mean of a function spec
    kappa       kernel floor constants and positivity thresholds per family
    lemma2      kernel lower bound check over a range of block exponents
    diverge     the blow-up experiment from a config file
    monitor     bounded-regime ratios for a function and weight family

Exit codes: 0 success, 2 config error, 3 assertion failure, 4 resource cap.
All floats are printed with 9 significant digits; CSV and JSON runs of the
same command carry identical numeric values.  Run constants and summary
verdicts go to stderr so the data stream stays machine-readable.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Any, Iterable, Sequence

import numpy as np

from . import __version__
from .counterexample import (
    THEORY_CONSTANT_FORMULA,
    CounterexampleConfig,
    bounded_case_monitor,
    divergence_experiment,
)
from .dyadic import DyadicFunction, Resolution
from .errors import ConfigError, PreconditionError, ResourceCapError, WalshLabError
from .kernel_checks import kernel_lower_bound_check
from .transform import (
    WalshSpectrum,
    dirichlet_kernel,
    fwht_forward,
    fwht_inverse,
    walsh_function,
)
from .weights import (
    WeightFamily,
    cesaro_kappa_threshold,
    kappa,
    kernel_sum,
    norlund_mean_multiplier,
    parse_family,
    ualpha_kappa_threshold,
)

__all__ = [
    "main",
    "parse_config_text",
    "serialize_config",
    "round9",
]


def round9(x: float) -> float:
    """The shared 9-significant-digit rounding both encoders go through."""
    return float(f"{float(x):.9g}")


_FULL_PRECISION = False


def _format_cell(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v) if _FULL_PRECISION else f"{v:.9g}"
    if v is None:
        return ""
    return str(v)


def _json_cell(v: Any) -> Any:
    # same rounding as the CSV path so the two encodings agree exactly
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return v if _FULL_PRECISION else round9(v)
    if isinstance(v, (list, tuple)):
        return [_json_cell(item) for item in v]
    return str(v)


def _emit(
    out_path: str | None,
    fmt: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[Any]],
    meta: dict[str, Any],
) -> None:
    rows = list(rows)
    if fmt == "csv":
        text_target = (
            open(out_path, "w", encoding="utf-8", newline="")
            if out_path
            else sys.stdout
        )
        try:
            writer = csv.writer(text_target, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_cell(v) for v in row])
        finally:
            if out_path:
                text_target.close()
    elif fmt == "json":
        payload = {
            "meta": {k: _json_cell(v) for k, v in meta.items()},
            "rows": [
                {c: _json_cell(v) for c, v in zip(columns, row)} for row in rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


def _note(line: str) -> None:
    print(line, file=sys.stderr)


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
    """Accept '1,2,3', '1 2 3', or a range '1..5'."""
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError(f"bad exponent range {text!r}") from None
        if hi < lo:
            raise ConfigError(f"empty exponent range {text!r}")
        return tuple(range(lo, hi + 1))
    parts = text.replace(",", " ").split()
    if not parts:
        raise ConfigError("empty exponent list")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"bad exponent list {text!r}") from None


def _get_float(mapping: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in mapping:
        if default is None:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    try:
        return float(mapping[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {mapping[key]!r}") from None


def _experiment_config(mapping: dict[str, str]) -> CounterexampleConfig:
    for key in ("family", "p", "alphas"):
        if key not in mapping:
            raise ConfigError(f"config is missing required key {key!r}")
    known = {"family", "p", "alphas", "alpha_exp", "beta_exp", "c_const", "format", "out"}
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        weights = parse_family(mapping["family"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        return CounterexampleConfig(
            p=_get_float(mapping, "p"),
            weights=weights,
            alphas=_parse_alphas(mapping["alphas"]),
            alpha_exp=_get_float(mapping, "alpha_exp", 0.0),
            beta_exp=_get_float(mapping, "beta_exp", 0.0),
            c_const=_get_float(mapping, "c_const", 1.0),
        )
    except PreconditionError as exc:
        raise ConfigError(f"hypothesis violated: {exc}") from None


# ---------------------------------------------------------------------------
# function specs


def _read_numeric_column(path: str) -> np.ndarray:
    """Plain one-number-per-line files, or CSV with the value in the last
    column (a header row is skipped).  Covers this tool's own output."""
    values: list[float] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                cell = line.split(",")[-1].strip()
                try:
                    values.append(float(cell))
                except ValueError:
                    if values:
                        raise ConfigError(f"{path}: bad number {cell!r}") from None
                    continue  # header row
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    if not values:
        raise ConfigError(f"{path}: no numeric data")
    return np.asarray(values, dtype=np.float64)


def _function_from_spec(spec: str, resolution: Resolution, seed: int) -> DyadicFunction:
    kind, _, arg = spec.partition(":")
    if kind == "const":
        try:
            return DyadicFunction.constant(float(arg or "1"), resolution)
        except ValueError:
            raise ConfigError(f"bad constant {arg!r}") from None
    if kind == "walsh":
        try:
            n = int(arg)
        except ValueError:
            raise ConfigError(f"bad character index {arg!r}") from None
        if not 0 <= n < resolution.size:
            raise ConfigError(
                f"character index {n} out of range for {resolution.bits} bits"
            )
        return walsh_function(n, resolution)
    if kind == "dirichlet":
        try:
            n = int(arg)
        except ValueError:
            raise ConfigError(f"bad kernel order {arg!r}") from None
        return dirichlet_kernel(n, resolution)
    if kind == "rand":
        rng = np.random.default_rng(seed)
        return DyadicFunction(resolution, rng.standard_normal(resolution.size))
    if kind == "file":
        values = _read_numeric_column(arg)
        if values.size != resolution.size:
            raise ConfigError(
                f"{arg}: got {values.size} values, a {resolution.bits}-bit grid "
                f"needs {resolution.size}"
            )
        return DyadicFunction(resolution, values)
    raise ConfigError(
        f"unknown function spec {spec!r} (use const:V, walsh:K, dirichlet:N, "
        f"rand, or file:PATH)"
    )


def _family(label: str) -> WeightFamily:
    try:
        return parse_family(label)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _resolution(args: argparse.Namespace) -> Resolution:
    if args.n is None:
        raise ConfigError("this command needs --n <resolution bits>")
    return Resolution(args.n)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_transform(args: argparse.Namespace) -> int:
    resolution = _resolution(args)
    meta = {"command": "transform", "version": __version__, "n": resolution.bits}
    if args.inverse:
        if not args.f.startswith("file:"):
            raise ConfigError("--inverse needs --f file:PATH with coefficients")
        coeffs = _read_numeric_column(args.f.partition(":")[2])
        if coeffs.size != resolution.size:
            raise ConfigError(
                f"got {coeffs.size} coefficients, need {resolution.size}"
            )
        g = fwht_inverse(WalshSpectrum(resolution, coeffs))
        rows = [(i, float(v)) for i, v in enumerate(g.values)]
        _emit(args.out, args.format or "csv", ("index", "value"), rows, meta | {"inverse": True})
        return 0
    f = _function_from_spec(args.f, resolution, args.seed)
    spectrum = fwht_forward(f)
    rows = [(i, float(c)) for i, c in enumerate(spectrum.coefficients)]
    _emit(args.out, args.format or "csv", ("index", "coefficient"), rows, meta | {"f": args.f})
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    resolution = _resolution(args)
    meta: dict[str, Any] = {
        "command": "kernels",
        "version": __version__,
        "n": resolution.bits,
    }
    if args.block is not None:
        w = _family(args.family)
        lo, hi = 1 << (2 * args.block), 1 << (2 * args.block + 1)
        if hi > resolution.size:
            raise ConfigError(
                f"block exponent {args.block} needs at least {2 * args.block + 1} bits"
            )
        values = kernel_sum(w, lo, hi, resolution).values
        meta |= {"family": w.label, "block": args.block, "kappa": kappa(w).kappa}
    else:
        if args.order is None:
            raise ConfigError("kernels needs --order N (or --block A with --family)")
        values = dirichlet_kernel(args.order, resolution).values
        meta |= {"order": args.order}
    rows = [(i, float(v)) for i, v in enumerate(values)]
    _emit(args.out, args.format or "csv", ("index", "value"), rows, meta)
    return 0


def _cmd_mean(args: argparse.Namespace) -> int:
    resolution = _resolution(args)
    w = _family(args.family)
    order = args.order if args.order is not None else resolution.size
    f = _function_from_spec(args.f, resolution, args.seed)
    mean = norlund_mean_multiplier(fwht_forward(f), order, w)
    meta = {
        "command": "mean",
        "version": __version__,
        "n": resolution.bits,
        "family": w.label,
        "order": order,
        "f": args.f,
    }
    rows = [(i, float(v)) for i, v in enumerate(mean.values)]
    _emit(args.out, args.format or "csv", ("index", "value"), rows, meta)
    return 0


_DEFAULT_KAPPA_FAMILIES = (
    "fejer",
    "log",
    "vlog",
    "cesaro:0.25",
    "cesaro:0.5",
    "ualpha:0.3",
)


def _cmd_kappa(args: argparse.Namespace) -> int:
    labels = args.families or list(_DEFAULT_KAPPA_FAMILIES)
    rows = []
    for label in labels:
        w = _family(label)
        rep = kappa(w)
        threshold: float | None = None
        if label.startswith("cesaro"):
            threshold = cesaro_kappa_threshold()
        elif label.startswith("ualpha"):
            threshold = ualpha_kappa_threshold()
        rows.append((rep.family, rep.kappa, rep.positive, threshold))
    meta = {"command": "kappa", "version": __version__}
    _emit(args.out, args.format or "csv", ("family", "kappa", "positive", "threshold"), rows, meta)
    return 0


def _cmd_lemma2(args: argparse.Namespace) -> int:
    w = _family(args.family)
    exponents = _parse_alphas(args.alphas)
    if any(a < 1 for a in exponents):
        raise ConfigError(f"block exponents must be >= 1, got {exponents}")
    rows = []
    hard_fail = False
    for a in exponents:
        resolution = Resolution(args.n) if args.n is not None else None
        rep = kernel_lower_bound_check(w, a, resolution)
        vacuous = rep.kappa <= 0.0
        if not rep.passed:
            hard_fail = True
        rows.append(
            (rep.family, rep.block_exp, rep.bits, rep.min_abs_kernel, rep.kappa,
             rep.passed, vacuous)
        )
    meta = {
        "command": "lemma2",
        "version": __version__,
        "family": w.label,
        "kappa": kappa(w).kappa,
    }
    _emit(
        args.out,
        args.format or "csv",
        ("family", "alpha", "n", "min_abs_kernel", "kappa", "passed", "vacuous"),
        rows,
        meta,
    )
    _note(
        f"lemma2: {w.label}, kappa = {kappa(w).kappa:.9g}, "
        f"{sum(1 for r in rows if r[5])}/{len(rows)} rows passed"
    )
    return 3 if hard_fail else 0


def _cmd_diverge(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            mapping = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read {args.config}: {exc.strerror}") from None
    # command-line flags override the file
    if args.p is not None:
        mapping["p"] = repr(args.p)
    if args.family is not None:
        mapping["family"] = args.family
    fmt = args.format or mapping.get("format", "csv")
    out = args.out or mapping.get("out") or None
    cfg = _experiment_config(mapping)

    report = divergence_experiment(cfg)
    _note(f"diverge: family = {cfg.weights.label}, p = {cfg.p:g}, alphas = {cfg.alphas}")
    _note(f"diverge: kappa = {report.kappa:.9g}, theory constant c = {report.theory_constant:.9g}")
    _note(f"diverge: {THEORY_CONSTANT_FORMULA}")
    columns = ("k", "N", "weak_lp", "pointwise_floor", "theory_bound",
               "hardy_estimate", "ratio")
    rows = [
        (r.k, r.resolution_used, r.weak_lp_value, r.pointwise_floor,
         r.theory_bound, r.hardy_estimate, r.ratio)
        for r in report.rows
    ]
    meta = {
        "command": "diverge",
        "version": __version__,
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
        "weak_floor_consistent": report.weak_floor_consistent,
        "ok": report.ok,
    }
    _emit(out, fmt, columns, rows, meta)
    _note(
        "diverge: ratios_strictly_increasing="
        f"{str(report.ratios_strictly_increasing).lower()} "
        f"floors_hold={str(report.floors_hold).lower()} "
        f"weak_floor_consistent={str(report.weak_floor_consistent).lower()}"
    )
    return 0 if report.ok else 3


def _cmd_monitor(args: argparse.Namespace) -> int:
    resolution = _resolution(args)
    w = _family(args.family)
    f = _function_from_spec(args.f, resolution, args.seed)
    pairs = bounded_case_monitor(f, w, args.p)
    meta = {
        "command": "monitor",
        "version": __version__,
        "family": w.label,
        "p": args.p,
        "n": resolution.bits,
        "f": args.f,
        "seed": args.seed,
    }
    rows = [(n, float(r)) for n, r in pairs]
    _emit(args.out, args.format or "csv", ("n", "ratio"), rows, meta)
    worst = max(r for _, r in pairs)
    _note(f"monitor: {w.label}, p = {args.p:g}, max ratio = {worst:.9g}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=None, help="resolution bits")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--seed", type=_seed, default=0, help="RNG seed (u64)")
    sub.add_argument(
        "--full-precision",
        action="store_true",
        help="write floats at full precision instead of 9 significant digits",
    )


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}") from None
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshlab",
        description="Walsh summability laboratory: transforms, Nörlund means, "
        "kernel bounds, and the divergence experiment.",
    )
    parser.add_argument("--version", action="version", version=f"walshlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("transform", help="Walsh spectrum of a function spec")
    _add_common(p)
    p.add_argument("--f", default="const:1", help="const:V | walsh:K | dirichlet:N | rand | file:PATH")
    p.add_argument("--inverse", action="store_true", help="synthesize values from file:PATH coefficients")
    p.set_defaults(func=_cmd_transform)

    p = subs.add_parser("kernels", help="Dirichlet kernel or weighted block kernel values")
    _add_common(p)
    p.add_argument("--order", type=int, default=None, help="Dirichlet kernel order")
    p.add_argument("--family", default="log", help="weight family for --block mode")
    p.add_argument("--block", type=int, default=None, help="block exponent a: window [2^(2a), 2^(2a+1)]")
    p.set_defaults(func=_cmd_kernels)

    p = subs.add_parser("mean", help="Nörlund mean of a function spec")
    _add_common(p)
    p.add_argument("--f", default="rand", help="const:V | walsh:K | dirichlet:N | rand | file:PATH")
    p.add_argument("--family", default="fejer")
    p.add_argument("--order", type=int, default=None, help="mean order (default 2^n)")
    p.set_defaults(func=_cmd_mean)

    p = subs.add_parser("kappa", help="kernel floor constants per family")
    _add_common(p)
    p.add_argument("families", nargs="*", help=f"default: {' '.join(_DEFAULT_KAPPA_FAMILIES)}")
    p.set_defaults(func=_cmd_kappa)

    p = subs.add_parser("lemma2", help="kernel lower bound check over block exponents")
    _add_common(p)
    p.add_argument("--family", required=True)
    p.add_argument("--alphas", default="1..4", help="exponent list '1,2,3' or range '1..4'")
    p.set_defaults(func=_cmd_lemma2)

    p = subs.add_parser("diverge", help="blow-up experiment from a config file")
    _add_common(p)
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--p", type=float, default=None, help="override the config's p")
    p.add_argument("--family", default=None, help="override the config's family")
    p.set_defaults(func=_cmd_diverge)

    p = subs.add_parser("monitor", help="bounded-regime ratio monitor")
    _add_common(p)
    p.add_argument("--f", default="rand")
    p.add_argument("--family", default="fejer")
    p.add_argument("--p", type=float, default=1.0)
    p.set_defaults(func=_cmd_monitor)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    global _FULL_PRECISION
    _FULL_PRECISION = bool(getattr(args, "full_precision", False))
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except WalshLabError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
