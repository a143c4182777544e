"""The benchmark's four workloads and the checks on their outputs.

Each workload is a fixed cycle of ``walshlab`` argv variants of similar
cost, built from the workload seed.  Every op writes its output to a
file; ``Workload.check`` parses that output and compares it with a
reference:

* ``diverge`` and ``lemma2`` against ``reference.json`` (written by
  ``make_reference.py`` from the CLI at full precision);
* ``monitor`` and ``emit`` against an independent numpy evaluation in
  this file, since their inputs are random functions drawn from the seed;
* every ``emit`` JSON op against the CSV output of the same command,
  which must carry identical values.

Numeric columns agree when |got - ref| <= RTOL |ref| + ATOL_SHARE * the
largest |ref| in the column.  RTOL covers the CLI's 9-significant-digit
rounding (at most 5e-9 relative) with room for float64 roundoff in a
reordered FWHT; the absolute share covers entries near zero, such as the
Walsh coefficients of a random function.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

RTOL = 1e-7
ATOL_SHARE = 1e-9

# Block exponents 1..10 put the last block at 21 bits; exponent 11 needs
# 23 bits, which the weight-horizon cap (2^22) refuses.
DIVERGE_ALPHAS = "1..10"
LEMMA2_ALPHAS = "1..10"
LEMMA2_FAMILIES = ("log", "cesaro:0.25", "ualpha:0.3", "vlog")
MONITOR_BITS = 20
MONITOR_VARIANTS = (("fejer", "1"), ("log", "0.75"))
EMIT_COMMANDS = ("transform", "mean")
EMIT_CSV_BITS = 16
EMIT_JSON_BITS = 14


@dataclass(frozen=True)
class Op:
    variant: str
    argv: tuple[str, ...]
    out: Path
    fmt: str


@dataclass
class Workload:
    cycle: list[Op]
    check: Callable[[Op, bytes], list[str]]


def diverge_configs(root: Path, tmp: Path) -> dict[str, Path]:
    """The bundled reproduce/*.cfg configs with alphas rewritten, by stem."""
    out = {}
    for cfg in sorted((root / "reproduce").glob("*.cfg")):
        text = re.sub(r"^alphas\s*=.*$", f"alphas = {DIVERGE_ALPHAS}",
                      cfg.read_text(encoding="utf-8"), flags=re.M)
        path = tmp / cfg.name
        path.write_text(text, encoding="utf-8")
        out[cfg.stem] = path
    return out


def parse_output(fmt: str, data: bytes):
    """(columns, rows, meta) of a CLI output file in either format."""
    text = data.decode("utf-8")
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        columns = next(reader)
        return columns, [[_csv_cell(c) for c in row] for row in reader], {}
    payload = json.loads(text)
    rows = payload["rows"]
    columns = list(rows[0]) if rows else []
    return columns, [[row[c] for c in columns] for row in rows], payload["meta"]


def _csv_cell(cell: str):
    if cell in ("true", "false"):
        return cell == "true"
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def compare(columns, rows, ref_columns, ref_rows, exact: bool = False) -> list[str]:
    """Problems found comparing an output table with its reference."""
    if list(columns) != list(ref_columns):
        return [f"columns {columns} differ from {list(ref_columns)}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, expected {len(ref_rows)}"]
    problems = []
    for j, name in enumerate(ref_columns):
        got = [row[j] for row in rows]
        ref = [row[j] for row in ref_rows]
        if exact or not any(isinstance(v, float) for v in ref):
            bad = [i for i, (g, r) in enumerate(zip(got, ref)) if g != r]
        else:
            g = np.asarray(got, dtype=np.float64)
            r = np.asarray(ref, dtype=np.float64)
            tol = RTOL * np.abs(r) + ATOL_SHARE * np.max(np.abs(r))
            bad = np.flatnonzero(~(np.abs(g - r) <= tol)).tolist()
        if bad:
            i = bad[0]
            problems.append(f"column {name}: {len(bad)} values off, "
                            f"first at row {i}: {got[i]!r} vs {ref[i]!r}")
    return problems


def _rotated(ops: list[Op], rng: random.Random) -> list[Op]:
    start = rng.randrange(len(ops))
    return ops[start:] + ops[:start]


# ---------------------------------------------------------------------------
# independent numpy references


def fwht(values) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform in natural (Paley) order:
    out[k] = sum_x values[x] (-1)^popcount(k & x)."""
    a = np.asarray(values, dtype=np.float64)
    h = 1
    while h < a.size:
        v = a.reshape(-1, 2, h)
        a = np.concatenate((v[:, :1] + v[:, 1:], v[:, :1] - v[:, 1:]), axis=1).reshape(-1)
        h *= 2
    return a


def _prefix_sums(family: str, count: int) -> np.ndarray:
    """Q_0..Q_count with Q_m = q_0 + ... + q_(m-1)."""
    if family == "fejer":
        q = np.ones(count)
    elif family == "log":
        q = 1.0 / np.arange(1.0, count + 1.0)
    else:
        raise ValueError(f"no reference weights for {family!r}")
    return np.concatenate(([0.0], np.cumsum(q)))


def _norlund_mean(coeffs: np.ndarray, order: int, Q: np.ndarray) -> np.ndarray:
    # t_order f on the 2^n cells that distinguish w_0..w_(order-1)
    return fwht(coeffs[:order] * Q[order - np.arange(order)] / Q[order])


def _lp(values: np.ndarray, p: float) -> float:
    return float(np.mean(np.abs(values) ** p) ** (1.0 / p))


def _random_function(seed: int, bits: int) -> np.ndarray:
    # the CLI's "rand" spec: standard normal draws from numpy's default_rng
    return np.random.default_rng(seed).standard_normal(1 << bits)


def monitor_reference(seed: int, bits: int, family: str, p: float):
    """Rows (n, ||t_(2^n) f||_p / ||f||_Hp) for n = 0..bits."""
    f = _random_function(seed, bits)
    coeffs = fwht(f) / f.size
    maximal = np.abs(f)
    for m in range(bits):
        # averages over the rank-m cells: indices sharing their low m bits
        averages = np.abs(f.reshape(-1, 1 << m).mean(axis=0))
        maximal = np.maximum(maximal.reshape(-1, 1 << m), averages).reshape(-1)
    hardy = _lp(maximal, p)
    Q = _prefix_sums(family, f.size)
    return [[n, _lp(_norlund_mean(coeffs, 1 << n, Q), p) / hardy]
            for n in range(bits + 1)]


def emit_reference(command: str, seed: int, bits: int):
    """(columns, rows) of `transform` or `mean` (Fejér, order 2^bits) of rand."""
    f = _random_function(seed, bits)
    coeffs = fwht(f) / f.size
    if command == "transform":
        return ["index", "coefficient"], [[i, float(c)] for i, c in enumerate(coeffs)]
    mean = _norlund_mean(coeffs, f.size, _prefix_sums("fejer", f.size))
    return ["index", "value"], [[i, float(v)] for i, v in enumerate(mean)]


# ---------------------------------------------------------------------------
# workloads


def diverge(seed, root, tmp, reference, run_cli) -> Workload:
    configs = diverge_configs(root, tmp)
    if sorted(configs) != sorted(reference["diverge"]):
        raise ValueError(f"reproduce/*.cfg holds {sorted(configs)}, the reference "
                         f"covers {sorted(reference['diverge'])}")
    out = tmp / "diverge.json"
    ops = [Op(stem, ("diverge", "--config", str(path), "--format", "json",
                     "--out", str(out)), out, "json")
           for stem, path in configs.items()]

    def check(op: Op, data: bytes) -> list[str]:
        columns, rows, meta = parse_output(op.fmt, data)
        ref = reference["diverge"][op.variant]
        problems = [] if meta.get("ok") is True else [f"ok is {meta.get('ok')!r}"]
        return problems + compare(columns, rows, ref["columns"], ref["rows"])

    return Workload(_rotated(ops, random.Random(seed)), check)


def monitor(seed, root, tmp, reference, run_cli) -> Workload:
    rng = random.Random(seed)
    out = tmp / "monitor.csv"
    ops = []
    for family, p in MONITOR_VARIANTS:
        f_seed = rng.randrange(1 << 32)
        ops.append(Op(f"{family}-p{p}-seed{f_seed}",
                      ("monitor", "--n", str(MONITOR_BITS), "--f", "rand",
                       "--seed", str(f_seed), "--family", family, "--p", p,
                       "--out", str(out)), out, "csv"))
    references = {}

    def check(op: Op, data: bytes) -> list[str]:
        if op.variant not in references:
            args = dict(zip(op.argv[1::2], op.argv[2::2]))
            references[op.variant] = monitor_reference(
                int(args["--seed"]), MONITOR_BITS, args["--family"], float(args["--p"]))
        columns, rows, _ = parse_output(op.fmt, data)
        return compare(columns, rows, ["n", "ratio"], references[op.variant])

    return Workload(_rotated(ops, rng), check)


def lemma2(seed, root, tmp, reference, run_cli) -> Workload:
    out = tmp / "lemma2.csv"
    ops = [Op(family, ("lemma2", "--family", family, "--alphas", LEMMA2_ALPHAS,
                       "--out", str(out)), out, "csv")
           for family in LEMMA2_FAMILIES]

    def check(op: Op, data: bytes) -> list[str]:
        columns, rows, _ = parse_output(op.fmt, data)
        ref = reference["lemma2"][op.variant]
        failed = [row for row in rows if row[columns.index("passed")] is not True]
        problems = [f"{len(failed)} rows did not pass"] if failed else []
        return problems + compare(columns, rows, ref["columns"], ref["rows"])

    return Workload(_rotated(ops, random.Random(seed)), check)


def emit(seed, root, tmp, reference, run_cli) -> Workload:
    rng = random.Random(seed)
    csv_out, json_out = tmp / "emit.csv", tmp / "emit.json"
    ops = []
    for command in EMIT_COMMANDS:
        f_seed = str(rng.randrange(1 << 32))
        base = (command, "--f", "rand", "--seed", f_seed)
        ops.append(Op(f"{command}-csv", base + ("--n", str(EMIT_CSV_BITS),
                                                "--out", str(csv_out)), csv_out, "csv"))
        ops.append(Op(f"{command}-json", base + ("--n", str(EMIT_JSON_BITS),
                                                 "--format", "json",
                                                 "--out", str(json_out)), json_out, "json"))
    csv_twins = {}

    def csv_twin(op: Op):
        """The same command written as CSV, checked against the numpy reference."""
        if op.variant not in csv_twins:
            out = tmp / "emit-twin.csv"
            argv = op.argv[:op.argv.index("--format")] + ("--out", str(out))
            rc = run_cli(argv)
            if rc != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {rc}")
            twin = parse_output("csv", out.read_bytes())
            csv_twins[op.variant] = (twin, against_numpy(op, *twin[:2]))
        return csv_twins[op.variant]

    def against_numpy(op: Op, columns, rows) -> list[str]:
        args = dict(zip(op.argv[1::2], op.argv[2::2]))
        ref = emit_reference(op.argv[0], int(args["--seed"]), int(args["--n"]))
        return compare(columns, rows, *ref)

    def check(op: Op, data: bytes) -> list[str]:
        columns, rows, _ = parse_output(op.fmt, data)
        if op.fmt == "csv":
            return against_numpy(op, columns, rows)
        (twin_columns, twin_rows, _), twin_problems = csv_twin(op)
        problems = [f"CSV twin: {p}" for p in twin_problems]
        return problems + [f"JSON vs CSV: {p}" for p in
                           compare(columns, rows, twin_columns, twin_rows, exact=True)]

    return Workload(_rotated(ops, rng), check)


WORKLOADS = {"diverge": diverge, "monitor": monitor, "lemma2": lemma2, "emit": emit}
