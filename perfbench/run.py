"""walshlab benchmark: one client driving the CLI in-process as a closed loop.

    python3 perfbench/run.py --workload {diverge,monitor,lemma2,emit} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ../src relative to this
file.  Each op is one `walshlab.cli.main(argv)` call that builds its
objects from argv, as a fresh `walshlab` process would, and writes its
output to a file.  The next op starts when the previous one returns.

--trace 0 measures the end-to-end metrics for --seconds.  --trace 1 runs
every op twice, untraced and then traced, for at least --seconds and in
whole cycles of the workload's argv variants, so per-op call counts
repeat exactly; it reports the per-layer metrics and the tracing overhead.
Every op's output is checked (see workloads.py) after the timed loop.
The last line of stdout is the JSON result; the line before it records
the inputs, the machine and the sample counts.  Spans of a traced run are
written to perfbench/work/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layer_trace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
SETUP_SAMPLES = 7

# Per-layer spans reported per traced op: (layer span, metric suffixes).
LAYER_METRICS = (
    ("dyadic.DyadicFunction", ("calls", "self_s", "bytes_copied_computed")),
    ("transform.fwht", ("calls", "self_s", "cells", "bytes_computed")),
    ("transform.dirichlet_kernel", ("calls", "self_s")),
    ("transform.WalshSpectrum", ("calls", "self_s")),
    ("weights.norlund_mean_multiplier", ("calls", "self_s")),
    ("weights.kernel_sum", ("calls", "self_s")),
    ("weights.validate_structure", ("calls", "self_s")),
    ("norms.weak_lp", ("calls", "self_s")),
    ("norms.maximal_function", ("calls", "self_s")),
    ("norms.lp_quasinorm", ("calls", "self_s")),
    ("norms.hardy_norm_estimate", ("self_s",)),
    ("kernel_checks.kernel_lower_bound_check", ("calls", "self_s")),
    ("counterexample.divergence_experiment", ("self_s",)),
    ("counterexample.build_martingale", ("calls", "self_s")),
    ("counterexample.atom_block", ("calls", "self_s")),
    ("counterexample.bounded_case_monitor", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
)
UNITS = {"calls": "calls/op", "self_s": "s/op", "cells": "cells/op",
         "bytes_copied_computed": "B/op", "bytes_computed": "B/op"}


def _fwht_bytes_computed(spans) -> int:
    """Bytes the butterflies move, from array sizes alone: one read and one
    write of every float64 cell for the entry copy and for each of the
    log2(cells) stages.  Cache misses are not counted."""
    return sum(16 * cells * cells.bit_length()
               for name, *_, cells in spans if name == "transform.fwht")


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def _l3_bytes() -> int | None:
    try:
        found = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                               text=True, stdin=subprocess.DEVNULL, check=True)
        return int(found.stdout) or None
    except (OSError, subprocess.CalledProcessError, ValueError):
        return None


def _machine() -> dict:
    import numpy
    import walshlab
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "walshlab": walshlab.__version__,
    }


def _import_walshlab():
    src = ROOT / "src"
    if not (src / "walshlab" / "__init__.py").is_file():
        raise SetupError(f"no walshlab package under {src}")
    sys.path.insert(0, str(src))
    import walshlab.cli
    if Path(walshlab.__file__).resolve().parent != (src / "walshlab").resolve():
        raise SetupError(f"walshlab imported from {walshlab.__file__}, not {src}")
    return walshlab.cli


def measure_setup() -> list[float]:
    """Wall seconds for fresh interpreters to import walshlab.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import walshlab.cli"], env=env,
                       cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


class Phase:
    """One closed-loop stretch of ops: timings, exit codes, outputs."""

    def __init__(self) -> None:
        self.times: list[tuple[int, float]] = []  # (cycle position, seconds)
        self.failures: list[str] = []
        self.digests: list[tuple[int, str]] = []  # (cycle position, sha1)
        self.output_bytes = 0
        self.wall = 0.0

    @property
    def ops(self) -> int:
        return len(self.times)


def run_op(cli, cycle, pos: int, phase: Phase, outputs: dict, sink: io.StringIO) -> None:
    """Run cycle[pos] once and record its time, exit code and output."""
    op = cycle[pos]
    op.out.unlink(missing_ok=True)
    sink.seek(0)
    sink.truncate()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except Exception as exc:  # an op that crashes is a failed op
            rc = repr(exc)
        dt = time.perf_counter() - t0
    phase.times.append((pos, dt))
    if rc != 0:
        phase.failures.append(f"{op.variant}: exit {rc}: {sink.getvalue().strip()}")
        return
    try:
        data = op.out.read_bytes()
    except OSError as exc:
        phase.failures.append(f"{op.variant}: no output: {exc}")
        return
    digest = hashlib.sha1(data).hexdigest()
    outputs.setdefault((pos, digest), data)
    phase.digests.append((pos, digest))
    phase.output_bytes += len(data)


def run_phase(cli, cycle, seconds: float, outputs: dict) -> Phase:
    """Closed loop over the cycle for `seconds` of wall time."""
    phase = Phase()
    sink = io.StringIO()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        run_op(cli, cycle, i % len(cycle), phase, outputs, sink)
        i += 1
    phase.wall = time.perf_counter() - start
    return phase


def run_paired(cli, cycle, seconds: float, outputs: dict, tracer) -> tuple[Phase, Phase]:
    """Run each op untraced and then traced, in whole cycles, for at least
    `seconds`.  Both halves of a pair see the same load on the machine, so
    their rates differ by the tracing overhead; each rate is ops over the
    time spent in those ops."""
    untraced, traced = Phase(), Phase()
    sink = io.StringIO()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i % len(cycle):
        pos = i % len(cycle)
        run_op(cli, cycle, pos, untraced, outputs, sink)
        tracer.op = i
        uninstall = layer_trace.install(tracer)
        try:
            run_op(cli, cycle, pos, traced, outputs, sink)
        finally:
            uninstall()
        i += 1
    for phase in (untraced, traced):
        phase.wall = sum(dt for _, dt in phase.times)
    return untraced, traced


def check_outputs(workload, phases, outputs) -> list[str]:
    """Check each distinct output once; every op that produced it shares
    the verdict.  Returns one problem line per failed op."""
    verdicts = {}
    for key, data in outputs.items():
        try:
            verdicts[key] = workload.check(workload.cycle[key[0]], data)
        except Exception as exc:  # unreadable output fails its ops
            verdicts[key] = [f"check raised {exc!r}"]
    problems = []
    for phase in phases:
        problems += phase.failures
        for key in phase.digests:
            if verdicts[key]:
                problems.append(f"{workload.cycle[key[0]].variant}: "
                                + "; ".join(verdicts[key]))
    return problems


def op_p50(phase: Phase) -> float:
    """Median call time of each argv variant, averaged over the variants.

    The variants of a cycle are of similar but not equal cost; averaging
    per-variant medians keeps the figure from jumping between the cost
    levels of a mixed cycle as the op count changes parity."""
    by_variant: dict[int, list[float]] = {}
    for pos, dt in phase.times:
        by_variant.setdefault(pos, []).append(dt)
    return statistics.fmean(statistics.median(v) for v in by_variant.values())


def layer_metrics(tracer, phase: Phase, untraced: Phase) -> dict:
    ops = phase.ops
    summary = tracer.summary()
    fwht_bytes = _fwht_bytes_computed(tracer.spans)
    metrics = {}
    for name, suffixes in LAYER_METRICS:
        row = summary.get(name, {"calls": 0, "self_s": 0.0, "cells": 0})
        values = {"calls": row["calls"], "self_s": row["self_s"], "cells": row["cells"],
                  # the constructor copies the values into a new float64 array
                  "bytes_copied_computed": 8 * row["cells"],
                  "bytes_computed": fwht_bytes}
        for suffix in suffixes:
            metrics[f"{name}.{suffix}"] = {"value": values[suffix] / ops,
                                           "unit": UNITS[suffix]}
    metrics["cli.output_bytes"] = {"value": phase.output_bytes / ops, "unit": "B/op"}
    untraced_rate = untraced.ops / untraced.wall
    traced_rate = ops / phase.wall
    metrics["trace.untraced_ops_per_s"] = {"value": untraced_rate, "unit": "ops/s"}
    metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "ops/s"}
    metrics["trace.overhead_ops_per_s"] = {"value": untraced_rate - traced_rate,
                                           "unit": "ops/s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    try:
        cli = _import_walshlab()
        reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        def run_cli(argv):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return cli.main(list(argv))

        try:
            workload = workloads.WORKLOADS[args.workload](
                args.seed, ROOT, tmp, reference, run_cli)
        except (ValueError, OSError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "argv_cycle": [" ".join(op.argv).replace(str(tmp), "$TMP")
                           for op in workload.cycle],
            **_machine(),
        }
        outputs: dict = {}
        if args.trace == 0:
            setup = measure_setup()
            phase = run_phase(cli, workload.cycle, args.seconds, outputs)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            phases = [phase]
            metrics = {
                "ops_per_s": {"value": phase.ops / phase.wall, "unit": "ops/s"},
                "op_p50_s": {"value": op_p50(phase), "unit": "s"},
                "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
            }
            info["setup_samples_s"] = setup
            info["op_samples"] = phase.ops
        else:
            tracer = layer_trace.Tracer()
            untraced, phase = run_paired(cli, workload.cycle, args.seconds, outputs, tracer)
            phases = [untraced, phase]
            metrics = layer_metrics(tracer, phase, untraced)
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path, info)
            info["op_samples"] = {"untraced": untraced.ops, "traced": phase.ops}
            info["spans_file"] = str(spans_path.relative_to(ROOT))

        problems = check_outputs(workload, phases, outputs)
        attempted = sum(p.ops for p in phases)
        info["error_rate"] = {"value": len(problems) / attempted, "unit": "fraction"}
        info["problems"] = problems[:10]
        print(json.dumps({"info": info}))
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": len(problems), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
