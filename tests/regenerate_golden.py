"""Golden outputs: the full-precision CSV of a fixed set of CLI commands.

    PYTHONPATH=src python tests/regenerate_golden.py

rewrites tests/golden/*.csv from the current tree, one file per command;
tests/test_golden.py compares each command's output with its file byte
for byte.  A change that moves a printed number regenerates the files in
the same change, and its CHANGES.md entry says which values moved, by
how much, and why.

The commands are `monitor --n 20` for fejer at p = 1 and log at
p = 0.75, each on a Dirichlet kernel and on a seeded random function;
`lemma2 --alphas 1..10` for four families; and `diverge` on the bundled
reproduce/*.cfg configs with their alphas rewritten to 1..10.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

from walshlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted((ROOT / "reproduce").glob("*.cfg"))


def commands() -> dict[str, list[str]]:
    """Golden file stem -> CLI argv.  ``{tmp}`` stands for the directory
    that ``write_configs`` fills."""
    out = {}
    for family, p in (("fejer", "1"), ("log", "0.75")):
        for name, spec in (("dirichlet1000", ["dirichlet:1000"]), ("rand1", ["rand", "--seed", "1"])):
            out[f"monitor_{family}_{name}"] = [
                "monitor", "--n", "20", "--family", family, "--p", p, "--f", *spec
            ]
    for family in ("log", "cesaro:0.25", "ualpha:0.3", "vlog"):
        out[f"lemma2_{family.replace(':', '')}"] = [
            "lemma2", "--family", family, "--alphas", "1..10"
        ]
    for cfg in CONFIGS:
        out[f"diverge_{cfg.stem}"] = ["diverge", "--config", f"{{tmp}}/{cfg.name}"]
    return out


def write_configs(tmp: Path) -> None:
    """The bundled configs with alphas = 1..10, written into tmp."""
    for cfg in CONFIGS:
        text = re.sub(r"^alphas\s*=.*$", "alphas = 1..10", cfg.read_text(encoding="utf-8"),
                      flags=re.M)
        (tmp / cfg.name).write_text(text, encoding="utf-8")


def output_of(argv: list[str], tmp: Path) -> bytes:
    """The full-precision CSV that one command writes; it must exit 0."""
    out = tmp / "out.csv"
    argv = [a.format(tmp=tmp) for a in argv] + ["--full-precision", "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        status = main(argv)
    if status != 0:
        raise RuntimeError(f"walshlab {' '.join(argv)}: exit {status}: {err.getvalue()}")
    return out.read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_configs(Path(tmp))
        for name, argv in commands().items():
            (GOLDEN / f"{name}.csv").write_bytes(output_of(argv, Path(tmp)))
            print(f"wrote tests/golden/{name}.csv", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
