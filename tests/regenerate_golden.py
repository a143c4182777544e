"""Golden outputs: the bytes a fixed set of CLI commands writes.

    PYTHONPATH=src python tests/regenerate_golden.py

rewrites tests/golden/ from the current tree, one file per command, named
by its stem and its format; tests/test_golden.py compares each command's
output with its file byte for byte.  A change that moves a printed
number regenerates the files in the same change, and its CHANGES.md
entry says which values moved, by how much, and why.

Full-precision CSV, so that a change in any low bit shows: `monitor --n
20` for fejer at p = 1 and log at p = 0.75, each on a Dirichlet kernel
and on a seeded random function; `lemma2 --alphas 1..10` for four
families; and `diverge` on the bundled reproduce/*.cfg configs with
their alphas rewritten to 1..10.

The default 9-digit text, in CSV and in JSON (stem suffix _json), so
that the bytes users and scripts read are pinned too: `transform --f
rand --seed 1 --n 12`, `mean --family log --f rand --seed 1 --n 12` and
`kernels --n 9 --block 3`.  A JSON file's meta holds the package
version, so a version bump regenerates those files.
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
    """Golden file stem -> CLI argv, output flags included.  ``{tmp}``
    stands for the directory that ``write_configs`` fills."""
    out = {}
    full = ["--full-precision"]
    for family, p in (("fejer", "1"), ("log", "0.75")):
        for name, spec in (("dirichlet1000", ["dirichlet:1000"]), ("rand1", ["rand", "--seed", "1"])):
            out[f"monitor_{family}_{name}"] = [
                "monitor", "--n", "20", "--family", family, "--p", p, "--f", *spec, *full
            ]
    for family in ("log", "cesaro:0.25", "ualpha:0.3", "vlog"):
        out[f"lemma2_{family.replace(':', '')}"] = [
            "lemma2", "--family", family, "--alphas", "1..10", *full
        ]
    for cfg in CONFIGS:
        out[f"diverge_{cfg.stem}"] = ["diverge", "--config", f"{{tmp}}/{cfg.name}", *full]
    for fmt, suffix in (("csv", ""), ("json", "_json")):
        rand = ["--f", "rand", "--seed", "1", "--n", "12", "--format", fmt]
        out[f"transform_rand1{suffix}"] = ["transform", *rand]
        out[f"mean_log_rand1{suffix}"] = ["mean", "--family", "log", *rand]
        out[f"kernels_block3{suffix}"] = ["kernels", "--n", "9", "--block", "3", "--format", fmt]
    return out


def golden_file(name: str) -> Path:
    """The file holding a command's output, named by its stem and format."""
    argv = commands()[name]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    return GOLDEN / f"{name}.{fmt}"


def write_configs(tmp: Path) -> None:
    """The bundled configs with alphas = 1..10, written into tmp."""
    for cfg in CONFIGS:
        text = re.sub(r"^alphas\s*=.*$", "alphas = 1..10", cfg.read_text(encoding="utf-8"),
                      flags=re.M)
        (tmp / cfg.name).write_text(text, encoding="utf-8")


def output_of(argv: list[str], tmp: Path) -> bytes:
    """The bytes that one command writes to --out; it must exit 0."""
    out = tmp / "out"
    argv = [a.format(tmp=tmp) for a in argv] + ["--out", str(out)]
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
            path = golden_file(name)
            path.write_bytes(output_of(argv, Path(tmp)))
            print(f"wrote tests/golden/{path.name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
