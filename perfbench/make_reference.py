"""Write perfbench/reference.json: full-precision outputs of the fixed-input ops.

The `diverge` and `lemma2` workloads have no random inputs, so their
reference values are recorded once from the CLI with --full-precision
and checked by every later run.  Rerun this only when the expected
values are meant to change, and say why in the change that does it:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from walshlab import cli  # noqa: E402

from workloads import LEMMA2_ALPHAS, LEMMA2_FAMILIES, diverge_configs  # noqa: E402


def _run(argv: list[str], out: Path) -> dict:
    rc = cli.main(argv + ["--format", "json", "--full-precision", "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    payload = json.loads(out.read_text(encoding="utf-8"))
    rows = payload["rows"]
    return {"meta": payload["meta"], "columns": list(rows[0]),
            "rows": [list(row.values()) for row in rows]}


def main() -> None:
    (BENCH / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "work") as tmp:
        tmp = Path(tmp)
        out = tmp / "out.json"
        reference = {
            "diverge": {stem: _run(["diverge", "--config", str(path)], out)
                        for stem, path in diverge_configs(ROOT, tmp).items()},
            "lemma2": {family: _run(["lemma2", "--family", family,
                                     "--alphas", LEMMA2_ALPHAS], out)
                       for family in LEMMA2_FAMILIES},
        }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                          encoding="utf-8")


if __name__ == "__main__":
    main()
