"""The CLI's table encoder against the cell-by-cell oracle, byte for byte."""

import argparse
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walshlab.cli as cli
from oracles import emit_text

CHUNK = cli._EMIT_ROWS
REPRO = Path(__file__).resolve().parent.parent / "reproduce"

# values at the edges of the 9-digit format, and the ones JSON spells itself
SPECIAL = [
    0.0, -0.0, 1.0, 100000.0, 1e-5, 1e-4, 1e16, 1e17, 123456789.5, 1234567890.0,
    -2.5e-300, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, math.pi,
]
NONFINITE = [math.nan, math.inf, -math.inf]
# subnormals, the least normal, and texts that carry into exponents 9 and 16
JSON_EDGES = [
    5e-324, 2.2250738585072014e-308, 1e-308, 999999999.5, 9.9999999995e15, 1e15,
    123456789.5, 1234567890.0, 3.0, -0.0,
]

META = {
    "command": "test",
    "n": 3,
    "p": 0.75,
    "kappa": 1 / 3,
    "alphas": [1, 2, 3],
    "ok": True,
    "none": None,
    "nan": math.nan,
    "label": 'a,"b" ü',
}


def emitted(capsys, columns, rows, meta, fmt, full, out=None) -> str:
    """What _emit writes for the table, handed to it column by column."""
    args = argparse.Namespace(format=fmt, full_precision=full, out=out)
    cli._emit(args, columns, [[row[j] for row in rows] for j in range(len(columns))], meta)
    return capsys.readouterr().out


def rows_of(data) -> list[tuple]:
    """The rows of a table given as columns, in the Python types _emit writes."""
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in data)))


def assert_same(got: str, expect: str) -> None:
    """Equal text; a mismatch names the first differing line only, since
    pytest's own diff of tables this long takes minutes."""
    if got != expect:
        g, e = got.splitlines(keepends=True), expect.splitlines(keepends=True)
        i = next((i for i, pair in enumerate(zip(g, e)) if pair[0] != pair[1]),
                 min(len(g), len(e)))
        pytest.fail(f"line {i}: {g[i:i + 1]!r} != {e[i:i + 1]!r} "
                    f"({len(g)} vs {len(e)} lines)")


def floats(count: int, seed: int = 0) -> list[float]:
    values = np.random.default_rng(seed).standard_normal(count) * 10.0 ** (
        np.arange(count) % 40 - 20
    )
    return [*SPECIAL, *values.tolist()][:count]


def indexed(values) -> list[tuple]:
    return list(enumerate(values))


FULL = pytest.mark.parametrize("full", [False, True])
FMT = pytest.mark.parametrize("fmt", ["csv", "json"])


@FULL
@FMT
@pytest.mark.parametrize("count", [0, 1, CHUNK, CHUNK + 1])
def test_per_cell_table_matches_oracle(count, fmt, full, capsys):
    rows = indexed(floats(count))
    columns = ("index", "value")
    got = emitted(capsys, columns, rows, META, fmt, full)
    assert_same(got, emit_text(columns, rows, META, fmt, full))


@FULL
@FMT
def test_nonfinite_floats_match_oracle(fmt, full, capsys):
    # the first chunk is all finite, the second holds NaN and infinities
    values = floats(CHUNK) + NONFINITE + [-0.0, 1e16]
    rows = indexed(values)
    got = emitted(capsys, ("index", "value"), rows, {}, fmt, full)
    assert_same(got, emit_text(("index", "value"), rows, {}, fmt, full))


@FULL
@FMT
def test_mixed_cells_match_oracle(fmt, full, capsys):
    # a float/None column like kappa's threshold, bool, str and odd cells
    texts = ["plain", 'comma, and "quote"', "ünïcödé", "", "line\nbreak", "{}"]
    rows = []
    for i in range(2 * CHUNK + 3):
        rows.append((
            texts[i % len(texts)],
            i * 7 - 5,
            i % 3 == 0,
            None if i % 4 == 1 else SPECIAL[i % len(SPECIAL)],
            [NONFINITE + [1.5], (1, 2.25), np.float64(0.1), 1 << 70, i][i % 5],
        ))
    columns = ("family", "n", "passed", "threshold", "odd")
    got = emitted(capsys, columns, rows, META, fmt, full)
    assert_same(got, emit_text(columns, rows, META, fmt, full))


@FULL
@FMT
def test_single_kind_columns_match_oracle(fmt, full, capsys):
    # all-bool, all-None, all-str, int next to float, and huge ints
    rows = [
        (i % 2 == 1, None, f"s{i}", [i, 0.5][i % 2], (-1) ** i * 10**30 + i)
        for i in range(CHUNK + 5)
    ]
    columns = ("b", "none", "s", "mixed", "big")
    got = emitted(capsys, columns, rows, {}, fmt, full)
    assert_same(got, emit_text(columns, rows, {}, fmt, full))


@FULL
@FMT
def test_awkward_column_names_match_oracle(fmt, full, capsys):
    # braces mattered to str.format templates, percent signs to % templates
    columns = ('quo"te', "br{ace}", "{0}", "tab\tü,comma", "", "%", "%s", "100%%", "%(x)d")
    rows = [
        (1, 2.5, -0.0, "x", None, 7, 0.5, "%d", "%"),
        (3, 1e16, 1e-5, "y", True, -7, 2.0, "%", "%d"),
    ]
    meta = {"{}": "{0}", "%s": "%(x)d"}
    got = emitted(capsys, columns, rows, meta, fmt, full)
    assert_same(got, emit_text(columns, rows, meta, fmt, full))


@FULL
@FMT
def test_stdout_and_out_file_get_the_same_bytes(fmt, full, tmp_path, capsys):
    rows = indexed(floats(3 * CHUNK + 17, seed=5))
    path = tmp_path / f"table.{fmt}"
    columns = ("index", "coefficient")
    on_stdout = emitted(capsys, columns, rows, META, fmt, full)
    assert emitted(capsys, columns, rows, META, fmt, full, out=str(path)) == ""
    assert_same(path.read_bytes().decode("utf-8"), on_stdout)
    assert_same(on_stdout, emit_text(columns, rows, META, fmt, full))


@FULL
@FMT
def test_cli_tables_match_oracle(fmt, full, monkeypatch, tmp_path, capsys):
    # main's own tables, several chunks long, written to --out
    real_emit, seen = cli._emit, []

    def spy(args, columns, data, meta):
        seen.append((columns, rows_of(data), meta))
        real_emit(args, columns, data, meta)

    monkeypatch.setattr(cli, "_emit", spy)
    path = tmp_path / "out"
    flags = ["--format", fmt, "--out", str(path)] + ["--full-precision"] * full
    for argv in (
        ["transform", "--n", "13", "--f", "rand", "--seed", "4"],
        ["mean", "--n", "12", "--family", "log", "--order", "1000"],
        ["kappa"],
        ["lemma2", "--family", "log", "--alphas", "1..3"],
        ["monitor", "--n", "4", "--f", "rand", "--seed", "1"],
        ["kernels", "--n", "5", "--block", "2"],
        ["diverge", "--config", str(REPRO / "log_p075.cfg")],
    ):
        assert cli.main(argv + flags) == 0
        columns, rows, meta = seen[-1]
        expect = emit_text(columns, rows, meta, fmt, full)
        assert_same(path.read_bytes().decode("utf-8"), expect)


def json_cell_texts(values) -> list[str]:
    """The text of each cell of a one-column 9-digit JSON chunk."""
    text = cli._chunk_text([list(values)], ("v",), "json", False)
    return [line.partition('"v": ')[2] for line in text.splitlines() if '"v": ' in line]


def from_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


FINITE = st.floats(allow_nan=False, allow_infinity=False) | (
    st.integers(0, 2**64 - 1).map(from_bits).filter(math.isfinite)
)


@given(st.lists(FINITE, min_size=1, max_size=64))
@settings(max_examples=400)
def test_json_float_text_is_repr_of_its_9_digit_float(values):
    # what json.dumps(float("%.9g" % v)) writes, for any finite double
    assert json_cell_texts(values) == [repr(float("%.9g" % v)) for v in values]


def test_json_float_text_at_the_layout_edges():
    # the listed edges, and at every decimal exponent the doubles around
    # 9.999999995e(k), where the 9-digit text carries into exponent k + 1
    carries = np.array([9.999999995 * 10.0**k for k in range(-324, 308)])
    carries = carries[carries > 0]
    around = np.concatenate([np.nextafter(carries, 0), carries, np.nextafter(carries, np.inf)])
    values = JSON_EDGES + [-v for v in JSON_EDGES] + around.tolist() + (-around).tolist()
    assert json_cell_texts(values) == [repr(float("%.9g" % v)) for v in values]
