"""Every golden command still writes its stored output, byte for byte.

The files under tests/golden/ hold full-precision CSV, so a change in
any low bit of a printed number shows here; regenerate_golden.py
rewrites them when a change means to move one.
"""

import pytest

from regenerate_golden import GOLDEN, commands, output_of, write_configs


def test_golden_files_are_the_commands_outputs():
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(commands())


@pytest.mark.parametrize("name", sorted(commands()))
def test_output_matches_its_golden_file(name, tmp_path):
    write_configs(tmp_path)
    got = output_of(commands()[name], tmp_path)
    expect = (GOLDEN / f"{name}.csv").read_bytes()
    assert got.decode().splitlines() == expect.decode().splitlines()  # a readable diff first
    assert got == expect
