"""Every golden command still writes its stored output, byte for byte.

The files under tests/golden/ hold full-precision CSV, so a change in
any low bit of a printed number shows here; regenerate_golden.py
rewrites them when a change means to move one.  numpy's vectorized pow
and log round differently on different SIMD targets, so a failing
compare names the numpy version and the targets its dispatch uses.
"""

import numpy as np
import pytest

from regenerate_golden import GOLDEN, commands, output_of, write_configs


def simd_dispatch() -> str:
    """numpy's version and the SIMD targets it runs on this machine."""
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__,
            __cpu_dispatch__,
            __cpu_features__,
        )
    except ImportError:  # the names are numpy's, not a public API
        return f"numpy {np.__version__}, SIMD targets unknown"
    active = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return (
        f"numpy {np.__version__}, SIMD baseline {' '.join(__cpu_baseline__) or 'none'}, "
        f"dispatched {' '.join(active) or 'none'}"
    )


def test_golden_files_are_the_commands_outputs():
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == sorted(commands())


@pytest.mark.parametrize("name", sorted(commands()))
def test_output_matches_its_golden_file(name, tmp_path):
    write_configs(tmp_path)
    got = output_of(commands()[name], tmp_path)
    expect = (GOLDEN / f"{name}.csv").read_bytes()
    why = f"{name} differs from its golden file under {simd_dispatch()}"
    assert got.decode().splitlines() == expect.decode().splitlines(), why  # a readable diff first
    assert got == expect, why
