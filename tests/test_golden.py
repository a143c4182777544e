"""Every golden command still writes its stored output, byte for byte.

Most files under tests/golden/ hold full-precision CSV, so a change in
any low bit of a printed number shows here; the transform, mean and
kernels files hold the default 9-digit CSV and JSON, the text users
read.  regenerate_golden.py rewrites them when a change means to move
one.  numpy's vectorized pow and log round differently on different
SIMD targets, so a failing compare names the numpy version and the
targets its dispatch uses.  The 9-digit files read no pow or log: with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" on an AVX-512
machine they kept their bytes, where 5 of the full-precision files
moved in their last bits.
"""

import numpy as np
import pytest

from regenerate_golden import GOLDEN, commands, golden_file, output_of, write_configs


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
    names = sorted(golden_file(name).name for name in commands())
    assert sorted(p.name for p in GOLDEN.iterdir()) == names


@pytest.mark.parametrize("name", sorted(commands()))
def test_output_matches_its_golden_file(name, tmp_path):
    write_configs(tmp_path)
    got = output_of(commands()[name], tmp_path)
    expect = golden_file(name).read_bytes()
    why = f"{name} differs from its golden file under {simd_dispatch()}"
    assert got.decode().splitlines() == expect.decode().splitlines(), why  # a readable diff first
    assert got == expect, why
