"""The tiled linear kernel against the whole-array reference, bit for bit.

engine.linear_block_arrays walks a block in time tiles and carries Y, B
and H across each tile's edge; kernel_reference.reference_block holds
every array at its full length.  Each case must give every label's bytes
and every label's mask of the reference, at tile lengths that do not
divide the node count, at block widths of 1, 223 and 2,048 paths, and
where arrays overflow.
"""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rmplab
from kernel_reference import reference_block
from rmplab.blocks import TILE_CELLS
from rmplab.engine import PROCESS_LABELS, LinearModel, linear_block_arrays, solve_linear
from rmplab.grid import TimeGrid
from rmplab.noise import SHIPPED_GAUSSIAN_SPECS, NoiseSpec

OU_HALF = NoiseSpec.ou(1.0, 0.5)
ADD = NoiseSpec.ou(0.3, 0.5)
ALL = {label: 1 for label in PROCESS_LABELS}

# name: (model, grid, block width, strides)
CASES = {
    "one_path": (LinearModel(1.0, OU_HALF, ADD), TimeGrid(0.001, 20_000), 1, ALL),
    "width_223": (
        LinearModel(1.0, OU_HALF, ADD), TimeGrid(0.01, 300), 223,
        {"zeta": 1, "phi": 1, "X": 1, "Y": 3, "A": 5, "B": 1, "H": 100},
    ),
    "width_2048": (LinearModel(1.0, OU_HALF, ADD), TimeGrid(0.02, 150), 2048, ALL),
    "growth": (LinearModel(-10.0, OU_HALF, ADD), TimeGrid(0.05, 1600), 30, ALL),
    # A grows past exp(709) and B overflows, while H's integrand, capped
    # at exp(709) and scaled by a small forcing, stays finite.
    "saturated": (
        LinearModel(-10.0, OU_HALF, NoiseSpec.ou(0.01, 0.5), x0=1e307),
        TimeGrid(0.1, 1200), 30, ALL,
    ),
    "three_scale": (
        LinearModel(1.0, SHIPPED_GAUSSIAN_SPECS["three_scale"], ADD), TimeGrid(0.01, 300), 223, ALL,
    ),
    "pareto": (
        LinearModel(1.0, OU_HALF, NoiseSpec.pareto_ou(0.5, 1.5)), TimeGrid(0.01, 300), 223, ALL,
    ),
}


def mismatches(name: str) -> list[str]:
    """The labels whose values or mask differ from the reference's in case name."""
    model, grid, width, strides = CASES[name]
    idx = np.arange(5, 5 + width)
    flags = {label: np.zeros(width, dtype=bool) for label in strides}
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_block(model, grid, 11, idx, strides)
        got = linear_block_arrays(model, grid, 11, idx, strides=strides, flags=flags)
    flagged = np.logical_or.reduce([mask for _, mask in want.values()])
    bad = [
        label
        for label, (values, mask) in want.items()
        if got[label].tobytes() != values.tobytes() or flags[label].tobytes() != mask.tobytes()
    ]
    return bad + (["flagged"] if got["flagged"].tobytes() != flagged.tobytes() else [])


@pytest.mark.parametrize("name", CASES)
def test_the_tiled_kernel_keeps_the_whole_array_bytes(name):
    model, grid, width, _ = CASES[name]
    assert grid.n_steps % (max(2, TILE_CELLS // width) - 1)  # the last tile is short
    assert mismatches(name) == []


def test_the_saturated_case_saturates_b_and_x_but_not_h():
    model, grid, width, strides = CASES["saturated"]
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_block(model, grid, 11, np.arange(5, 5 + width), strides)
    for label in ("B", "X"):
        assert (np.abs(want[label][0]) == 1e300).any(axis=1).all(), label
    assert not (np.abs(want["H"][0]) == 1e300).any()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86 SIMD targets")
def test_the_tiled_kernel_keeps_the_reference_bytes_without_avx512():
    # The pinned digests hold only under AVX-512 dispatch; this compares
    # the tiled kernel with the reference under the AVX2 exp and log
    # kernels, whose bits must not depend on an element's place in an array.
    disabled = "X86_V4 AVX512_ICL AVX512_SPR"
    src = str(Path(rmplab.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    script = (
        "import json, test_tiles, numpy\n"
        "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
        "print(json.dumps([f['X86_V4'], "
        "{name: test_tiles.mismatches(name) for name in test_tiles.CASES}]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]),
                 NPY_DISABLE_CPU_FEATURES=disabled),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    avx512, bad = json.loads(done.stdout.splitlines()[-1])
    assert not avx512
    assert bad == {name: [] for name in CASES}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_a_warm_superposition_solve_faults_no_more_than_one_component():
    # A superposition's K component draws lie in the block's normals and
    # its scratch chunk is one tile, made once per block, so a warm solve
    # faults in no fresh pages for them.
    # Before, three_scale took 1,304 minor faults per warm solve, OU none.
    resource = pytest.importorskip("resource")
    grid = TimeGrid(0.02, 150)

    def faults(spec: NoiseSpec) -> int:
        model = LinearModel(1.0, spec, NoiseSpec.ou(0.5, 1.0))
        for _ in range(2):  # the second solve reuses what the first freed
            solve_linear(model, grid, 3, 5000)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        solve_linear(model, grid, 3, 5000)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    assert faults(SHIPPED_GAUSSIAN_SPECS["three_scale"]) <= faults(OU_HALF) + 100
