"""Block-stacked ``demo-werner`` against the per-point loop it replaced.

``reference_demo_werner`` is the body ``demo-werner`` ran before its grid
was stacked: one visibility at a time through the single-state calls,
one f-string per row.  The stacked CLI must print byte-identical CSV at
small grids and on both sides of every block edge, and keep its memory
per block rather than per grid point, also in the CSV text it writes.
"""

import contextlib
import io
import tracemalloc

import pytest

from steermap import cli, mapping, states, witnesses
from steermap.mapping import INV_SQRT3

BLOCK = cli.WERNER_BLOCK
GRIDS = [2, 3, 114, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
# Peak traced memory of the per-point loop at --grid 20001 with stdout
# captured in memory: 4.31e6 bytes (Python 3.11, numpy 2.4).
PER_POINT_PEAK = 4.1 * 2**20


def reference_demo_werner(grid):
    """The CSV of the per-point loop."""
    rows = [
        "p,negativity_sigma,f3_tau,chsh_tau,steerable_rho_oracle,"
        "impl_steerable_nonlocal,impl_entangled_steerable"
    ]
    for i in range(grid):
        p = i / (grid - 1)
        tau = states.werner(p)
        sigma = mapping.mix(tau, mapping.biased_partner(tau, 0.0, "A"), INV_SQRT3)
        neg = witnesses.negativity(sigma)
        f3 = witnesses.f3_steering(tau)
        chsh = witnesses.chsh_horodecki(tau)
        steer = witnesses.werner_steerable_oracle(p * INV_SQRT3)
        impl_nonlocal = (not steer) or chsh > witnesses.CHSH_THRESHOLD
        impl_steer = neg <= 0.0 or f3 > witnesses.F3_THRESHOLD
        rows.append(
            f"{p:.12g},{neg:.12g},{f3:.12g},{chsh:.12g},"
            f"{str(steer).lower()},{str(impl_nonlocal).lower()},{str(impl_steer).lower()}"
        )
    return "\n".join(rows) + "\n"


def run_demo(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["demo-werner", *argv])
    return code, out.getvalue(), err.getvalue()


class TestStdoutMatchesPointLoop:
    @pytest.mark.parametrize("grid", GRIDS)
    def test_grid(self, grid):
        assert run_demo(["--grid", str(grid)]) == (0, reference_demo_werner(grid), "")

    def test_out_file(self, tmp_path):
        out = tmp_path / "demo.csv"
        assert run_demo(["--grid", str(BLOCK + 1), "--out", str(out)]) == (0, "", "")
        assert out.read_text() == reference_demo_werner(BLOCK + 1)


def traced_peak(argv):
    """Peak traced memory of one successful ``demo-werner`` run."""
    tracemalloc.start()
    try:
        assert run_demo(argv)[0] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockGuards:
    def test_peak_memory_stays_near_the_point_loop(self, tmp_path):
        # Unblocked, one stacked pass over all 20001 points peaks near 32 MB.
        run_demo(["--grid", "3"])  # one-time caches
        assert traced_peak(["--grid", "20001"]) <= 1.5 * PER_POINT_PEAK
        # With --out, each block is written before the next is made, so
        # not even the CSV text grows with the grid (31 MB at 200001 when
        # the blocks were joined first).
        out = tmp_path / "demo.csv"
        assert traced_peak(["--grid", "100001", "--out", str(out)]) <= 1.5 * PER_POINT_PEAK
        with out.open() as fh:
            assert sum(1 for _ in fh) == 100002
