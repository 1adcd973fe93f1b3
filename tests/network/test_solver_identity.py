"""Solver byte-identity gate at figure scale.

The incremental solver's float semantics mirror the reference solver
operation-for-operation, and every IOR figure point keeps its flow graph
a single connected component (all flows share client NICs and striped
target links).  So the two solvers must agree *byte-for-byte* on figure
outputs — pure float equality, no tolerance — exactly like the cache-off
gate in ``tests/cache/test_cache_determinism.py``.

One fig-1 point (file-per-process) and one fig-2 point (shared file)
are pinned here at the 1-node scale used by the other determinism gates.
Any drift means the incremental solver's arithmetic diverged from the
oracle and is a bug, not a recalibration.
"""

import pytest

from repro.cluster import nextgenio
from repro.ior import IorParams, run_ior
from tests.network.reference_solver import use_reference

#: the DFS file-per-process seed figure from test_cache_determinism.py —
#: the incremental solver must also hit it exactly
DFS_FPP_SEED = (6142348807.511658, 4306533837.826945)


def run_point(file_per_proc, interleaved, solver):
    cluster = nextgenio(client_nodes=1)
    if solver == "reference":
        use_reference(cluster.fabric.flownet)
    params = IorParams(
        api="DFS",
        file_per_proc=file_per_proc,
        interleaved=interleaved,
        oclass="SX",
        block_size="4m",
        transfer_size="1m",
    )
    result = run_ior(cluster, params, ppn=4)
    return result.max_write_bw, result.max_read_bw


@pytest.mark.parametrize(
    "file_per_proc,interleaved",
    [(True, False), (False, True)],
    ids=["fig1-fpp", "fig2-shared"],
)
def test_incremental_byte_identical_to_reference(file_per_proc, interleaved):
    ref = run_point(file_per_proc, interleaved, "reference")
    inc = run_point(file_per_proc, interleaved, "incremental")
    assert ref == inc


def test_incremental_hits_pinned_seed_figure():
    """Transitively pins the incremental solver against the seed tree:
    the pre-rewrite figures were produced by (what is now) the reference
    solver, so the incremental solver must reproduce them exactly."""
    assert run_point(True, False, "incremental") == DFS_FPP_SEED
