"""Pinned controller-vs-static matrices, bit for bit.

The digests were computed before chaos and control cells served
through ``serve.sweep.serve_pass`` on one built system per cell.  They
cover the static-cache conformance config over every core scenario
plus the fault-free pseudo-scenario, and a small dynamic-cache config
under a drifting Zipf stream, where a dynamic cache left unreset
between a cell's passes would show up as a diff.
"""

import pytest

from repro.control import CORE_SCENARIOS, ControllerConfig, control_matrix
from repro.serve import ServeConfig, WorkloadConfig

from tests.control.conftest import CFG, TIGHT_SLO_S, digest

PRE_FOLD_STATIC = (
    "cf9cf4edef3136ebb57e688d6936350d526399c40339c576651d2b6bdc9ad761"
)
PRE_FOLD_DYNAMIC = (
    "4874a6f930ed3107ebc722b33d2f6543b2c4fd5d5386b237a6c21cd388d92353"
)

DYNAMIC_CFG = CFG.with_(dynamic_cache=True, cache_window=2,
                        feature_cache_bytes=3200)
DYNAMIC_SCENARIOS = ("none", "link-flap", "cache-peer-loss",
                     "sampler-crash")


@pytest.mark.parametrize("workers", [1, 2])
def test_static_cache_matrix_digest(workers):
    matrix = control_matrix(
        "DSP", CFG, ControllerConfig(),
        scenarios=CORE_SCENARIOS + ("none",),
        workload_configs={"diurnal": WorkloadConfig(
            num_requests=128, arrival="diurnal", seed=5)},
        qps=3000.0,
        serve_config=ServeConfig(slo_s=TIGHT_SLO_S),
        workers=workers,
    )
    assert matrix["summary"]["cells"] == 8
    assert digest(matrix) == PRE_FOLD_STATIC


def test_dynamic_cache_drift_matrix_digest():
    matrix = control_matrix(
        "DSP", DYNAMIC_CFG, ControllerConfig(),
        scenarios=DYNAMIC_SCENARIOS,
        workload_configs={"diurnal+drift4": WorkloadConfig(
            num_requests=128, arrival="diurnal", skew=1.5, drift_phases=4,
            seed=5)},
        qps=3000.0,
        serve_config=ServeConfig(slo_s=TIGHT_SLO_S),
    )
    assert matrix["summary"]["total_actions"] == 16
    assert digest(matrix) == PRE_FOLD_DYNAMIC
