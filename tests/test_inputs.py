"""Malformed numbers and counts are refused with ConfigError at every entry point.

Text, a bool, a non-finite value or a fractional count is malformed input
wherever it reaches the program, whether from the CLI or a library caller;
the rule lives in ``dresq.errors``.
"""

import math

import numpy as np
import pytest

from dresq.errors import MEMORY_LIMIT, ConfigError, require_count, require_memory
from dresq.fock import HilbertSpace
from dresq.device import (
    DeviceParams, OperatingPoint, find_switch_off, flux_to_frequency,
)
from dresq.dynamics import DensityState, PulseSchedule, Stage, evolve, vacuum_rabi_chevron
from dresq.fitting import TimeTrace

PARAMS = DeviceParams()
POINT = OperatingPoint(4.60, 4.70)
SPACE = HilbertSpace((2, 2, 2, 2))


def _chevron(**changes):
    kwargs = dict(q2_target=4.60, q1_offsets_mhz=[-1.0, 1.0], taus_ns=np.linspace(0, 100, 11))
    kwargs.update(changes)
    return vacuum_rabi_chevron(PARAMS, OperatingPoint(4.637, 4.691), **kwargs)


def _evolve(**changes):
    kwargs = dict(n_samples=3, include_counter_rotating=False, frame_ghz=0.0)
    kwargs.update(changes)
    return evolve(PARAMS, PulseSchedule([Stage(10.0, POINT)]), DensityState.ground(SPACE),
                  SPACE, {}, **kwargs)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: find_switch_off(PARAMS, ("4.50", "4.77")), id="switch-off-text"),
    pytest.param(lambda: flux_to_frequency(PARAMS, 1, "0.1"), id="flux-text"),
    pytest.param(lambda: flux_to_frequency(PARAMS, True, 0.1), id="flux-bool-qubit"),
    pytest.param(lambda: Stage("5", POINT), id="stage-text"),
    pytest.param(lambda: Stage(True, POINT), id="stage-bool"),
    pytest.param(lambda: _chevron(q1_offsets_mhz=["-1", "1"]), id="chevron-text-offsets"),
    pytest.param(lambda: _chevron(q1_offsets_mhz=[True, False]), id="chevron-bool-offsets"),
    pytest.param(lambda: _chevron(q2_target="4.60"), id="chevron-text-target"),
    pytest.param(lambda: _chevron(prep_to_readout_ns="200"), id="chevron-text-readout"),
    pytest.param(lambda: TimeTrace(range(10), [True] * 10), id="trace-bool-values"),
    pytest.param(lambda: TimeTrace([str(t) for t in range(10)], np.zeros(10)),
                 id="trace-text-times"),
    pytest.param(lambda: _evolve(frame_ghz=math.nan), id="evolve-nan-frame"),
    pytest.param(lambda: _evolve(frame_ghz="4.6"), id="evolve-text-frame"),
    pytest.param(lambda: _evolve(n_samples=2.5), id="evolve-fractional-samples"),
    pytest.param(lambda: HilbertSpace((3.7, 3, 3, 3)), id="space-fractional-dims"),
])
def test_malformed_number_or_count_refused(call):
    with pytest.raises(ConfigError):
        call()


def test_integral_counts_of_any_number_type_accepted():
    assert HilbertSpace((3.0, np.int64(3), 3, 3)) == HilbertSpace((3, 3, 3, 3))
    assert _evolve(n_samples=3.0).times_ns.size == 3
    for bad in (True, "3", 3.5, math.inf, math.nan, 1):
        with pytest.raises(ConfigError, match="count"):
            require_count(bad, "count", 2)


def test_memory_limit_is_inclusive():
    require_memory(MEMORY_LIMIT, "a request")
    with pytest.raises(ConfigError, match="a request needs 512 MiB"):
        require_memory(MEMORY_LIMIT + 1, "a request")
