"""A dispatch outcome is a pure function of its request.

The serve plan cache replays a recorded outcome for any repeat dispatch,
whatever ran before it.  That is only sound if simulating a
``DispatchRequest`` gives the same outcome regardless of the engine's
history.  These tests record every request of a served trace, replay the
requests in reverse order on a fresh, pre-warmed ``DispatchEngine``, and
require the same ``(makespan, degraded, faults, warnings)`` and the same
timeline events as the in-order run -- with and without a fault plan.
"""

import pytest

from repro.faults import FaultPlan
from repro.serve import ArrivalProcess, QueryServer, ServeConfig
from repro.serve.dispatch import DispatchEngine


def _served_dispatches(cfg):
    """(request, outcome) for every dispatch of a seeded serve run."""
    server = QueryServer(config=cfg)
    engine = server.engine
    execute_round = engine.execute_round
    log = []

    def recording_round(assignments, epoch):
        outcomes = execute_round(assignments, epoch)
        log.extend(zip(assignments, outcomes))
        return outcomes

    engine.execute_round = recording_round
    trace = ArrivalProcess(qps=120, duration_s=1.0, seed=11).trace()
    server.run(trace=trace)
    return log


def _scalars(outcome):
    makespan, _, degraded, faults, warnings = outcome
    return makespan, degraded, faults, warnings


@pytest.mark.parametrize("mode", ["batched", "isolated"])
@pytest.mark.parametrize("devices", [1, 4])
@pytest.mark.parametrize("faults", [None, FaultPlan.chaos(7, rate=0.05)],
                         ids=["clean", "chaos"])
def test_reverse_order_replay_matches(device, mode, devices, faults):
    cfg = ServeConfig(mode=mode, devices=devices, faults=faults)
    log = _served_dispatches(cfg)
    assert len(log) > 1
    if faults is not None:
        # the chaos case must actually exercise fault handling
        assert any(_scalars(out)[2] for _, out in log)

    fresh = DispatchEngine(device, cfg)
    fresh.warm()
    requests = [req for req, _ in reversed(log)]
    replayed = list(reversed(fresh.execute_round(requests, epoch=1)))

    for (req, first), again in zip(log, replayed):
        assert _scalars(again) == _scalars(first), req.batch_idx
        assert again[1].events == first[1].events, req.batch_idx
