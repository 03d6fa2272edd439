"""Property test: snapshot/fork is exact.

``fork(snapshot(k)).run(n - k)`` is bit-identical to ``run(n)`` for every
branch point ``k`` — with and without fault injection (fixed fault seed,
as with ``--fault-seed``) — driven by Hypothesis over seeds, branch
points, and workloads.

Example counts are small: each example simulates full runs, and the
property is about exactness, not about covering a large input space.
"""

from hypothesis import given, settings, strategies as st

from repro.core.baselines import make_engine
from repro.faults.injector import FaultConfig, FaultInjector
from repro.sim.engine import SimulationEngine
from tests.support import fingerprint

SCALE = 1.0 / 512.0
INTERVALS = 6

SETTINGS = dict(max_examples=8, deadline=None)


def _engine(workload: str, seed: int, fault_rate: float):
    injector = None
    if fault_rate > 0:
        injector = FaultInjector(FaultConfig.uniform(fault_rate), seed=123)
    return make_engine("mtm", workload, scale=SCALE, seed=seed,
                       injector=injector)


@settings(**SETTINGS)
@given(
    workload=st.sampled_from(["gups", "voltdb"]),
    seed=st.integers(min_value=0, max_value=2**16),
    branch=st.integers(min_value=1, max_value=INTERVALS - 1),
    fault_rate=st.sampled_from([0.0, 0.05]),
)
def test_fork_resume_equals_straight_run(workload, seed, branch, fault_rate):
    reference = fingerprint(_engine(workload, seed, fault_rate).run(INTERVALS))
    engine = _engine(workload, seed, fault_rate)
    for _ in range(branch):
        engine.step()
    forked = SimulationEngine.fork(engine.snapshot())
    assert fingerprint(forked.run(INTERVALS - branch)) == reference
