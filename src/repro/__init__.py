"""MTM reproduction: multi-tiered memory profiling and migration.

A discrete-time simulation library reproducing *MTM: Rethinking Memory
Profiling and Migration for Multi-Tiered Large Memory* (EuroSys '24):
the adaptive profiler, the global fast-promotion/slow-demotion policy,
the adaptive asynchronous migration mechanism, and every baseline the
paper evaluates against, on a simulated 4-tier Optane-class machine.

Quickstart::

    from repro import MtmManager, build_workload

    manager = MtmManager(scale=1 / 256)
    result = manager.run(build_workload("gups", 1 / 256), num_intervals=60)
    print(result.breakdown(), result.fast_tier_share())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> defining module.  Imported on first attribute access
#: (PEP 562), so ``import repro.obs.watch`` or a read-only CLI verb does
#: not pay for the simulator.
_EXPORTS = {
    "MtmManager": "repro.core.manager",
    "MtmSystemConfig": "repro.core.manager",
    "move_memory_regions": "repro.core.api",
    "SOLUTIONS": "repro.core.baselines",
    "make_engine": "repro.core.baselines",
    "solution_names": "repro.core.baselines",
    "optane_2tier": "repro.hw.topology",
    "optane_4tier": "repro.hw.topology",
    "cxl_topology": "repro.hw.topology",
    "uniform_topology": "repro.hw.topology",
    "CostModel": "repro.sim.costmodel",
    "CostParams": "repro.sim.costmodel",
    "effective_interval": "repro.sim.costmodel",
    "SimulationEngine": "repro.sim.engine",
    "SimulationResult": "repro.sim.engine",
    "WORKLOAD_SPECS": "repro.workloads.registry",
    "build_workload": "repro.workloads.registry",
    "workload_names": "repro.workloads.registry",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
