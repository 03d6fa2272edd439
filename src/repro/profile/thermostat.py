"""Thermostat's profiling mechanism (baseline).

Thermostat (Agarwal & Wenisch, ASPLOS'17) keeps **fixed-size** 2 MB
regions, samples one random 4 KB page per region, and counts accesses by
write-protecting the sampled page and taking protection faults.  Three
consequences the paper leans on (Secs. 3, 5.4, 9.3):

* fault-based counting is expensive (a protection fault costs far more
  than a PTE scan), so under the same overhead budget Thermostat can
  profile far fewer pages — here only a random subset of regions fits;
* the 4 KB slice of a 2 MB huge page sees ~1/512 of its accesses, losing
  profiling quality (modeled through ``count_scale``);
* regions never merge or split, so the quality cannot adapt to locality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.mm.mmu import Mmu
from repro.mm.pagetable import PageTable
from repro.perf.pebs import PebsSampler
from repro.profile.base import Profiler, ProfileSnapshot, RegionReport
from repro.profile.regions import DEFAULT_REGION_PAGES, RegionSet
from repro.sim.costmodel import CostModel
from repro.units import PAGES_PER_HUGE_PAGE


@dataclass
class ThermostatConfig:
    """Thermostat tunables.

    Attributes:
        interval: profiling interval in seconds.
        overhead_constraint: profiling overhead target.
        polls_per_interval: poison/fault rounds per sampled page.
        protection_fault_cost: seconds per protection fault (the paper
            measures Thermostat's per-sample cost at ~2.5x MTM's).
        region_pages: fixed region size (2 MB, never changes).
        poison_exposure: fraction of the interval a sampled page stays
            poisoned per poll; ``None`` = polls evenly spread over the
            interval (each poisoned until its fault or the next poll).
    """

    interval: float = 10.0
    overhead_constraint: float = 0.05
    polls_per_interval: int = 3
    protection_fault_cost: float | None = None
    region_pages: int = DEFAULT_REGION_PAGES
    poison_exposure: float | None = None

    def __post_init__(self) -> None:
        if self.polls_per_interval < 1:
            raise ConfigError("polls_per_interval must be >= 1")
        if self.poison_exposure is not None and not 0.0 < self.poison_exposure <= 1.0:
            raise ConfigError("poison_exposure must be in (0, 1]")


class ThermostatProfiler(Profiler):
    """Thermostat's fixed-region, protection-fault profiler."""

    name = "thermostat"

    def __init__(
        self,
        cost_model: CostModel,
        config: ThermostatConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.cost_model = cost_model
        self.config = config if config is not None else ThermostatConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.regions: RegionSet | None = None
        self._page_table: PageTable | None = None
        self._interval = -1

    @property
    def fault_cost(self) -> float:
        """Per-fault cost; defaults to 2.5x MTM's per-scan cost (Sec. 9.3)."""
        if self.config.protection_fault_cost is not None:
            return self.config.protection_fault_cost
        return 2.5 * self.cost_model.params.scan_overhead

    @property
    def budget_regions(self) -> int:
        """Regions that fit the overhead budget at fault-based pricing."""
        budget_time = self.config.interval * self.config.overhead_constraint
        per_region = self.fault_cost * self.config.polls_per_interval
        return max(1, int(budget_time / per_region))

    def setup(self, page_table: PageTable, spans: list[tuple[int, int]]) -> None:
        self._page_table = page_table
        self.regions = RegionSet.from_spans(spans, region_pages=self.config.region_pages)
        self._interval = -1

    def profile(
        self,
        mmu: Mmu,
        pebs: PebsSampler | None = None,
        socket: int = 0,
    ) -> ProfileSnapshot:
        if self.regions is None or self._page_table is None:
            raise ConfigError("profile() before setup()")
        cfg = self.config
        page_table = self._page_table
        self._interval += 1

        regions = list(self.regions)
        k = min(self.budget_regions, len(regions))
        picked = self.rng.choice(len(regions), size=k, replace=False)
        faults = 0
        for idx in picked:
            region = regions[int(idx)]
            page = int(self.rng.integers(region.start, region.end))
            entry = page_table.entry_index(np.array([page]))
            # A 4 KB slice of a huge page sees ~1/512 of its accesses.
            scale = 1.0 / PAGES_PER_HUGE_PAGE if page_table.is_huge(page) else 1.0
            detected = mmu.scan_detect(
                entry,
                cfg.polls_per_interval,
                self.rng,
                exposure=cfg.poison_exposure,
                count_scale=scale,
            )
            region.record_interval(float(detected[0]), 0.0, alpha=1.0)
            faults += cfg.polls_per_interval
        # Unsampled regions keep stale hi — Thermostat has no decay, which
        # is part of why its quality converges slowly (Fig. 1).
        self.regions.end_interval()

        starts, sizes, _ = self.regions.as_arrays()
        nodes = page_table.span_majority_nodes(starts, sizes)
        reports = [
            RegionReport(
                start=r.start,
                npages=r.npages,
                score=r.hi,
                whi=r.hi,
                node=int(nodes[j]),
            )
            for j, r in enumerate(self.regions)
        ]
        return ProfileSnapshot(
            interval=self._interval,
            reports=reports,
            profiling_time=faults * self.fault_cost,
            scans_performed=faults,
        )

    def memory_overhead_bytes(self) -> int:
        return 40 * (len(self.regions) if self.regions else 0)
