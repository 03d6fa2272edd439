"""Migration planner: applies policy orders through a mechanism.

The planner is the glue the paper's daemon service provides (Sec. 8):
take the interval's orders, make them safe (drop pages that already moved,
split any huge page an order would tear — the fragmentation cost
non-huge-aware baselines pay), compute timing through the mechanism, and
commit the moves to the page table and frame accounting.

The daemon also owns *recovery*.  Against a real kernel, ``move_pages()``
partially fails (EBUSY on pinned pages) and destination allocation fails
under tier pressure (ENOMEM); the planner therefore keeps a bounded retry
queue with exponential backoff across intervals, demotes cold resident
pages to make room before dropping a promotion, and falls back from the
adaptive async mechanism to plain synchronous ``move_pages()`` for orders
that keep failing.  With ``retry_policy=None`` the planner is fail-fast
instead: injected faults raise their :class:`~repro.errors.TransientError`
subclass — the baseline the resilience benchmark compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import nputil
from repro.errors import MigrationBusyError, MigrationError, TierPressureError
from repro.faults.injector import FaultInjector
from repro.hw.frames import FrameAccountant
from repro.hw.topology import TierTopology
from repro.migrate.mechanism import Mechanism, MigrationTiming, StepTimes
from repro.mm.mmu import Mmu
from repro.mm.pagetable import PageTable
from repro.obs.events import (
    EV_MIG_FAILED,
    EV_MIG_ISSUED,
    EV_MIG_PLANNED,
    EV_MIG_RETRIED,
)
from repro.obs.provenance import (
    STAGE_BUSY,
    STAGE_COMMITTED,
    STAGE_DEMOTE_FOR_ROOM,
    STAGE_EXHAUSTED,
    STAGE_FALLBACK,
    STAGE_PLANNED,
    STAGE_PRESSURE,
    STAGE_RETRY,
)
from repro.policy.base import MigrationOrder
from repro.units import PAGE_SIZE, PAGES_PER_HUGE_PAGE


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff, in units of intervals.

    Attributes:
        max_attempts: total tries per order before it is dropped.
        backoff_base: intervals to wait after the first failure.
        backoff_factor: multiplicative backoff growth per failure.
        backoff_cap: ceiling on the inter-attempt delay.
        fallback_after: failed attempts after which the planner retries
            through the fallback mechanism (sync ``move_pages()``) instead
            of the primary one.
    """

    max_attempts: int = 4
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    backoff_cap: float = 8.0
    fallback_after: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise MigrationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 1.0 or self.backoff_factor < 1.0:
            raise MigrationError("backoff base and factor must be >= 1")
        if self.backoff_cap < self.backoff_base:
            raise MigrationError("backoff_cap must be >= backoff_base")
        if self.fallback_after < 1:
            raise MigrationError(f"fallback_after must be >= 1, got {self.fallback_after}")

    def delay_intervals(self, failures: int) -> int:
        """Intervals to wait before the next attempt after ``failures``."""
        if failures < 1:
            raise MigrationError(f"failures must be >= 1, got {failures}")
        raw = self.backoff_base * self.backoff_factor ** (failures - 1)
        return max(1, int(min(raw, self.backoff_cap)))


@dataclass
class _PendingRetry:
    """One backed-off order waiting in the retry queue."""

    order: MigrationOrder
    failures: int
    due_interval: int


@dataclass
class MigrationLog:
    """Aggregate migration accounting across intervals."""

    promoted_pages: int = 0
    demoted_pages: int = 0
    orders_executed: int = 0
    orders_skipped: int = 0
    huge_pages_torn: int = 0
    sync_switches: int = 0
    extra_copied_pages: int = 0
    critical_time: float = 0.0
    background_time: float = 0.0
    critical_steps: StepTimes = field(default_factory=StepTimes)
    # -- robustness counters (fault recovery) --------------------------------
    busy_pages: int = 0
    partial_orders: int = 0
    enomem_events: int = 0
    demoted_for_room_pages: int = 0
    retries_scheduled: int = 0
    retries_succeeded: int = 0
    retries_exhausted: int = 0
    fallback_moves: int = 0
    retry_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def promoted_bytes(self) -> int:
        return self.promoted_pages * PAGE_SIZE

    @property
    def demoted_bytes(self) -> int:
        return self.demoted_pages * PAGE_SIZE


class MigrationPlanner:
    """Executes migration orders for one managed process.

    Args:
        page_table: the process's page table.
        frames: machine frame accounting.
        mechanism: the migration mechanism to charge timing through.
        interval: profiling-interval length (converts interval write
            counts into write rates for the adaptive mechanism).
        time_scale: factor applied to all mechanism timings.  On a
            capacity-scaled machine every quantity shrinks with ``scale``
            except the 2 MB region quantum; scaling the per-move cost keeps
            migration's share of an interval faithful to the full-size
            system.  Mechanism timings used directly (the Fig. 3/11
            microbenchmarks) remain paper-absolute.
        injector: optional fault injector (EBUSY / ENOMEM models).
        retry_policy: bounded-backoff retry schedule; ``None`` makes the
            planner fail fast — transient failures raise instead of being
            queued (the resilience benchmark's baseline).
        fallback_mechanism: mechanism used for orders that failed
            ``retry_policy.fallback_after`` times (the paper's daemon falls
            back from ``move_memory_regions()`` to sync ``move_pages()``).
        topology: machine description; enables demotion-for-room when a
            promotion's destination tier is full.
        socket: viewpoint socket for the demotion tier ladder.
    """

    def __init__(
        self,
        page_table: PageTable,
        frames: FrameAccountant,
        mechanism: Mechanism,
        interval: float = 10.0,
        time_scale: float = 1.0,
        injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        fallback_mechanism: Mechanism | None = None,
        topology: TierTopology | None = None,
        socket: int = 0,
    ) -> None:
        if time_scale <= 0:
            raise MigrationError(f"time_scale must be positive, got {time_scale}")
        self.page_table = page_table
        self.frames = frames
        self.mechanism = mechanism
        self.interval = interval
        self.time_scale = time_scale
        self.injector = injector
        self.retry_policy = retry_policy
        self.fallback_mechanism = fallback_mechanism
        self.topology = topology
        self.socket = socket
        self.log = MigrationLog()
        self._interval_index = -1
        self._retry_queue: list[_PendingRetry] = []
        #: Optional ObsContext; the engine wires it in.  The planner emits
        #: per-order lifecycle events and migration provenance records.
        self.obs = None

    def _prov(
        self, stage: str, page_start: int, npages: int, src: int, dst: int,
        reason: str = "", score: float = 0.0, attempt: int = 0,
        detail: str = "",
    ) -> None:
        if self.obs is not None:
            self.obs.record_provenance(
                self._interval_index, stage, page_start, npages, src, dst,
                reason=reason, score=score, attempt=attempt, detail=detail,
            )

    @property
    def pending_retries(self) -> int:
        """Orders currently waiting in the backoff queue."""
        return len(self._retry_queue)

    def execute(self, orders: list[MigrationOrder], mmu: Mmu | None = None) -> MigrationTiming:
        """Run all orders sequentially; returns the summed timing.

        Orders are validated against live page-table state: pages that are
        no longer on the claimed source node are dropped from the order
        (a later order may have raced an earlier one in policy space).
        Due retries from earlier intervals run first — they were promised
        the capacity their backoff was waiting for.
        """
        self._interval_index += 1
        total = MigrationTiming()
        due = [p for p in self._retry_queue if p.due_interval <= self._interval_index]
        if due:
            self._retry_queue = [
                p for p in self._retry_queue if p.due_interval > self._interval_index
            ]
        for pending in due:
            if self.obs is not None:
                pages = np.asarray(pending.order.pages)
                self.obs.emit(
                    EV_MIG_RETRIED, interval=self._interval_index,
                    disposition="executing", attempt=pending.failures,
                    pages=int(pages.size), src=pending.order.src_node,
                    dst=pending.order.dst_node,
                )
            timing = self._attempt(pending.order, mmu, failures=pending.failures)
            if timing is None:
                continue
            self.log.retries_succeeded += 1
            self._accumulate(total, timing)
        for order in orders:
            timing = self._attempt(order, mmu, failures=0)
            if timing is None:
                continue
            self._accumulate(total, timing)
        self.log.critical_time += total.critical_time
        self.log.background_time += total.background_time
        return total

    def drain_retries(self, mmu: Mmu | None = None) -> MigrationTiming:
        """One interval of retry-queue-only work (degraded mode).

        The watchdog sheds *new* migration work during a degraded
        interval; the backlog still drains so backed-off orders complete.
        """
        return self.execute([], mmu)

    # -- internals --------------------------------------------------------------

    def _attempt(
        self, order: MigrationOrder, mmu: Mmu | None, failures: int
    ) -> MigrationTiming | None:
        pages = np.asarray(order.pages, dtype=np.int64)
        on_src = self.page_table.node[pages] == order.src_node
        pages = pages[on_src]
        if pages.size == 0:
            self.log.orders_skipped += 1
            return None

        if self.obs is not None:
            self.obs.emit(
                EV_MIG_PLANNED, interval=self._interval_index,
                pages=int(pages.size), src=order.src_node,
                dst=order.dst_node, reason=order.reason,
                score=float(order.score), attempt=failures,
            )
            self._prov(STAGE_PLANNED, int(pages[0]), int(pages.size),
                       order.src_node, order.dst_node, order.reason,
                       float(order.score), failures)

        total = MigrationTiming()

        # Destination capacity: demote resident pages to make room for a
        # promotion instead of silently dropping the move (the planner
        # used to under-promote at high fill ratios); failing that, back
        # off and retry when space may have appeared.
        if not self.frames.can_fit(order.dst_node, int(pages.size)):
            demote_timing = None
            if order.reason == "promotion":
                shortfall = int(pages.size) - self.frames.free_pages(order.dst_node)
                demote_timing = self._demote_for_room(order.dst_node, shortfall, pages, mmu)
            if demote_timing is not None:
                self._accumulate(total, demote_timing)
            if not self.frames.can_fit(order.dst_node, int(pages.size)):
                self.log.orders_skipped += 1
                self._transient_failure(
                    self._suborder(order, pages),
                    failures + 1,
                    TierPressureError(
                        f"node {order.dst_node} cannot take {pages.size} pages",
                        tier=order.dst_node,
                        region=int(pages[0]),
                        interval=self._interval_index,
                    ),
                )
                return total if total.critical_time or total.background_time else None

        # Injected ENOMEM: the kernel's allocator says no even though the
        # accountant shows room (fragmentation, reserves).  Recovery is
        # demote-before-promote re-planning: push cold residents one tier
        # down to relieve the pressure, then proceed with the move.
        if self.injector is not None and self.injector.tier_pressure(order.dst_node):
            self.log.enomem_events += 1
            demote_timing = self._demote_for_room(
                order.dst_node, int(pages.size), pages, mmu
            )
            if demote_timing is None:
                self.log.orders_skipped += 1
                self._transient_failure(
                    self._suborder(order, pages),
                    failures + 1,
                    TierPressureError(
                        f"node {order.dst_node} allocation failed under pressure",
                        tier=order.dst_node,
                        region=int(pages[0]),
                        interval=self._interval_index,
                    ),
                )
                return None
            self._accumulate(total, demote_timing)

        # Injected EBUSY: a subset of the pages is pinned and fails to
        # move; the rest proceed, the pinned remainder is backed off.
        if self.injector is not None:
            busy_mask = self.injector.migration_busy_mask(int(pages.size))
            if busy_mask is not None:
                busy = pages[busy_mask]
                pages = pages[~busy_mask]
                self.log.busy_pages += int(busy.size)
                self.log.partial_orders += 1
                self._transient_failure(
                    self._suborder(order, busy),
                    failures + 1,
                    MigrationBusyError(
                        f"{busy.size} of {busy.size + pages.size} pages are pinned",
                        tier=order.src_node,
                        region=int(busy[0]),
                        interval=self._interval_index,
                    ),
                )
                if pages.size == 0:
                    return total if total.critical_time or total.background_time else None

        mechanism = self.mechanism
        if (
            self.retry_policy is not None
            and self.fallback_mechanism is not None
            and failures >= self.retry_policy.fallback_after
        ):
            mechanism = self.fallback_mechanism
            self.log.fallback_moves += 1
            self._prov(STAGE_FALLBACK, int(pages[0]), int(pages.size),
                       order.src_node, order.dst_node, order.reason,
                       float(order.score), failures,
                       detail=mechanism.name)

        move_timing = self._commit_move(
            pages, order.src_node, order.dst_node, order.reason, mmu, mechanism
        )
        self._accumulate(total, move_timing)
        return total

    def _suborder(self, order: MigrationOrder, pages: np.ndarray) -> MigrationOrder:
        return MigrationOrder(
            pages=pages,
            src_node=order.src_node,
            dst_node=order.dst_node,
            reason=order.reason,
            score=order.score,
        )

    def _transient_failure(
        self, order: MigrationOrder, failures: int, error: Exception
    ) -> None:
        """Queue a failed order for backoff retry, or raise in fail-fast mode."""
        if self.obs is not None:
            pages = np.asarray(order.pages)
            start = int(pages[0]) if pages.size else -1
            stage = STAGE_BUSY if isinstance(error, MigrationBusyError) else STAGE_PRESSURE
            self._prov(stage, start, int(pages.size), order.src_node,
                       order.dst_node, order.reason, float(order.score),
                       failures, detail=type(error).__name__)
        if self.retry_policy is None:
            if self.obs is not None:
                self.obs.emit(
                    EV_MIG_FAILED, interval=self._interval_index,
                    disposition="fail-fast", attempt=failures,
                    error=type(error).__name__,
                )
            raise error
        self.log.retry_histogram[failures] = self.log.retry_histogram.get(failures, 0) + 1
        if failures >= self.retry_policy.max_attempts:
            self.log.retries_exhausted += 1
            if self.obs is not None:
                pages = np.asarray(order.pages)
                start = int(pages[0]) if pages.size else -1
                self._prov(STAGE_EXHAUSTED, start, int(pages.size),
                           order.src_node, order.dst_node, order.reason,
                           float(order.score), failures)
                self.obs.emit(
                    EV_MIG_FAILED, interval=self._interval_index,
                    disposition="exhausted", attempt=failures,
                    pages=int(pages.size), src=order.src_node,
                    dst=order.dst_node,
                )
            return
        delay = self.retry_policy.delay_intervals(failures)
        self._retry_queue.append(
            _PendingRetry(order, failures, self._interval_index + delay)
        )
        self.log.retries_scheduled += 1
        if self.obs is not None:
            pages = np.asarray(order.pages)
            start = int(pages[0]) if pages.size else -1
            self._prov(STAGE_RETRY, start, int(pages.size), order.src_node,
                       order.dst_node, order.reason, float(order.score),
                       failures, detail=f"due interval {self._interval_index + delay}")
            self.obs.emit(
                EV_MIG_RETRIED, interval=self._interval_index,
                disposition="scheduled", attempt=failures,
                due=self._interval_index + delay, pages=int(pages.size),
            )

    def _demote_for_room(
        self,
        dst_node: int,
        need_pages: int,
        exclude: np.ndarray,
        mmu: Mmu | None,
    ) -> MigrationTiming | None:
        """Demote cold residents of ``dst_node`` one tier down.

        Victims are pages on the destination that the current interval's
        access batch did not touch (the coldest observable choice the
        planner can make without a profiler), taken from the top of the
        component so repeated calls walk distinct ranges.  Returns the
        demotion's timing, or None when no lower tier has room or the
        planner has no topology to rank tiers with.
        """
        if self.topology is None or need_pages <= 0:
            return None
        view = self.topology.view(self.socket)
        dst_tier = view.tier_of(dst_node)
        lower_node = None
        for tier in range(dst_tier + 1, view.num_tiers + 1):
            node = view.node_at_tier(tier)
            if self.frames.free_pages(node) >= need_pages:
                lower_node = node
                break
        if lower_node is None:
            return None
        resident = np.flatnonzero(self.page_table.node == dst_node)
        if exclude.size:
            resident = resident[~np.isin(resident, exclude)]
        if resident.size < need_pages:
            return None
        batch = getattr(mmu, "_current_batch", None) if mmu is not None else None
        if batch is not None:
            touched = np.isin(resident, batch.pages)
            resident = np.concatenate([resident[~touched], resident[touched]])
        victims = resident[:need_pages]
        self._prov(STAGE_DEMOTE_FOR_ROOM, int(victims[0]), int(victims.size),
                   dst_node, lower_node, "demotion")
        timing = self._commit_move(
            victims, dst_node, lower_node, "demotion", mmu, self.mechanism
        )
        self.log.demoted_for_room_pages += int(victims.size)
        return timing

    def _commit_move(
        self,
        pages: np.ndarray,
        src_node: int,
        dst_node: int,
        reason: str,
        mmu: Mmu | None,
        mechanism: Mechanism,
    ) -> MigrationTiming:
        """Apply one validated move: tear huge pages, time it, commit it."""
        torn = self._tear_partial_huge_pages(pages)
        self.log.huge_pages_torn += torn

        # The kernel moves one 2 MB region at a time (Fig. 3's unit), so a
        # large order is a sequence of region moves — each with its own
        # write-tracking window, so one written huge page only forces *its*
        # chunk to the synchronous path, not the whole order.
        timing = MigrationTiming()
        writes_per_chunk: np.ndarray | None = None
        if mmu is not None and self.interval > 0 and pages.size:
            # Group the per-chunk "writes over distinct entries" sums into
            # one pass: resolve every page's entry once, dedupe
            # (chunk, entry) pairs, and bincount the write counts per
            # chunk.  The timing calls below keep their exact per-chunk
            # order and arguments (they draw from the mechanism's RNG).
            ents_all = self.page_table.entry_index(pages)
            n_chunks = (int(pages.size) + PAGES_PER_HUGE_PAGE - 1) // PAGES_PER_HUGE_PAGE
            chunk_ids = np.arange(pages.size, dtype=np.int64) // PAGES_PER_HUGE_PAGE
            keys = nputil.unique(chunk_ids * np.int64(self.page_table.n_pages) + ents_all)
            writes_per_chunk = np.bincount(
                keys // self.page_table.n_pages,
                weights=mmu.entry_write_count(keys % self.page_table.n_pages).astype(
                    np.float64
                ),
                minlength=n_chunks,
            )
        for lo in range(0, int(pages.size), PAGES_PER_HUGE_PAGE):
            chunk = pages[lo : lo + PAGES_PER_HUGE_PAGE]
            write_rate = 0.0
            if writes_per_chunk is not None:
                write_rate = int(writes_per_chunk[lo // PAGES_PER_HUGE_PAGE]) / self.interval
            chunk_timing = mechanism.timing(
                int(chunk.size), src_node, dst_node, write_rate=write_rate
            )
            self._accumulate(timing, chunk_timing)
        if self.time_scale != 1.0:
            for step in (
                "allocate", "unmap_remap", "copy", "migrate_page_table", "dirtiness_tracking",
            ):
                setattr(timing.critical, step, getattr(timing.critical, step) * self.time_scale)
                setattr(timing.background, step, getattr(timing.background, step) * self.time_scale)

        self.page_table.move_pages(pages, dst_node)
        self.frames.move(src_node, dst_node, int(pages.size))

        self.log.orders_executed += 1
        if reason == "promotion":
            self.log.promoted_pages += int(pages.size)
        else:
            self.log.demoted_pages += int(pages.size)
        if timing.switched_to_sync:
            self.log.sync_switches += 1
        self.log.extra_copied_pages += timing.extra_copied_pages
        if self.obs is not None:
            self.obs.emit(
                EV_MIG_ISSUED, interval=self._interval_index,
                pages=int(pages.size), src=src_node, dst=dst_node,
                reason=reason, mechanism=mechanism.name,
                critical_time=timing.critical_time,
                background_time=timing.background_time, torn=torn,
            )
            self._prov(STAGE_COMMITTED, int(pages[0]), int(pages.size),
                       src_node, dst_node, reason, detail=mechanism.name)
        return timing

    def _tear_partial_huge_pages(self, pages: np.ndarray) -> int:
        """Split huge mappings the order covers only partially.

        A huge page must live on one node; migrating a strict subset of
        its base pages forces the kernel to split it first.  Huge-aware
        orders (MTM's) never trigger this; DAMON-shaped regions can.
        """
        huge_mask = self.page_table.is_huge(pages)
        if not np.any(huge_mask):
            return 0
        heads = nputil.unique(pages[huge_mask] - (pages[huge_mask] % PAGES_PER_HUGE_PAGE))
        # A head's 2 MB span is fully covered iff the order holds all 512
        # distinct base pages of [head, head + 512) — countable with two
        # searchsorted passes over the sorted unique pages.
        uniq = nputil.unique(pages)
        lo = np.searchsorted(uniq, heads)
        hi = np.searchsorted(uniq, heads + PAGES_PER_HUGE_PAGE)
        torn = 0
        for head in heads[(hi - lo) != PAGES_PER_HUGE_PAGE]:
            self.page_table.split_huge(int(head))
            torn += 1
        return torn

    @staticmethod
    def _accumulate(total: MigrationTiming, timing: MigrationTiming) -> None:
        for step in ("allocate", "unmap_remap", "copy", "migrate_page_table", "dirtiness_tracking"):
            setattr(total.critical, step, getattr(total.critical, step) + getattr(timing.critical, step))
            setattr(total.background, step, getattr(total.background, step) + getattr(timing.background, step))
        total.switched_to_sync = total.switched_to_sync or timing.switched_to_sync
        total.extra_copied_pages += timing.extra_copied_pages

    def sanity_check(self) -> None:
        """Verify frame accounting matches the page table (tests)."""
        for node in self.frames.snapshot():
            actual = self.page_table.pages_on_node(node)
            tracked = self.frames.used_pages(node)
            if actual != tracked:
                raise MigrationError(
                    f"node {node}: page table has {actual} pages, accountant {tracked}"
                )
