"""Golden-fingerprint corpus: the simulator's behaviour contract.

``tests/golden/fingerprints.json`` pins the full
:func:`tests.support.fingerprint` of a fixed set of runs at scale 1/512,
:data:`INTERVALS` intervals each:

* every Fig. 4 solution on gups, voltdb and bfs, with and without
  injected faults (rate 0.05, fault seed 123), at seed 3;
* mtm, hemem and damon on gups and voltdb at three more seeds, with and
  without faults;
* one snapshot/fork resume, one ``workers=2`` matrix, and one run on
  chunked page-table storage with chunks far smaller than the footprint.

Every run goes through the one hot path (:mod:`repro.kernels`), so any
change to simulated behaviour shows up here as a fingerprint diff.  The
corpus is regenerated only deliberately, when behaviour is meant to
change (for example a new trace epoch)::

    PYTHONPATH=src python -m tests.test_golden --update
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import pytest

from repro import perfflags
from repro.bench.runner import run_matrix
from repro.bench.scaling import BenchProfile
from repro.core.baselines import make_engine
from repro.faults.injector import FaultConfig, FaultInjector
from repro.sim.engine import SimulationEngine
from tests.support import (
    GOLDEN_PATH,
    fingerprint,
    load_golden,
    matrix_fingerprint,
    normalize,
)

SCALE = 1 / 512
INTERVALS = 6
SEED = 3
FAULT_RATE = 0.05
FAULT_SEED = 123

SOLUTIONS = ("first-touch", "hmc", "tiered-autonuma", "autotiering",
             "hemem", "thermostat", "damon", "mtm")
WORKLOADS = ("gups", "voltdb", "bfs")
SEED_SOLUTIONS = ("mtm", "hemem", "damon")
SEED_WORKLOADS = ("gups", "voltdb")
EXTRA_SEEDS = (17, 4242, 65535)


def golden_key(solution: str, workload: str, seed: int = SEED,
               fault_rate: float = 0.0) -> str:
    return f"{solution}/{workload}/seed{seed}/faults{fault_rate:g}"


def engine(solution: str, workload: str, seed: int = SEED,
           fault_rate: float = 0.0) -> SimulationEngine:
    injector = None
    if fault_rate > 0:
        injector = FaultInjector(FaultConfig.uniform(fault_rate), seed=FAULT_SEED)
    return make_engine(solution, workload, scale=SCALE, seed=seed,
                       injector=injector)


def run_fingerprint(solution: str, workload: str, seed: int = SEED,
                    fault_rate: float = 0.0):
    """Fingerprint of one straight run in the corpus configuration."""
    return fingerprint(engine(solution, workload, seed, fault_rate).run(INTERVALS))


def _fork_fingerprint():
    warm = engine("mtm", "voltdb", fault_rate=FAULT_RATE)
    for _ in range(INTERVALS // 2):
        warm.step()
    forked = SimulationEngine.fork(warm.snapshot())
    return fingerprint(forked.run(INTERVALS - INTERVALS // 2))


def _matrix_fingerprint():
    profile = BenchProfile(name="golden", scale=SCALE,
                           intervals={wl: INTERVALS for wl in SEED_WORKLOADS},
                           seed=SEED)
    return matrix_fingerprint(run_matrix(list(SEED_WORKLOADS),
                                         ["first-touch", "mtm"], profile,
                                         workers=2))


@contextmanager
def small_chunks(chunk_pages: int = 512):
    """Force chunked page tables with ``chunk_pages``-long chunks."""
    import repro.mm.pagetable as pagetable_mod

    prev = pagetable_mod.DEFAULT_CHUNK_PAGES
    pagetable_mod.DEFAULT_CHUNK_PAGES = chunk_pages
    try:
        with perfflags.chunked_mode(True):
            yield
    finally:
        pagetable_mod.DEFAULT_CHUNK_PAGES = prev


def _chunked_fingerprint():
    with small_chunks():
        return run_fingerprint("mtm", "gups")


def golden_cases() -> dict:
    """Corpus key -> zero-argument callable producing its fingerprint."""
    cases = {}
    for workload in WORKLOADS:
        for solution in SOLUTIONS:
            for rate in (0.0, FAULT_RATE):
                cases[golden_key(solution, workload, SEED, rate)] = (
                    lambda s=solution, w=workload, r=rate:
                    run_fingerprint(s, w, SEED, r))
    for seed in EXTRA_SEEDS:
        for workload in SEED_WORKLOADS:
            for solution in SEED_SOLUTIONS:
                for rate in (0.0, FAULT_RATE):
                    cases[golden_key(solution, workload, seed, rate)] = (
                        lambda s=solution, w=workload, sd=seed, r=rate:
                        run_fingerprint(s, w, sd, r))
    cases["fork/mtm/voltdb/seed3/faults0.05/branch3"] = _fork_fingerprint
    cases["matrix/workers2/gups,voltdb/first-touch,mtm/seed3"] = _matrix_fingerprint
    cases["chunked512/mtm/gups/seed3/faults0"] = _chunked_fingerprint
    return cases


CASES = golden_cases()


def test_corpus_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES),
                         ids=lambda key: key.replace("/", "-"))
def test_golden_fingerprint(key):
    assert normalize(CASES[key]()) == load_golden()[key]


def write_corpus(path=GOLDEN_PATH) -> None:
    """Recompute every case and rewrite the corpus, one entry per line."""
    lines = [f" {json.dumps(key)}: {json.dumps(normalize(fn()), sort_keys=True)}"
             for key, fn in sorted(CASES.items())]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.test_golden --update")
    write_corpus()
    print(f"wrote {len(CASES)} entries to {GOLDEN_PATH}")
