"""Extension benchmark — out-of-core sharded join under a memory cap.

Not a paper figure: demonstrates the robustness contract of
``gsim_join_sharded``.  Two claims are measured and asserted, and the
sharded join is also timed without a cap at one and two workers (pair
tasks on a process pool):

* **Bounded memory.**  Under a hard address-space cap (RLIMIT_AS set to
  the post-import footprint plus a fixed headroom) the in-memory join
  dies of ``MemoryError`` while the sharded join — streaming survey,
  size-banded shard files, spill-to-disk queues, logical memory budget
  — completes and reproduces the unrestricted run's result fingerprint.
* **Crash recovery.**  A sacrificial subprocess is killed at every
  lifecycle stage (first verification, mid-shard, last verification,
  the merge boundary) and resumed; each resume must land on the same
  fingerprint.

Both claims run on two collections of the same size: independent random
molecules, whose join has no result pairs, and the same kind of
collection in which some molecules have a copy one edit away, whose
join must have result pairs — a fingerprint over an empty result
proves little.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

from workloads import format_table, write_series

from repro import gsim_join
from repro.core.sharded import gsim_join_sharded, result_fingerprint
from repro.graph import assign_ids, save_graphs
from repro.graph.generators import ATOM_LABELS, BOND_LABELS, random_molecule
from repro.graph.operations import perturb

TAU = 1
SHARDS = 16
HEADROOM_MB = 48
NUM_GRAPHS = 700
#: Molecules with a copy one edit away in the near-duplicate cell (each
#: result pair costs a GED verification of 60-120-vertex graphs).
DUPLICATES = 50

SRC = str(Path(__file__).resolve().parent.parent / "src")

CAPPED_IN_MEMORY = """
import resource, sys
from repro.core.join import gsim_join
from repro.graph import load_graphs

collection, headroom_mb = sys.argv[1], int(sys.argv[2])
with open("/proc/self/statm") as f:
    vm_now = int(f.read().split()[0]) * resource.getpagesize()
cap = vm_now + headroom_mb * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
try:
    gsim_join(load_graphs(collection), {tau})
except MemoryError:
    sys.exit(7)
sys.exit(0)
""".format(tau=TAU)

CAPPED_SHARDED = """
import resource, sys
from repro.core.sharded import gsim_join_sharded, result_fingerprint

collection, spill_dir, headroom_mb, workers = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
)
with open("/proc/self/statm") as f:
    vm_now = int(f.read().split()[0]) * resource.getpagesize()
cap = vm_now + headroom_mb * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
result = gsim_join_sharded(
    collection, {tau}, spill_dir=spill_dir, shards={shards},
    memory_budget_mb=8, workers=workers,
)
print(result_fingerprint(result))
""".format(tau=TAU, shards=SHARDS)

KILLED_SHARDED = """
import sys
from repro.core.sharded import gsim_join_sharded
from repro.runtime import FaultPlan

collection, spill_dir, kill_at = sys.argv[1], sys.argv[2], int(sys.argv[3])
gsim_join_sharded(
    collection, {tau}, spill_dir=spill_dir, shards={shards},
    fault=FaultPlan("kill", at=kill_at),
)
""".format(tau=TAU, shards=SHARDS)


def _run(driver, *args, timeout=600):
    return subprocess.run(
        [sys.executable, "-c", driver, *[str(a) for a in args]],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        timeout=timeout,
    )


def random_molecules(rng, n=NUM_GRAPHS):
    """``n`` independent molecules (their join has no results)."""
    return [random_molecule(rng, rng.randint(60, 120)) for _ in range(n)]


def near_duplicates(rng):
    """``NUM_GRAPHS`` molecules, ``DUPLICATES`` of them copies one edit
    away from another."""
    graphs = random_molecules(rng, NUM_GRAPHS - DUPLICATES)
    graphs += [
        perturb(base, 1, rng, ATOM_LABELS, BOND_LABELS)
        for base in graphs[:DUPLICATES]
    ]
    rng.shuffle(graphs)
    return graphs


def run_cell(graphs, tmp_path):
    """Measure both claims on one collection; returns the table rows."""
    collection = tmp_path / "collection.txt"
    save_graphs(graphs, collection)
    rows = []
    started = time.perf_counter()
    reference = gsim_join(graphs, TAU)
    fingerprint = result_fingerprint(reference)
    rows.append([
        "in-memory, uncapped", f"{time.perf_counter() - started:.2f}",
        "ok", reference.stats.results,
    ])

    started = time.perf_counter()
    capped = _run(CAPPED_IN_MEMORY, collection, HEADROOM_MB)
    assert capped.returncode != 0, "in-memory join survived the cap"
    rows.append([
        f"in-memory, {HEADROOM_MB}MB cap",
        f"{time.perf_counter() - started:.2f}", "MemoryError", "-",
    ])

    # Sharded without a cap, one process and pair tasks on two workers
    # (forked workers inherit the cap in the capped rows below).
    for workers in (1, 2):
        started = time.perf_counter()
        uncapped = gsim_join_sharded(
            collection, TAU, spill_dir=tmp_path / f"spill-uncapped-{workers}",
            shards=SHARDS, workers=workers,
        )
        elapsed = time.perf_counter() - started
        assert result_fingerprint(uncapped) == fingerprint
        rows.append([
            f"sharded, uncapped, workers={workers}", f"{elapsed:.2f}",
            "ok (fp match)", uncapped.stats.results,
        ])

    for workers, label in ((1, ""), (2, ", workers=2")):
        started = time.perf_counter()
        sharded = _run(
            CAPPED_SHARDED, collection, tmp_path / f"spill-capped-{workers}",
            HEADROOM_MB, workers,
        )
        assert sharded.returncode == 0, sharded.stderr.decode()
        assert sharded.stdout.decode().strip() == fingerprint
        rows.append([
            f"sharded, {HEADROOM_MB}MB cap{label}",
            f"{time.perf_counter() - started:.2f}", "ok (fp match)",
            reference.stats.results,
        ])

    # Crash recovery: kill at each lifecycle stage, resume, compare.
    clean = gsim_join_sharded(
        collection, TAU, spill_dir=tmp_path / "spill-clean", shards=SHARDS
    )
    assert result_fingerprint(clean) == fingerprint
    total = clean.stats.cand1
    stages = [
        ("first verification", 1),
        ("mid-shard", max(1, total // 2)),
        ("last verification", max(1, total)),
        ("merge boundary", total + 1),
    ]
    for label, kill_at in stages:
        spill = tmp_path / f"spill-kill-{kill_at}"
        started = time.perf_counter()
        proc = _run(KILLED_SHARDED, collection, spill, kill_at)
        assert proc.returncode == 1, proc.stderr.decode()
        resumed = gsim_join_sharded(
            collection, TAU, spill_dir=spill, shards=SHARDS, resume=True
        )
        assert result_fingerprint(resumed) == fingerprint
        rows.append([
            f"kill at {label} + resume",
            f"{time.perf_counter() - started:.2f}", "ok (fp match)",
            resumed.stats.results,
        ])
    return reference.stats.results, rows


def test_outofcore_sharded_join(benchmark, tmp_path):
    if sys.platform != "linux":
        import pytest

        pytest.skip("needs /proc and RLIMIT_AS")

    cells = [
        ("random molecules", random_molecules),
        ("near-duplicates", near_duplicates),
    ]

    def compute():
        tables = []
        for k, (name, generate) in enumerate(cells):
            graphs = assign_ids(generate(random.Random(71)))
            cell_dir = tmp_path / f"cell-{k}"
            cell_dir.mkdir()
            results, rows = run_cell(graphs, cell_dir)
            if generate is near_duplicates:
                assert results > 0, "near-duplicate join found no pairs"
            tables.append(format_table(
                f"Extension: out-of-core sharded join, {name} "
                f"({NUM_GRAPHS} graphs, tau={TAU}, {SHARDS} shards)",
                ["mode", "time (s)", "outcome", "results"],
                rows,
            ))
        return "\n\n".join(tables)

    table = benchmark.pedantic(compute, rounds=1, iterations=1)
    write_series("outofcore", table, [])
    print("\n" + table)
