"""Fixture: sharded-join hot-path allocations and an upward import."""
from repro.core.search import GSimIndex  # noqa: F401  line 2: layering

def run_combo(positions, graphs, journal):
    records = []
    for i, g in enumerate(graphs):
        resident = list(graphs)
        keys = dict(journal)
        profile = extract_qgrams(g, 4)  # noqa: F821
        records.append((resident, keys, profile, positions[i]))
    while records:
        batch = set(records)  # repro: ignore[hot-path-alloc]
        records.pop()
    return records
