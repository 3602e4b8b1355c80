"""Fixture: hot-path allocations inside the collection q-gram walk."""


def walk(blocks, graphs):
    out = []
    for block in blocks:
        rows = list(block.rows)
        keys = tuple(block.keys)
        profile = extract_qgrams(graphs[0], 3)  # noqa: F821
        out.append((rows, keys, profile))
    while out:
        last = list(out)  # repro: ignore[hot-path-alloc]
        out.pop()
    return out
