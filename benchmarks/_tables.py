"""Table printing shared by the benchmark suite.

Each benchmark prints the data series of its experiment (DESIGN.md E1-E12)
so the run log doubles as the reproduction record in EXPERIMENTS.md.
"""

from typing import Iterable, Sequence


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print()
    print("== %s ==" % title)
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))


#: Tables registered by benchmark modules, printed at session end by the
#: benchmarks conftest (so --benchmark-only runs still show them).
REGISTRY = []


def register_table(title: str, headers: Sequence[str], rows: list) -> None:
    """Register a (mutable) row list to be printed when the session ends."""
    REGISTRY.append((title, headers, rows))

