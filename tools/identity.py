"""Print sha256 digests of cgmflow's outputs on a fixed run set, to check bit identity.

Usage: python3 tools/identity.py [SRC]

SRC is the directory to import cgmflow from (default: this checkout's
src/), so the same run set can be hashed at two commits on one host:

    python3 tools/identity.py /path/to/other/checkout/src

Two lines come out, each one sha256 over the tables (dtype and bytes)
and every report's to_dict() without its wall times:

    run_dca            under L, M and R on the dca-wide and dca-pop panels of
                       seeds 901 and 902, tiny seeds 200-259 (N <= 4, R <= 3,
                       M <= 6) and make_mixed_instance with M = 6, 12 and 40
    solve_approximate  on the seed-901 relax panel and make_mixed_instance

The panels are perfbench/run.py's write_panel files and the small instances
come from tests/conftest.py, both taken from this checkout.  The digests
depend on the numpy and libm builds, so compare them on one host only.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def without_wall_times(doc):
    """doc with every "wall_time" key dropped, at any depth."""
    if isinstance(doc, dict):
        return {k: without_wall_times(v) for k, v in doc.items() if k != "wall_time"}
    if isinstance(doc, list):
        return [without_wall_times(v) for v in doc]
    return doc


def absorb(digest, tables, report) -> None:
    """Feed one solve's tables and report into digest."""
    for table in (tables.node, tables.edge):
        digest.update(str(table.dtype).encode())
        digest.update(table.tobytes())
    doc = without_wall_times(report.to_dict())
    digest.update(json.dumps(doc, sort_keys=True).encode())


def main(argv: list) -> int:
    src = Path(argv[0] if argv else ROOT / "src").resolve()
    if not (src / "cgmflow" / "__init__.py").is_file():
        print(f"error: no cgmflow sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import cgmflow
    from conftest import make_mixed_instance, make_tiny_instance
    from run import WORKLOADS, write_panel

    if Path(cgmflow.__file__).resolve().parent != src / "cgmflow":
        print(f"error: imported cgmflow from {cgmflow.__file__}", file=sys.stderr)
        return 2
    mixed = [make_mixed_instance(M) for M in (6, 12, 40)]
    with tempfile.TemporaryDirectory() as tmp:

        def panel(name: str, seed: int) -> list:
            paths = write_panel(name, WORKLOADS[name], seed, Path(tmp, name, str(seed)))
            return [cgmflow.load_instance(path) for path in paths]

        dca_set = [inst for name in ("dca-wide", "dca-pop") for seed in (901, 902)
                   for inst in panel(name, seed)]
        relax_set = panel("relax", 901) + mixed
    dca_set += [make_tiny_instance(seed, max_steps=4, max_states=3, max_population=6)
                for seed in range(200, 260)]
    dca_set += mixed

    dca = hashlib.sha256()
    for strategy in cgmflow.AlphaStrategy:
        for inst in dca_set:
            absorb(dca, *cgmflow.run_dca(inst, cgmflow.DcaConfig(strategy=strategy)))
    relax = hashlib.sha256()
    for inst in relax_set:
        absorb(relax, *cgmflow.solve_approximate(inst))
    print(f"run_dca {dca.hexdigest()}")
    print(f"solve_approximate {relax.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
