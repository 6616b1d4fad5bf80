"""lensfib benchmark: one seeded workload, end to end or traced.

Run from the root of a checkout:

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 40 --trace 0

Workloads: roundtrip, classify_census, enumerate, cli (see bench/README.md).
``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics of a traced run and writes its spans to
``bench/out/spans-<workload>.csv``.  One ``name value unit`` line per metric
and a few ``info`` lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 1 without a result when the checkout has no lensfib
sources under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import lensfib from
    there, never from anywhere else."""
    init = SRC / "lensfib" / "__init__.py"
    if not init.is_file():
        sys.exit(f"run.py: no lensfib sources at {init}")
    sys.path.insert(0, str(SRC))
    import lensfib

    if Path(lensfib.__file__).resolve() != init.resolve():
        sys.exit(f"run.py: lensfib was imported from {lensfib.__file__}, not {init}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    load_program()
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    if args.trace:
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{w.name}.csv"
        result = measure.traced(w, args.seed, args.seconds, spans_path=spans_path)
        result["info"]["spans_file"] = str(spans_path.relative_to(BENCH.parent))
    else:
        result = measure.end_to_end(w, args.seed, args.seconds)

    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value} {unit}")
    print(f"info result_digest {result['digest']}")
    for key, value in result["info"].items():
        print(f"info {key} {value}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
