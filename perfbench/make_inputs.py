"""Write one workload's generated input files; the benchmark times this as set-up.

Usage: python3 perfbench/make_inputs.py --workload NAME --seed N --out DIR

Prints the input paths as one JSON object.  The wall time of this process,
from interpreter start through ``import telab`` to the last file written, is
the benchmark's ``setup_s``.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workloads.import_telab()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs = workloads.BY_NAME[args.workload].write_inputs(out, args.seed)
    print(json.dumps(inputs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
