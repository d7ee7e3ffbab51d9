"""Set-up probe: one fresh interpreter, from start to a parsed workload config.

Usage: ``python3 rmpbench/probe.py <workload> <seed>``.  Prints one JSON
line with the ``time.perf_counter()`` reading at the end (CLOCK_MONOTONIC,
shared by every process on the machine, so the parent can subtract its
own reading taken just before it started this process), and the time
spent importing rmplab and parsing the config.  The workload file is
read with the standard library alone, so nothing of rmplab, numpy or
scipy is imported before the timed import.
"""
import json
import sys
import time
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    workload, seed = sys.argv[1], int(sys.argv[2])
    raw = json.loads((here / "workloads" / f"{workload}.json").read_text(encoding="utf-8"))
    config = raw["config"]
    config["ensemble"]["master_seed"] = seed
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import rmplab
    from rmplab import runner  # noqa: F401  (everything an op needs, as the CLI imports it)
    from rmplab.config import config_from_dict

    t1 = time.perf_counter()
    config_from_dict(config)
    t2 = time.perf_counter()
    if not Path(rmplab.__file__).resolve().is_relative_to(src):
        print(f"rmplab imported from {rmplab.__file__}, not {src}", file=sys.stderr)
        return 2
    print(json.dumps({"end": t2, "import_s": t1 - t0, "parse_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
