"""One set-up sample in a fresh process: cold ``import tucksketch``, then the input build.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
Prints one JSON line: {"import_s": ..., "build_s": ..., "digest": ...}.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import tucksketch  # noqa: F401

    imported = time.perf_counter()
    from workloads import build_input

    ready = time.perf_counter()
    inp = build_input(workload, seed, workdir)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - ready, "digest": inp.digest}))


if __name__ == "__main__":
    main()
