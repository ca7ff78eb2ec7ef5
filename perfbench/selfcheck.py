"""Self-check of the benchmark: what must repeat does, and tracing changes no result.

Usage (from the root of a checkout):

    python3 perfbench/selfcheck.py [--seconds 3] [WORKLOAD ...]

For each workload it makes two traced runs with one seed, one untraced run
with that seed and one traced run with another seed, then checks:

* the two traced runs agree exactly on every error, on passed_frac, on the
  model hashes and on every per-layer count;
* the untraced run agrees with them on errors, passed_frac and hashes;
* another seed changes the randomized pipelines' errors where the seed drives
  the input (image-256) and changes nothing where the input is fixed
  (tucker-200, hilbert-100).

Exits 1 if any check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tucker-200", "hilbert-100", "image-256")
SEEDED = {"image-256"}
COUNTS = ("tucker.fallback_modes", "linalg.thin_svd.calls", "linalg.thin_svd.mnk",
          "linalg.orthonormalize.calls", "linalg.thin_qr.calls", "linalg.rank_deficient_solves",
          "linalg.clamped_sketch_modes", "rng.normal.draws", "rng.gaussian_matrix.calls",
          "tensor.unfold.calls", "tensor.unfold.copy_bytes", "imageio.bytes")
RANDOMIZED_ERRORS = ("rsthosvd_rel_error", "sketch_rel_error", "subsketch_rel_error")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"run failed:\n{done.stderr}")
    report = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {
        "errors": {k: v for k, v in report["end_to_end"].items() if k.endswith("_rel_error")},
        "passed_frac": report["end_to_end"]["passed_frac"],
        "hashes": report["model_sha256"],
        "counts": {k: report["per_layer"][k] for k in COUNTS} if trace else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    ok = True

    def check(label: str, good: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}{': ' + detail if detail and not good else ''}")

    for wl in args.workloads:
        first = run(wl, args.seed, args.seconds, 1)
        second = run(wl, args.seed, args.seconds, 1)
        plain = run(wl, args.seed, args.seconds, 0)
        other = run(wl, args.seed + 1, args.seconds, 1)
        check(f"{wl}: same seed, same errors, passed_frac, hashes and counts", first == second,
              f"{first} != {second}")
        check(f"{wl}: tracing changes no error, passed_frac or hash",
              {k: first[k] for k in ("errors", "passed_frac", "hashes")}
              == {k: plain[k] for k in ("errors", "passed_frac", "hashes")})
        moved = [k for k in RANDOMIZED_ERRORS if other["errors"][k] != first["errors"][k]]
        if wl in SEEDED:
            check(f"{wl}: another seed changes every randomized error", len(moved) == len(RANDOMIZED_ERRORS),
                  f"unchanged: {sorted(set(RANDOMIZED_ERRORS) - set(moved))}")
        else:
            check(f"{wl}: fixed input, so another seed changes nothing", other == first, f"{first} != {other}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
