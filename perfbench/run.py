"""tucksketch benchmark: five Tucker pipelines per workload, timed end to end and by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tucker-200 --seed 1 --seconds 20 --trace 0

A trial is one pipeline call with a fresh ``RngStream``, then ``reconstruct``,
then ``relative_error``: one ``tucksketch bench`` row (on ``image-256``, one
``image-compress`` command). Trials run closed loop, one at a time, in one
process, in a number of rounds of all five pipelines that ``--seconds`` fixes
(see ``workloads.py``), so every count, error and model hash repeats exactly.

``--trace 0`` reports the end-to-end metrics. A pipeline's ``<algo>_trial_ms``
is its fastest trial in the run; the report lines add the median, the highest
percentile with ten samples beyond it and the sample count. On a shared
2-core box whose speed switches between two levels for tens of seconds at a
time, the median over a run moved with the share of the run spent in the slow
state (run-to-run spreads up to 28%), while the fastest trial moved 3-18%.

``--trace 1`` wraps the package's public functions (see ``layertrace.py``),
traces every even-numbered trial of each pipeline, leaves the odd ones
untraced, reports the per-layer metrics and prints the tracing overhead of
each trial time (traced minus untraced, fastest and median). The last line of
standard output is the JSON result; a fuller report and, when traced, the
spans go to ``.perfbench/``.

OpenBLAS is pinned to one thread before NumPy loads: on a 2-core x86-64 box,
Sketch-STHOSVD on Hilbert 100^3 took a 48 ms median with a 22 ms interquartile
range on two threads, and 16 ms with 5 ms on one.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up samples per run, spread through the trials: on a shared box whose
# speed switches state for tens of seconds at a time, back-to-back samples
# all caught the same state.
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "tucksketch" / "__init__.py").is_file():
        _fail(f"no tucksketch sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import tucksketch

    if Path(tucksketch.__file__).resolve().parent != SRC / "tucksketch":
        _fail(f"imported tucksketch from {tucksketch.__file__}, not from {SRC}")
    return tucksketch


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment(tucksketch) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "tucksketch").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tucksketch": tucksketch.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def setup_sample(workload: str, seed: int, workdir: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if done.returncode != 0:
        _fail(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, and its value."""
    k = len(values) - 10
    if k < 1:
        return None
    return 100 * k // len(values), sorted(values)[k - 1]


def describe(values: list[float], unit: str) -> str:
    if not values:
        return "no samples"
    text = f"fastest {min(values):.4f} {unit}, median {statistics.median(values):.4f} {unit}, n={len(values)}"
    t = tail(values)
    return text + (f", p{t[0]} {t[1]:.4f} {unit}" if t else ", no percentile has 10 samples beyond it")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        _fail("--seconds must be at least 1")

    tucksketch = _import_package()
    from layertrace import Tracer, layer_metrics
    from workloads import PIPELINES, WORKLOADS, build_input, image_trial, library_trial, warm_up

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    def traced(j: int) -> bool:
        return bool(args.trace) and j % 2 == 0

    try:
        env = environment(tucksketch)
        tracer = Tracer()
        if args.trace:
            tracer.install()
        tracer.active = bool(args.trace)
        inp = build_input(wl.name, args.seed, str(workdir))
        tracer.active = False
        warm_up(wl, str(workdir))

        plan = wl.plan(args.seconds)
        probe_at = {i * len(plan) // SETUP_REPEATS for i in range(SETUP_REPEATS)}
        probes, trials = [], []
        for pos, (key, j) in enumerate(plan):
            if pos in probe_at:
                probes.append(setup_sample(wl.name, args.seed, workdir))
            tracer.trial = f"{key}/{j}"
            tracer.active = traced(j)
            if wl.name == "image-256":
                trial = image_trial(wl, key, j, inp, tracer, str(workdir))
            else:
                hash_path = str(workdir / "model.tuck") if j == 0 else None
                trial = library_trial(wl, key, j, inp, tracer, hash_path)
            trials.append(trial)
        tracer.active = False
        tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = [p["import_s"] + p["build_s"] for p in probes]
    digests = {p["digest"] for p in probes} | {inp.digest}
    failed = [t for t in trials if t.failure is not None]
    problems = [f"{t.key} j={t.j}: {t.failure}" for t in failed]
    if len(digests) != 1:
        problems.append(f"input differs between set-ups: {sorted(digests)}")

    lines = [f"env: {json.dumps(env, sort_keys=True)}",
             f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}: "
             f"{len(trials)} trials, {len(failed)} failed, "
             f"{sum(not t.passed for t in trials)} failed the output check"]
    end_to_end = {"setup_s": (statistics.median(setup), "s")}
    lines.append(f"setup_s: {describe(setup, 's')} (import {statistics.median(p['import_s'] for p in probes):.4f} s)")
    overhead = {}
    for key in PIPELINES:
        mine = [t for t in trials if t.key == key]
        plain = [t.ms for t in mine if not traced(t.j)]
        end_to_end[f"{key}_trial_ms"] = (min(plain), "ms")
        lines.append(f"{key}_trial_ms: {describe(plain, 'ms')}")
        if args.trace:
            with_trace = [t.ms for t in mine if traced(t.j)]
            overhead[f"{key}_trial_ms"] = {
                "fastest": min(with_trace) - min(plain),
                "median": statistics.median(with_trace) - statistics.median(plain),
            }
            lines.append(f"  traced: {describe(with_trace, 'ms')}; overhead "
                         f"{overhead[f'{key}_trial_ms']['fastest']:+.4f} ms fastest, "
                         f"{overhead[f'{key}_trial_ms']['median']:+.4f} ms median")
    for key in PIPELINES:
        errors = [t.rel_error for t in trials if t.key == key and t.rel_error is not None]
        value = statistics.median(errors) if errors else None
        end_to_end[f"{key}_rel_error"] = (value, "ratio")
        if errors:
            lines.append(f"{key}_rel_error: median {value:.6e} over seeds 0..{len(errors) - 1}, "
                         f"min {min(errors):.6e}, max {max(errors):.6e}")
        else:
            problems.append(f"{key}: no trial returned a model")
    end_to_end["passed_frac"] = (sum(t.passed for t in trials) / len(trials), "ratio")
    end_to_end["peak_rss_mb"] = (peak_rss_mb, "MB")
    lines.append(f"passed_frac: {end_to_end['passed_frac'][0]:.4f}; peak_rss_mb: {peak_rss_mb:.1f} MB")
    for t in trials:
        if not t.passed:
            lines.append(f"  check failed: {t.key} seed {t.j}: {t.failure or t.quality_failure}")
    hashes = {t.key: t.model_sha256 for t in trials if t.j == 0}
    lines.append(f"model sha256 (seed 0): {json.dumps(hashes)}")
    if args.trace:
        lines.append("tracing overhead: setup_s is measured in untraced fresh processes in both modes; "
                     "errors, passed_frac and hashes do not depend on tracing")

    warning_counts: dict[str, int] = {}
    for t in trials:
        if traced(t.j):
            for kind, n in t.warnings.items():
                warning_counts[kind] = warning_counts.get(kind, 0) + n
    layers = layer_metrics(tracer.spans, warning_counts) if args.trace else {}

    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(f"{stem}-spans.jsonl")
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup": probes,
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "per_layer": {k: v[0] for k, v in layers.items()},
        "tracing_overhead_ms": overhead, "model_sha256": hashes, "problems": problems,
        "trials": [vars(t) for t in trials],
    }
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    for line in lines + [f"problem: {p}" for p in problems]:
        print(line)
    chosen = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": not problems,
        "attempted": len(trials),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
