"""Print the sha256 and relative error of every pipeline's saved model on the benchmark inputs.

For each workload of ``perfbench/workloads.py`` (tucker-200, hilbert-100 and
image-256 on its seed-0 image), each of the five pipelines and each trial
seed j in 0 and 1, the pipeline runs as a benchmark library trial does, with
``ApproxConfig(target_ranks=ranks, seed=j)`` and ``RngStream(j)``, and the
model's ``.tuck`` container is hashed. Each line ends with the model's
relative error ``relative_error(x, reconstruct(model))`` as its ``repr``, so a
change that moves bits shows by how much. A refactor that keeps behaviour
keeps every line; run it on two checkouts and diff the outputs:

    python tools/model_hashes.py > hashes.txt

It imports ``tucksketch`` from ``src/`` and the input builder from
``perfbench/`` of the checkout that holds this script, pins OpenBLAS to one
thread before NumPy loads (a threaded BLAS may round differently), and writes
its files to a temporary directory.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

SEEDS = (0, 1)


def main() -> int:
    tucker = workloads.tucker
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "model.tuck")
        for wl in workloads.WORKLOADS.values():
            x = workloads.build_input(wl.name, 0, workdir).x
            for key, name in workloads.PIPELINES.items():
                fn = getattr(tucker, name)
                for j in SEEDS:
                    cfg = workloads.ApproxConfig(target_ranks=wl.ranks, seed=j)
                    model = fn(x, cfg, workloads.RngStream(j)) if key in workloads.RANDOMIZED else fn(x, cfg)
                    tucker.save_model(model, path)
                    digest = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
                    err = workloads.metrics.relative_error(x, tucker.reconstruct(model))
                    print(f"{wl.name} {key} seed {j} {digest} {err!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
