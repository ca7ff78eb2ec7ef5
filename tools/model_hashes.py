"""Print the sha256 of the benchmark inputs, and of every pipeline's saved model on them with its relative error.

For each workload of ``perfbench/workloads.py`` (tucker-200, hilbert-100 and
image-256 on its seed-0 image), each of the five pipelines and each trial
seed j in 0 and 1, the pipeline of ``tucksketch.bench.ALGORITHMS`` runs as
``fn(x, ApproxConfig(target_ranks=ranks, seed=j))``, so the randomized ones
draw from ``RngStream(j)`` as a benchmark library trial does, and the
model's ``.tuck`` container is hashed: 30 model lines. Then come seed-0
lines of the five pipelines on the small inputs of ``SMALL``, which reach
paths the workloads miss: a tall unfolding, unfoldings under 64 columns (a
Gaussian Omega), order 4, a row-major layout and a processing order other
than the natural one (25 lines), and last the paper's sparse family,
``SparseGenConfig(n=100, gamma=10.0, seed=0)`` at ranks (10, 10, 10) (5
lines). Each model line ends with the model's relative error
``relative_error(x, reconstruct(model))`` as its ``repr``, so a change that
moves bits shows by how much. Before its model lines each input has one
``<name> input <sha256>`` line: ``build_input``'s digest for a workload, the
sha256 of ``x.tobytes(order="A")`` for a small input. So a generator change
shows as its own line (69 lines in all). A refactor that keeps behaviour
keeps every line; run it on two checkouts and diff the outputs:

    python tools/model_hashes.py > hashes.txt

It imports ``tucksketch`` from ``src/``, and only ``WORKLOADS`` and
``build_input`` from ``perfbench/workloads.py``, of the checkout that holds
this script, pins OpenBLAS to one thread before NumPy loads (a threaded BLAS
may round differently), and writes its files to a temporary directory.
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

import numpy as np  # noqa: E402
from tucksketch import tucker  # noqa: E402
from tucksketch.bench import ALGORITHMS  # noqa: E402
from tucksketch.config import ApproxConfig  # noqa: E402
from tucksketch.datagen import SparseGenConfig, hilbert_tensor, sparse_lowrank_tensor  # noqa: E402
from tucksketch.metrics import relative_error  # noqa: E402
from tucksketch.rng import RngStream  # noqa: E402
from workloads import WORKLOADS, build_input  # noqa: E402

SEEDS = (0, 1)


def _normal(shape, seed):
    """A column-major tensor of ``RngStream(seed)`` normals."""
    return RngStream(seed).normal(int(np.prod(shape))).reshape(shape, order="F")


# name, input, ranks, processing order
SMALL = (
    # the 30 x 16 mode-1 unfolding is tall: THOSVD takes the truncated SVD
    ("tall-30x4x4", lambda: _normal((30, 4, 4), 241), (3, 3, 3), None),
    ("small-6x7x8", lambda: _normal((6, 7, 8), 242), (2, 2, 2), None),
    ("order4-8x9x10x11", lambda: _normal((8, 9, 10, 11), 243), (2, 3, 3, 2), None),
    ("rowmajor-12x10x14", lambda: np.ascontiguousarray(_normal((12, 10, 14), 244)), (4, 3, 5), None),
    ("hilbert-20x22x24-order-3,1,2", lambda: hilbert_tensor((20, 22, 24)), (3, 4, 5), (3, 1, 2)),
    ("sparse-100-gamma-10", lambda: sparse_lowrank_tensor(SparseGenConfig(n=100, gamma=10.0, seed=0)),
     (10, 10, 10), None),
)


def _line(name, key, x, cfg, path) -> str:
    model = getattr(tucker, ALGORITHMS[key][1])(x, cfg)
    tucker.save_model(model, path)
    digest = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    err = relative_error(x, tucker.reconstruct(model))
    return f"{name} {key} seed {cfg.seed} {digest} {err!r}"


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "model.tuck")
        for wl in WORKLOADS.values():
            inp = build_input(wl.name, 0, workdir)
            x = inp.x
            print(f"{wl.name} input {inp.digest}", flush=True)
            for key in ALGORITHMS:
                for j in SEEDS:
                    cfg = ApproxConfig(target_ranks=wl.ranks, seed=j)
                    print(_line(wl.name, key, x, cfg, path), flush=True)
        for name, build, ranks, order in SMALL:
            x = build()
            print(f"{name} input {hashlib.sha256(x.tobytes(order='A')).hexdigest()}", flush=True)
            for key in ALGORITHMS:
                cfg = ApproxConfig(target_ranks=ranks, processing_order=order, seed=0)
                print(_line(name, key, x, cfg, path), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
