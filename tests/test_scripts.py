"""Smoke runs of the experiment scripts on tiny inputs."""

import importlib.util
import pathlib
import sys

import numpy as np

from tucksketch.bench import ALGORITHMS, read_csv
from tucksketch.imageio import save_image_tensor

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *map(str, args)])
    module.main()


def test_hilbert_experiment(tmp_path, monkeypatch):
    out = tmp_path / "hilbert.csv"
    run_script(monkeypatch, "hilbert_experiment", "--side", 10, "--ranks", "2,3",
               "--trials", 2, "--out", out)
    rows = read_csv(out).rows
    # mean over trials: one row per rank and algorithm
    assert len(rows) == 2 * len(ALGORITHMS)
    assert {r.algorithm for r in rows} == set(ALGORITHMS.values())
    assert all(r.seed is None and 0 <= r.rel_error < 1 for r in rows)


def test_sparse_experiment(tmp_path, monkeypatch):
    prefix = tmp_path / "sparse"
    run_script(monkeypatch, "sparse_experiment", "--n", 12, "--gammas", "2,10",
               "--ranks", "2,3,40", "--delta", "1e-3", "--trials", 1, "--out-prefix", prefix)
    for gamma in ("2", "10"):
        rows = read_csv(f"{prefix}-gamma{gamma}.csv").rows
        # rank 40 exceeds n = 12 and is dropped
        assert {r.ranks for r in rows} == {(2, 2, 2), (3, 3, 3)}
        assert len(rows) == 2 * len(ALGORITHMS)


def test_image_experiment(tmp_path, monkeypatch):
    yy, xx = np.meshgrid(np.linspace(0, 1, 16), np.linspace(0, 1, 16), indexing="ij")
    img = np.stack([120 + 80 * np.sin(3 * xx + c * yy) for c in range(3)], axis=2)
    src = tmp_path / "in.ppm"
    save_image_tensor(img, src)
    out_dir = tmp_path / "results"
    run_script(monkeypatch, "image_experiment", "--image", src, "--rank", 4,
               "--seed", 3, "--out-dir", out_dir)
    rows = read_csv(out_dir / "report.csv").rows
    assert [r.algorithm for r in rows] == list(ALGORITHMS.values())
    for key, row in zip(ALGORITHMS, rows):
        assert (out_dir / f"{key}.ppm").is_file()
        assert row.ranks == (4, 4, 3) and row.psnr > 0
        # the seed, too, is reported only where it drives the pipeline
        assert row.seed == (3 if key in ("rsthosvd", "sketch", "subsketch") else None)
        # the sketch size and power count are reported only where they apply
        assert (row.sketch_sizes is not None) == (key in ("sketch", "subsketch"))
        assert (row.q is not None) == (key == "subsketch")
