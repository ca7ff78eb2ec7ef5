"""Smoke run of the image experiment script on a tiny input."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from tucksketch.bench import ALGORITHMS, read_csv
from tucksketch.imageio import save_image_tensor

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *map(str, args)])
    module.main()


def small_image(tmp_path):
    yy, xx = np.meshgrid(np.linspace(0, 1, 16), np.linspace(0, 1, 16), indexing="ij")
    img = np.stack([120 + 80 * np.sin(3 * xx + c * yy) for c in range(3)], axis=2)
    src = tmp_path / "in.ppm"
    save_image_tensor(img, src)
    return src


def test_image_experiment(tmp_path, monkeypatch):
    src = small_image(tmp_path)
    out_dir = tmp_path / "results"
    run_script(monkeypatch, "image_experiment", "--image", src, "--ranks", "4x4x3",
               "--seed", 3, "--out-dir", out_dir)
    rows = read_csv(out_dir / "report.csv")
    assert [r.algorithm for r in rows] == list(ALGORITHMS.values())
    for key, row in zip(ALGORITHMS, rows):
        assert (out_dir / f"{key}.ppm").is_file()
        assert row.ranks == (4, 4, 3) and row.psnr > 0
        # the seed, too, is reported only where it drives the pipeline
        assert row.seed == (3 if key in ("rsthosvd", "sketch", "subsketch") else None)
        # the sketch size and power count are reported only where they apply
        # the CLI's l_n = r_n + 2
        assert row.sketch_sizes == ((6, 6, 5) if key in ("sketch", "subsketch") else None)
        assert (row.q is not None) == (key == "subsketch")


def test_image_experiment_rank_above_side_is_a_parameter_error(tmp_path, monkeypatch, capsys):
    src = small_image(tmp_path)
    out_dir = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, "image_experiment", "--image", src, "--ranks", "40x4x3",
                   "--out-dir", out_dir)
    assert exc.value.code == 3
    assert capsys.readouterr().err.startswith("parameter error: ")
    assert not out_dir.exists()
