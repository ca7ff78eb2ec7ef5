"""The README's image experiment on a tiny input: one `bench --source image`
report plus one `image-compress` reconstruction per algorithm key."""

import numpy as np

from tucksketch.bench import ALGORITHMS, read_csv
from tucksketch.cli import main
from tucksketch.imageio import save_image_tensor


def small_image(tmp_path):
    yy, xx = np.meshgrid(np.linspace(0, 1, 16), np.linspace(0, 1, 16), indexing="ij")
    img = np.stack([120 + 80 * np.sin(3 * xx + c * yy) for c in range(3)], axis=2)
    src = tmp_path / "in.ppm"
    save_image_tensor(img, src)
    return src


def image_experiment(src, out_dir, ranks, *extra):
    """Run the README's image experiment; return the first nonzero exit code, or 0."""
    out_dir.mkdir()
    code = main(["bench", "--experiment", "image", "--source", "image", "--image", str(src),
                 "--ranks", ranks, "--trials", "1", *extra,
                 "--out", str(out_dir / "report.csv")])
    for key in ALGORITHMS:
        if code:
            break
        code = main(["image-compress", "--in", str(src), "--algo", key, "--ranks", ranks,
                     *extra, "--out", str(out_dir / f"{key}.ppm")])
    return code


def test_image_experiment(tmp_path):
    src = small_image(tmp_path)
    out_dir = tmp_path / "results"
    assert image_experiment(src, out_dir, "4x4x3", "--seed", "3") == 0
    rows = read_csv(out_dir / "report.csv")
    assert [r.algorithm for r in rows] == [report for report, _ in ALGORITHMS.values()]
    for key, row in zip(ALGORITHMS, rows):
        assert (out_dir / f"{key}.ppm").is_file()
        assert row.ranks == (4, 4, 3) and row.psnr > 0
        # the seed, too, is reported only where it drives the pipeline
        assert row.seed == (3 if key in ("rsthosvd", "sketch", "subsketch") else None)
        # the sketch sizes are the library's l_n = 2 r_n + 1, a blank column,
        # and the power count is reported only where it applies
        assert row.sketch_sizes is None
        assert (row.q is not None) == (key == "subsketch")


def test_image_experiment_rank_above_side_is_a_parameter_error(tmp_path, capsys):
    src = small_image(tmp_path)
    out_dir = tmp_path / "results"
    assert image_experiment(src, out_dir, "40x4x3") == 3
    assert capsys.readouterr().err.startswith("parameter error: ")
    assert list(out_dir.iterdir()) == []
