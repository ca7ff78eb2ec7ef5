import numpy as np
import pytest

from tucksketch.bench import ALGORITHMS, read_csv
from tucksketch.cli import main
from tucksketch.datagen import hilbert_tensor
from tucksketch.imageio import load_image_tensor, save_image_tensor
from tucksketch.tucker import load_model, reconstruct


def test_gen_hilbert(tmp_path):
    out = tmp_path / "h.npy"
    assert main(["gen-hilbert", "--dims", "6x7x8", "--out", str(out)]) == 0
    assert np.array_equal(np.load(out), hilbert_tensor((6, 7, 8)))


def test_gen_sparse_deterministic(tmp_path):
    a, b = tmp_path / "a.npy", tmp_path / "b.npy"
    args = ["gen-sparse", "--n", "20", "--gamma", "5", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert np.array_equal(np.load(a), np.load(b))


def test_decompose_and_model_container(tmp_path, capsys):
    src = tmp_path / "x.npy"
    np.save(src, hilbert_tensor((10, 10, 10)))
    model_path = tmp_path / "m.tuck"
    code = main(
        [
            "decompose",
            "--in",
            str(src),
            "--algo",
            "sthosvd",
            "--ranks",
            "3x3x3",
            "--out",
            str(model_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "algorithm=STHOSVD" in out
    assert "rel_error=" in out
    model = load_model(model_path)
    assert model.ranks == (3, 3, 3)
    assert model.dims == (10, 10, 10)


def test_bench_writes_parsable_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        [
            "bench",
            "--source",
            "hilbert",
            "--dims",
            "8x8x8",
            "--ranks",
            "2x2x2,3x3x3",
            "--algo",
            "sthosvd,sketch",
            "--trials",
            "2",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 8
    assert {r.algorithm for r in rows} == {"STHOSVD", "Sketch-STHOSVD"}


def test_bench_hilbert_sweep_with_mean(tmp_path, capsys):
    out = tmp_path / "hilbert.csv"
    code = main(["bench", "--experiment", "hilbert-10", "--source", "hilbert",
                 "--dims", "10x10x10", "--ranks", "2x2x2,3x3x3", "--trials", "2",
                 "--aggregate", "mean", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    # mean over trials: one row per rank set and algorithm
    assert len(rows) == 2 * len(ALGORITHMS)
    assert {r.algorithm for r in rows} == set(ALGORITHMS.values())
    assert all(r.seed is None and 0 <= r.rel_error < 1 for r in rows)


def test_bench_sparse_sweep_per_gamma(tmp_path, capsys):
    for gamma in ("2", "10"):
        out = tmp_path / f"sparse-gamma{gamma}.csv"
        code = main(["bench", "--experiment", f"sparse-n12-gamma{gamma}", "--source", "sparse",
                     "--gamma", gamma, "--delta", "1e-3", "--dims", "12x12x12",
                     "--ranks", "2x2x2,3x3x3", "--trials", "1", "--aggregate", "mean",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert {r.ranks for r in rows} == {(2, 2, 2), (3, 3, 3)}
        assert len(rows) == 2 * len(ALGORITHMS)
    # a rank above the side is a parameter error, never silently dropped
    too_big = ["bench", "--source", "sparse", "--dims", "12x12x12", "--ranks", "2x2x2,40x40x40",
               "--out", str(tmp_path / "no.csv")]
    assert main(too_big) == 3


def test_bench_rejects_a_bad_rank_set_before_building_data(tmp_path, monkeypatch):
    import tucksketch.bench as bench

    calls = []
    monkeypatch.setattr(bench, "build_source_tensor", lambda cfg: calls.append(cfg))
    out = tmp_path / "no.csv"
    code = main(["bench", "--source", "hilbert", "--dims", "160x160x160",
                 "--ranks", "10x10x10,300x300x300", "--out", str(out)])
    assert code == 3
    assert calls == [] and not out.exists()
    # rank and order lengths are checked against dims too
    for extra in (["--ranks", "2x2"], ["--ranks", "2x2x2", "--order", "2,1"]):
        assert main(["bench", "--source", "hilbert", "--dims", "6x6x6",
                     *extra, "--out", str(out)]) == 3
    assert calls == []


def test_bench_checks_an_image_shape_before_any_trial(tmp_path, monkeypatch):
    import tucksketch.bench as bench

    src = tmp_path / "in.ppm"
    save_image_tensor(np.full((8, 9, 3), 100.0), src)
    trials = []
    monkeypatch.setattr(bench, "run_trial", lambda *args: trials.append(args))
    code = main(["bench", "--source", "image", "--image", str(src),
                 "--ranks", "2x2x2,9x9x3", "--out", str(tmp_path / "no.csv")])
    assert code == 3
    assert trials == []


def test_image_compress_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(1)
    img = np.clip(
        120 + 40 * rng.standard_normal((20, 16, 1)).cumsum(axis=0) / 4, 0, 255
    )
    src = tmp_path / "in.pgm"
    save_image_tensor(img, src)
    out = tmp_path / "out.pgm"
    csv_path = tmp_path / "row.csv"
    code = main(
        [
            "image-compress",
            "--in",
            str(src),
            "--algo",
            "subsketch",
            "--ranks",
            "5x5x1",
            "--out",
            str(out),
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0
    assert "psnr=" in capsys.readouterr().out
    recon = load_image_tensor(out)
    assert recon.shape == img.shape
    rows = read_csv(csv_path)
    assert rows[0].algorithm == "sub-Sketch-STHOSVD"
    assert rows[0].psnr is not None


def test_image_compress_deterministic_row_has_blank_seed(tmp_path, capsys):
    img = np.clip(120 + 40 * np.random.default_rng(2).standard_normal((12, 10, 3)), 0, 255)
    src = tmp_path / "in.ppm"
    save_image_tensor(img, src)
    csv_path = tmp_path / "row.csv"
    args = ["image-compress", "--in", str(src), "--ranks", "3x3x3", "--seed", "5",
            "--out", str(tmp_path / "out.ppm"), "--csv", str(csv_path)]
    for algo, seed in (("thosvd", ""), ("rsthosvd", "5")):
        assert main(args + ["--algo", algo]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[1].split(",")[5] == seed
        assert read_csv(csv_path)[0].seed == (int(seed) if seed else None)


def test_usage_error_exit_code(tmp_path):
    assert main(["decompose", "--in", "x.npy", "--algo", "bogus", "--ranks", "2x2"]) == 1
    assert main(["bench", "--source", "hilbert", "--ranks", "2x2"]) == 1  # missing --out
    assert main(["gen-hilbert", "--dims", "axb", "--out", "x.npy"]) == 1


def test_io_error_exit_code(tmp_path):
    missing = tmp_path / "missing.npy"
    assert (
        main(["decompose", "--in", str(missing), "--algo", "sthosvd", "--ranks", "2x2x2"])
        == 2
    )
    # an empty file, a non-zip behind the zip magic, complex entries
    bad_npy = {
        "empty.npy": b"",
        "zip.npy": b"PK\x03\x04" + b"\x00" * 40,
    }
    for name, blob in bad_npy.items():
        (tmp_path / name).write_bytes(blob)
    np.save(tmp_path / "complex.npy", np.ones((3, 3, 3)) * (1 + 2j))
    for name in (*bad_npy, "complex.npy"):
        src = str(tmp_path / name)
        assert main(["decompose", "--in", src, "--algo", "sthosvd", "--ranks", "2x2x2"]) == 2
    bad_img = tmp_path / "bad.ppm"
    bad_img.write_bytes(b"P6\n2 2\n255\nxx")  # truncated payload
    assert (
        main(["image-compress", "--in", str(bad_img), "--algo", "sthosvd",
              "--ranks", "1x1x1", "--out", str(tmp_path / "o.ppm")])
        == 2
    )


def test_parameter_error_exit_code(tmp_path):
    src = tmp_path / "x.npy"
    np.save(src, hilbert_tensor((4, 4, 4)))
    # rank exceeds the dimension: numerical-parameter violation
    assert (
        main(["decompose", "--in", str(src), "--algo", "sthosvd", "--ranks", "9x9x9"])
        == 3
    )


def test_decompose_reads_images(tmp_path, capsys):
    img = np.full((8, 6, 3), 100.0)
    src = tmp_path / "flat.ppm"
    save_image_tensor(img, src)
    code = main(
        ["decompose", "--in", str(src), "--algo", "thosvd", "--ranks", "1x1x1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    # a constant image is exactly rank one
    err = float(out.split("rel_error=")[1].split()[0])
    assert err <= 1e-10


@pytest.mark.filterwarnings("error")
def test_all_zero_inputs_decompose_exactly(tmp_path, capsys):
    zeros = tmp_path / "zeros.npy"
    np.save(zeros, np.zeros((6, 5, 4)))
    black = tmp_path / "black.ppm"
    save_image_tensor(np.zeros((8, 6, 3)), black)
    # every pipeline reconstructs zero exactly, without a warning
    for key in ALGORITHMS:
        model_path = tmp_path / f"{key}.tuck"
        args = ["decompose", "--in", str(zeros), "--algo", key, "--ranks", "2x2x2",
                "--out", str(model_path)]
        assert main(args) == 0
        assert "rel_error=0.000000e+00" in capsys.readouterr().out
        model = load_model(model_path)
        assert not reconstruct(model).any()
        assert all(np.allclose(u.T @ u, np.eye(u.shape[1])) for u in model.factors)
        image_model = tmp_path / f"{key}-image.tuck"
        args = ["image-compress", "--in", str(black), "--algo", key, "--ranks", "2x2x1",
                "--out", str(tmp_path / "out.ppm"), "--model", str(image_model)]
        assert main(args) == 0
        assert "psnr=inf" in capsys.readouterr().out
        assert load_model(image_model).ranks == (2, 2, 1)
