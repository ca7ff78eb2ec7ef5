import numpy as np
import pytest

from tucksketch.bench import read_csv
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
    report = read_csv(out)
    assert len(report.rows) == 8
    assert {r.algorithm for r in report.rows} == {"STHOSVD", "Sketch-STHOSVD"}


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
    report = read_csv(csv_path)
    assert report.rows[0].algorithm == "sub-Sketch-STHOSVD"
    assert report.rows[0].psnr is not None


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
        assert read_csv(csv_path).rows[0].seed == (int(seed) if seed else None)


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
