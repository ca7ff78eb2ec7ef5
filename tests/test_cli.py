import argparse
import csv
import dataclasses
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tucksketch import cli
from tucksketch.bench import AGGREGATES, ALGORITHMS, SOURCES, ExperimentConfig
from tucksketch.cli import _add_approx_flags, _approx_config, main
from tucksketch.config import ApproxConfig
from tucksketch.datagen import SparseGenConfig, hilbert_tensor
from tucksketch.imageio import load_image_tensor, save_image_tensor
from tucksketch.rng import RngStream
from tucksketch.tensor import unfold
from tucksketch.tucker import (
    load_model,
    reconstruct,
    save_model,
    sketch_sthosvd,
    sub_sketch_sthosvd,
)


def test_gen_hilbert(tmp_path):
    out = tmp_path / "h.npy"
    assert main(["gen-hilbert", "--dims", "6x7x8", "--out", str(out)]) == 0
    assert np.array_equal(np.load(out), hilbert_tensor((6, 7, 8)))


def test_generated_tensor_keeps_its_layout_through_decompose(tmp_path, monkeypatch):
    # np.save records Fortran order and np.load restores it, so decompose
    # unfolds the generated tensor's modes 1 and N without a copy
    out = tmp_path / "h.npy"
    assert main(["gen-hilbert", "--dims", "6x7x8", "--out", str(out)]) == 0
    seen = []
    real_run_trial = cli.run_trial

    def recording_run_trial(experiment, key, x, *args):
        seen.append(x)
        return real_run_trial(experiment, key, x, *args)

    monkeypatch.setattr(cli, "run_trial", recording_run_trial)
    args = ["decompose", "--in", str(out), "--algo", "rsthosvd", "--ranks", "2x3x4"]
    assert main(args) == 0
    (x,) = seen
    assert x.flags.f_contiguous
    assert np.array_equal(x, hilbert_tensor((6, 7, 8)))
    assert np.shares_memory(unfold(x, 1), x) and np.shares_memory(unfold(x, 3), x)


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
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 8
    assert {r["algorithm"] for r in rows} == {"STHOSVD", "Sketch-STHOSVD"}


def test_bench_hilbert_sweep_with_mean(tmp_path, capsys):
    out = tmp_path / "hilbert.csv"
    code = main(["bench", "--experiment", "hilbert-10", "--source", "hilbert",
                 "--dims", "10x10x10", "--ranks", "2x2x2,3x3x3", "--trials", "2",
                 "--aggregate", "mean", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    # mean over trials: one row per rank set and algorithm
    assert len(rows) == 2 * len(ALGORITHMS)
    assert {r["algorithm"] for r in rows} == {name for name, _ in ALGORITHMS.values()}
    assert all(r["seed"] == "" and 0 <= float(r["rel_error"]) < 1 for r in rows)


def test_bench_sparse_sweep_per_gamma(tmp_path, capsys):
    for gamma in ("2", "10"):
        out = tmp_path / f"sparse-gamma{gamma}.csv"
        code = main(["bench", "--experiment", f"sparse-n12-gamma{gamma}", "--source", "sparse",
                     "--gamma", gamma, "--delta", "1e-3", "--dims", "12x12x12",
                     "--ranks", "2x2x2,3x3x3", "--trials", "1", "--aggregate", "mean",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {r["ranks"] for r in rows} == {"2x2x2", "3x3x3"}
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
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert rows[0]["algorithm"] == "sub-Sketch-STHOSVD"
    assert rows[0]["psnr"] != ""


def test_image_compress_deterministic_row_has_blank_seed(tmp_path, capsys):
    img = np.clip(120 + 40 * np.random.default_rng(2).standard_normal((12, 10, 3)), 0, 255)
    src = tmp_path / "in.ppm"
    save_image_tensor(img, src)
    csv_path = tmp_path / "row.csv"
    args = ["image-compress", "--in", str(src), "--seed", "5",
            "--out", str(tmp_path / "out.ppm"), "--csv", str(csv_path)]
    # --sketch-extra 2's l_n = r_n + 2 is reported as asked, before any clamp
    # to I_n; without the flag the sizes are the library's, a blank column
    for ranks, extra, sizes in (("3x3x3", ["--sketch-extra", "2"], "5x5x5"),
                                ("4x4x3", ["--sketch-extra", "2"], "6x6x5"),
                                ("4x4x3", [], "")):
        for key in ALGORITHMS:
            assert main(args + extra + ["--ranks", ranks, "--algo", key]) == 0
            seed = "5" if key in ("rsthosvd", "sketch", "subsketch") else ""
            lines = csv_path.read_text().splitlines()
            assert lines[1].split(",")[5] == seed
            [row] = csv.DictReader(lines)
            assert row["seed"] == seed
            # the sketch sizes and the power count are reported only where they apply
            assert row["sketch_sizes"] == (sizes if key in ("sketch", "subsketch") else "")
            assert row["q"] == ("1" if key == "subsketch" else "")


def test_approx_flag_defaults_are_the_config_defaults():
    parser = argparse.ArgumentParser()
    _add_approx_flags(parser)
    args = parser.parse_args(["--ranks", "2x2"])
    fields = {"order": "processing_order", "seed": "seed", "oversample": "oversample",
              "sketch_extra": "sketch_sizes", "q": "power_iters"}
    assert set(vars(args)) == {"ranks", *fields}
    defaults = {f.name: f.default for f in dataclasses.fields(ApproxConfig)}
    for flag, field in fields.items():
        assert getattr(args, flag) == defaults[field], flag
    assert args.sketch_extra is None
    assert _approx_config(args, (2, 2)) == ApproxConfig(target_ranks=(2, 2))


def test_bench_and_gen_sparse_flag_defaults_are_the_config_defaults():
    parser = cli._build_parser()
    args = parser.parse_args(["bench", "--source", "hilbert", "--ranks", "2x2", "--out", "x.csv"])
    fields = {"trials": "trials", "gamma": "gamma", "delta": "delta", "dims": "dims",
              "image": "image_path", "aggregate": "aggregate"}
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for flag, field in fields.items():
        assert getattr(args, flag) == defaults[field], flag
    args = parser.parse_args(["gen-sparse", "--n", "4", "--gamma", "1", "--out", "x.npy"])
    assert args.seed == {f.name: f.default for f in dataclasses.fields(SparseGenConfig)}["seed"]


def test_bench_choices_are_the_bench_tables():
    # the CLI offers the sources and aggregate modes that the config accepts
    parser = cli._build_parser()
    base = ["bench", "--ranks", "2x2x2", "--out", "x.csv"]
    for source in SOURCES:
        assert parser.parse_args(base + ["--source", source]).source == source
    for mode in AGGREGATES:
        args = parser.parse_args(base + ["--source", "hilbert", "--aggregate", mode])
        assert args.aggregate == mode
    for bad in (["--source", "nope"], ["--source", "hilbert", "--aggregate", "median"]):
        with pytest.raises(cli._UsageError, match="invalid choice"):
            parser.parse_args(base + bad)


def test_image_compress_without_sketch_extra_runs_the_library_sizes(tmp_path):
    img = np.clip(120 + 40 * np.random.default_rng(4).standard_normal((12, 10, 3)), 0, 255)
    src, out = tmp_path / "in.ppm", tmp_path / "out.ppm"
    save_image_tensor(img, src)
    x = load_image_tensor(src)
    pipelines = {"sketch": sketch_sthosvd, "subsketch": sub_sketch_sthosvd}
    for key, pipeline in pipelines.items():
        for j in (0, 3):
            cli_model, lib_model = tmp_path / "cli.tuck", tmp_path / "lib.tuck"
            assert main(["image-compress", "--in", str(src), "--algo", key, "--ranks", "3x3x3",
                         "--seed", str(j), "--out", str(out), "--model", str(cli_model)]) == 0
            save_model(pipeline(x, ApproxConfig(target_ranks=(3, 3, 3), seed=j)), lib_model)
            assert cli_model.read_bytes() == lib_model.read_bytes(), (key, j)


def test_usage_error_exit_code(tmp_path):
    assert main(["decompose", "--in", "x.npy", "--algo", "bogus", "--ranks", "2x2"]) == 1
    assert main(["bench", "--source", "hilbert", "--ranks", "2x2"]) == 1  # missing --out
    assert main(["gen-hilbert", "--dims", "axb", "--out", "x.npy"]) == 1
    assert main(["decompose", "--in", "x.npy", "--algo", "thosvd", "--ranks", ""]) == 1
    # the sparse family's density is a constant, and noise has one scale, --delta
    assert main(["gen-sparse", "--n", "20", "--gamma", "5", "--density", "0.1",
                 "--out", str(tmp_path / "s.npy")]) == 1
    assert main(["bench", "--source", "hilbert", "--dims", "6x6x6", "--ranks", "2x2x2",
                 "--snr", "20", "--out", str(tmp_path / "r.csv")]) == 1
    src = tmp_path / "x.npy"
    np.save(src, hilbert_tensor((4, 4, 4)))
    assert main(["decompose", "--in", str(src), "--algo", "thosvd", "--ranks", "2x2x2",
                 "--order", "1;2;3"]) == 1
    # the flags are checked before --in is read
    missing = str(tmp_path / "missing.npy")
    assert main(["decompose", "--in", missing, "--algo", "thosvd", "--ranks", "2x2x2",
                 "--order", "1;2;3"]) == 1


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
    # a truncated payload, a truncated header, and a width of "1_6", which
    # int() reads as 16, the width this payload fits
    for blob in (b"P6\n2 2\n255\nxx", b"P6 16 16", b"P6\n1_6 16\n255\n" + bytes(768)):
        bad_img.write_bytes(blob)
        assert (
            main(["image-compress", "--in", str(bad_img), "--algo", "sthosvd",
                  "--ranks", "1x1x1", "--out", str(tmp_path / "o.ppm")])
            == 2
        )


def test_module_entry_point_exits_with_main_s_code(tmp_path):
    # `python -m tucksketch.cli` hands main()'s return value to sys.exit
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    base = [sys.executable, "-m", "tucksketch.cli", "decompose", "--ranks", "2x2x2"]
    cases = [
        (["--in", str(tmp_path / "x.npy"), "--algo", "nope"], 1, "usage error: "),
        (["--in", str(tmp_path / "missing.npy"), "--algo", "thosvd"], 2, "i/o error: "),
    ]
    for args, code, message in cases:
        done = subprocess.run(base + args, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code, done.stderr
        assert done.stderr.startswith(message)


def test_repeated_main_calls_answer_as_fresh_processes(tmp_path, capsys, monkeypatch):
    # main reuses one parser per process; a usage error between two valid
    # calls of different subcommands leaves nothing behind in it
    runs = [
        ["gen-hilbert", "--dims", "4x4x4", "--out", "x.npy"],
        ["decompose", "--in", "x.npy", "--algo", "bogus", "--ranks", "2x2x2"],
        ["bench", "--source", "hilbert", "--dims", "4x4x4", "--algo", "thosvd",
         "--ranks", "2x2x2", "--out", "r.csv"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    expected = []
    for argv in runs:
        done = subprocess.run([sys.executable, "-m", "tucksketch.cli", *argv], cwd=fresh, env=env,
                              capture_output=True, text=True, timeout=120)
        expected.append((done.returncode, done.stdout, done.stderr))
    assert [code for code, _, _ in expected] == [0, 1, 0]
    monkeypatch.chdir(reused)
    capsys.readouterr()
    for argv, want in zip(runs, expected):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == want, argv


def test_parameter_error_exit_code(tmp_path, capsys):
    src = tmp_path / "x.npy"
    np.save(src, hilbert_tensor((4, 4, 4)))
    # rank exceeds the dimension: numerical-parameter violation
    assert (
        main(["decompose", "--in", str(src), "--algo", "sthosvd", "--ranks", "9x9x9"])
        == 3
    )
    # a rank above the image's side, and no reconstruction is written
    img = tmp_path / "in.ppm"
    save_image_tensor(np.full((16, 16, 3), 100.0), img)
    out = tmp_path / "out.ppm"
    capsys.readouterr()
    assert main(["image-compress", "--in", str(img), "--algo", "thosvd", "--ranks", "20x8x3",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("parameter error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--oversample", "-1"], "oversampling must be nonnegative"),
        (["--q", "0"], "power iteration count must be at least 1"),
        (["--ranks", "0x2x2"], "target ranks must be a nonempty tuple of positive integers"),
    ],
    ids=["oversample", "q", "zero-rank"],
)
def test_bad_approx_flags_exit_3_before_reading_input(tmp_path, capsys, flags, message):
    missing = str(tmp_path / "missing.npy")
    capsys.readouterr()
    assert main(["decompose", "--in", missing, "--algo", "subsketch", "--ranks", "2x2x2",
                 *flags]) == 3
    assert capsys.readouterr().err == f"parameter error: {message}\n"


def test_single_trial_commands_take_exactly_one_algorithm(tmp_path, capsys):
    # argparse checks --algo against the keys before --in is read: a missing input
    # would exit 2, and nothing is written
    for command in ("decompose", "image-compress"):
        for algo in ("all", "thosvd,sketch"):
            argv = [command, "--in", str(tmp_path / "missing.npy"), "--algo", algo,
                    "--ranks", "2x2x2", "--out", str(tmp_path / "out")]
            assert main(argv) == 1, (command, algo)
            assert capsys.readouterr().err.startswith(
                "usage error: argument --algo: invalid choice:"), (command, algo)
    assert list(tmp_path.iterdir()) == []


def test_unparsable_ranks_name_the_rank_list(tmp_path, capsys):
    src = tmp_path / "x.npy"
    np.save(src, hilbert_tensor((4, 4, 4)))
    capsys.readouterr()
    assert main(["decompose", "--in", str(src), "--algo", "sthosvd", "--ranks", "10xa"]) == 1
    assert capsys.readouterr().err == "usage error: cannot parse rank list '10xa'\n"
    assert main(["bench", "--source", "hilbert", "--dims", "4x4x4", "--ranks", "2x2x2,",
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err == "usage error: cannot parse rank list ''\n"
    assert not (tmp_path / "r.csv").exists()


def test_npz_input_is_an_io_error(tmp_path, capsys):
    src = tmp_path / "x.npz"
    np.savez(src, x=hilbert_tensor((4, 4, 4)))
    capsys.readouterr()
    assert main(["decompose", "--in", str(src), "--algo", "sthosvd", "--ranks", "2x2x2"]) == 2
    assert "an .npz archive, not one array" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--source", "sparse", "--dims", "10x10x12"], "sparse source requires cubic dims n x n x n"),
        (["--source", "hilbert"], "source 'hilbert' requires dims"),
    ],
    ids=["sparse-not-cubic", "hilbert-without-dims"],
)
def test_bench_source_errors_exit_3(tmp_path, capsys, flags, message):
    out = tmp_path / "r.csv"
    capsys.readouterr()
    assert main(["bench", *flags, "--ranks", "2x2x2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"parameter error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["gen-sparse", "--n", "20", "--gamma=inf"], "gamma must be positive and finite, got inf"),
        (["gen-sparse", "--n", "20", "--gamma=nan"], "gamma must be positive and finite, got nan"),
        (["bench", "--source", "hilbert", "--dims", "6x6x6", "--ranks", "2x2x2", "--delta=inf"],
         "noise scale must be finite and nonnegative, got inf"),
        (["bench", "--source", "hilbert", "--dims", "6x6x6", "--ranks", "2x2x2", "--delta=nan"],
         "noise scale must be finite and nonnegative, got nan"),
        (["bench", "--source", "hilbert", "--dims", "6x6x6", "--ranks", "2x2x2", "--delta=-1"],
         "noise scale must be finite and nonnegative, got -1.0"),
    ],
    ids=["gamma-inf", "gamma-nan", "delta-inf", "delta-nan", "delta-negative"],
)
def test_non_finite_data_parameters_exit_3(tmp_path, capsys, flags, message):
    out = tmp_path / ("r.csv" if flags[0] == "bench" else "s.npy")
    capsys.readouterr()
    assert main([*flags, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"parameter error: {message}")
    assert not out.exists()


def test_sketch_extra_below_two_exits_3_before_reading_input(tmp_path, capsys, monkeypatch):
    import tucksketch.bench as bench

    # a sketch step needs l_n >= r_n + 2 (Tropp et al., SIMAX 2017, Thm 4.3),
    # so --sketch-extra 1 or 0 is a parameter error on every command that
    # takes the flag, found before --in is read or a tensor is built
    built = []
    monkeypatch.setattr(bench, "build_source_tensor", lambda cfg: built.append(cfg))
    out = tmp_path / "out"
    capsys.readouterr()
    for extra in ("1", "0"):
        flags = ["--sketch-extra", extra]
        assert main(["decompose", "--in", str(tmp_path / "missing.npy"), "--algo", "sketch",
                     "--ranks", "2x2x2", *flags]) == 3
        assert main(["image-compress", "--in", str(tmp_path / "missing.ppm"),
                     "--algo", "subsketch", "--ranks", "2x2x1", *flags, "--out", str(out)]) == 3
        assert main(["bench", "--source", "hilbert", "--dims", "6x6x6", "--ranks", "2x2x2",
                     *flags, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("parameter error: sketch size") == 6
    assert built == [] and not out.exists()


def test_ranks_above_the_product_of_the_others_exit_3_before_reading_input(
    tmp_path, capsys, monkeypatch
):
    import tucksketch.bench as bench

    # no tensor has multilinear rank (2, 2, 6): r_n <= prod_{m != n} r_m, so
    # such ranks are a parameter error on every command, found before --in
    # is read or a tensor is built
    built = []
    monkeypatch.setattr(bench, "build_source_tensor", lambda cfg: built.append(cfg))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["decompose", "--in", str(tmp_path / "missing.npy"), "--algo", "sthosvd",
                 "--ranks", "2x2x6", "--out", str(out)]) == 3
    assert main(["image-compress", "--in", str(tmp_path / "missing.ppm"), "--algo", "thosvd",
                 "--ranks", "2x2x6", "--out", str(out)]) == 3
    assert main(["bench", "--source", "hilbert", "--dims", "6x6x6", "--ranks", "2x2x2,2x2x6",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("parameter error: target rank 6 of mode 3 exceeds 4,") == 3
    assert built == [] and not out.exists()


def test_order_not_covering_the_ranks_exits_3_before_reading_input(
    tmp_path, capsys, monkeypatch
):
    import tucksketch.bench as bench

    # --order must be a permutation of the modes that --ranks names, so a
    # short order is a parameter error on every command, found before --in
    # is read or a tensor is built
    built = []
    monkeypatch.setattr(bench, "build_source_tensor", lambda cfg: built.append(cfg))
    out = tmp_path / "out"
    flags = ["--ranks", "2x2x2", "--order", "1,2"]
    capsys.readouterr()
    assert main(["decompose", "--in", str(tmp_path / "missing.npy"), "--algo", "sthosvd",
                 *flags, "--out", str(out)]) == 3
    assert main(["image-compress", "--in", str(tmp_path / "missing.ppm"), "--algo", "thosvd",
                 *flags, "--out", str(out)]) == 3
    assert main(["bench", "--source", "hilbert", "--dims", "6x6x6", *flags,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("parameter error: processing order (1, 2) is not a permutation of 1..3") == 3
    assert built == [] and not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_input_is_a_parameter_error(tmp_path, capsys, bad):
    x = hilbert_tensor((4, 4, 4))
    x[1, 2, 3] = bad
    src, out = tmp_path / "x.npy", tmp_path / "m.tuck"
    np.save(src, x)
    capsys.readouterr()
    assert main(["decompose", "--in", str(src), "--algo", "sthosvd", "--ranks", "2x2x2",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "parameter error: tensor entries must be finite\n"
    assert not out.exists()


def test_order_zero_input_is_a_parameter_error(tmp_path, capsys):
    # a 0-d array is a tensor of order 0, which no pipeline takes
    src, out = tmp_path / "x.npy", tmp_path / "m.tuck"
    np.save(src, np.array(3.5))
    capsys.readouterr()
    assert main(["decompose", "--in", str(src), "--algo", "sthosvd", "--ranks", "1",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "parameter error: tensor order must be >= 1 and dimensions must all be positive, got shape ()\n"
    )
    assert not out.exists()


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


@pytest.mark.parametrize("channels, suffix", [(3, "ppm"), (1, "pgm")])
def test_decompose_reads_upper_case_image_suffixes(tmp_path, capsys, channels, suffix):
    # photo.PPM is the image that photo.ppm is, not an .npy file
    img = np.clip(120 + 40 * np.random.default_rng(5).standard_normal((9, 7, channels)), 0, 255)
    errors = []
    for name in (f"photo.{suffix}", f"PHOTO.{suffix.upper()}"):
        save_image_tensor(img, tmp_path / name)
        capsys.readouterr()
        assert main(["decompose", "--in", str(tmp_path / name), "--algo", "sthosvd",
                     "--ranks", f"2x2x{channels}"]) == 0, name
        errors.append(capsys.readouterr().out.split("rel_error=")[1].split()[0])
    assert errors[0] == errors[1]


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


def _assert_decompose_scale_invariant(tmp_path, capsys, algo, scale):
    """decompose of x * scale prints x's error and saves orthonormal, finite factors."""
    x = np.random.default_rng(19).standard_normal((6, 7, 8))
    plain, src = tmp_path / "plain.npy", tmp_path / "scaled.npy"
    np.save(plain, x)
    np.save(src, x * scale)

    def printed_error(path, *extra):
        args = ["decompose", "--in", str(path), "--algo", algo, "--ranks", "2x2x2", *extra]
        assert main(args) == 0
        return float(capsys.readouterr().out.split("rel_error=")[1].split()[0])

    model_path = tmp_path / "m.tuck"
    # the printed error is the unscaled tensor's error, to its 7 printed digits
    assert printed_error(src, "--out", str(model_path)) == pytest.approx(
        printed_error(plain), rel=1e-6
    )
    model = load_model(model_path)
    assert all(np.allclose(u.T @ u, np.eye(2), atol=1e-12) for u in model.factors)
    assert np.isfinite(reconstruct(model)).all()


@pytest.mark.parametrize("algo", ["thosvd", "rsthosvd"])
def test_decompose_huge_finite_tensor(tmp_path, capsys, algo):
    # entries near 1e200 overflow the Gram matrix A A^T and a plain sum of
    # squares, but not the tensor
    _assert_decompose_scale_invariant(tmp_path, capsys, algo, 1e200)


def _decompose_gaussian(tmp_path, algo, scale):
    """Exit code of ``decompose`` on the 8 x 9 x 10 ``RngStream(0)`` Gaussian times scale."""
    x = RngStream(0).normal(720).reshape((8, 9, 10), order="F")
    src, out = tmp_path / "x.npy", tmp_path / f"{algo}.tuck"
    np.save(src, x * scale)
    return main(["decompose", "--in", str(src), "--algo", algo, "--ranks", "2x2x2",
                 "--out", str(out)])


@pytest.mark.parametrize("algo", ["rsthosvd", "sketch", "subsketch"])
def test_sketch_overflow_near_the_largest_double_exits_3_naming_it(tmp_path, capsys, algo):
    # entries near 1e307 are finite, but their sketch A Omega is not
    assert _decompose_gaussian(tmp_path, algo, 1e307) == 3
    err = capsys.readouterr().err
    assert err.startswith("parameter error: sketch product overflowed: ")
    assert "largest double" in err
    assert not (tmp_path / f"{algo}.tuck").exists()


def test_sketch_basis_overflow_on_the_1e307_constant_exits_3_naming_it(tmp_path, capsys):
    # A Omega is finite (largest entry about 7.4e307), but the Householder QR
    # of the 4 x 1 sketch overflows; the solve must not run on its NaN basis
    src, out = tmp_path / "x.npy", tmp_path / "m.tuck"
    np.save(src, np.full((4, 4, 4), 1e307))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["decompose", "--in", str(src), "--algo", "sketch", "--ranks", "1x1x1",
                     "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("parameter error: sketch product overflowed: ")
    assert "largest double" in err
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_entries_near_1e305_run_every_pipeline(tmp_path, capsys, algo):
    assert _decompose_gaussian(tmp_path, algo, 1e305) == 0
    assert "rel_error=" in capsys.readouterr().out
    assert np.isfinite(reconstruct(load_model(tmp_path / f"{algo}.tuck"))).all()


@pytest.mark.parametrize("algo", ["thosvd", "rsthosvd"])
def test_decompose_tiny_finite_tensor(tmp_path, capsys, algo):
    # entries near 1e-200 make the Gram matrix A A^T and a plain sum of
    # squares underflow, but not the tensor
    _assert_decompose_scale_invariant(tmp_path, capsys, algo, 1e-200)
