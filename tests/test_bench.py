import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from tucksketch.bench import (
    ALGORITHMS,
    CSV_HEADER,
    BenchRow,
    ExperimentConfig,
    build_source_tensor,
    run_bench,
    run_trial,
    write_csv,
)
from tucksketch.config import ApproxConfig
from tucksketch.imageio import save_image_tensor
from tucksketch.metrics import psnr
from tucksketch.rng import RngStream
from tucksketch.tucker import (
    r_sthosvd,
    reconstruct,
    sketch_sthosvd,
    sthosvd,
    sub_sketch_sthosvd,
    thosvd,
)


def approx(*rank_sets):
    """One ApproxConfig per rank set, with l_n = r_n + 2 and seed 7."""
    return tuple(
        ApproxConfig(target_ranks=r, sketch_sizes=tuple(n + 2 for n in r), seed=7)
        for r in rank_sets
    )


def small_hilbert_config(rank_sets=((2, 2, 2), (4, 4, 4)), **overrides):
    base = dict(
        experiment="unit",
        source="hilbert",
        algorithms=("thosvd", "sketch"),
        approx=approx(*rank_sets),
        dims=(10, 10, 10),
        trials=3,
        base_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_row_cardinality():
    rows = run_bench(small_hilbert_config())
    # 2 ranks x 2 algorithms x 3 trials
    assert len(rows) == 12


def test_error_columns_reproducible():
    cfg = small_hilbert_config(algorithms=("rsthosvd", "subsketch"))
    a = run_bench(cfg)
    b = run_bench(cfg)
    for ra, rb in zip(a, b):
        assert ra.rel_error == rb.rel_error
        assert ra.algorithm == rb.algorithm
        assert ra.seed == rb.seed
        assert ra.wall_ms > 0 and rb.wall_ms > 0


def test_trial_seeds_xor_base():
    rows = run_bench(small_hilbert_config(algorithms=("sketch",), trials=4))
    seeds = [row.seed for row in rows[:4]]
    assert seeds == [7 ^ 0, 7 ^ 1, 7 ^ 2, 7 ^ 3]
    # the trial seed comes from the ApproxConfig; base_seed only seeds the data
    other_base = run_bench(small_hilbert_config(algorithms=("sketch",), trials=4, base_seed=0))
    assert [row.seed for row in other_base[:4]] == seeds


def test_algorithm_names_canonical():
    rows = run_bench(small_hilbert_config(algorithms=tuple(ALGORITHMS)))
    names = {row.algorithm for row in rows}
    assert names == {
        "THOSVD",
        "STHOSVD",
        "R-STHOSVD",
        "Sketch-STHOSVD",
        "sub-Sketch-STHOSVD",
    }


def test_run_trial_model_bit_identical_for_every_key():
    x = np.random.default_rng(7).standard_normal((10, 10, 10))
    cfg = ApproxConfig(target_ranks=(3, 3, 3), seed=41)
    # each key runs its pipeline, the randomized ones on RngStream(cfg.seed)
    expected = {
        "thosvd": thosvd(x, cfg),
        "sthosvd": sthosvd(x, cfg),
        "rsthosvd": r_sthosvd(x, cfg, RngStream(41)),
        "sketch": sketch_sthosvd(x, cfg, RngStream(41)),
        "subsketch": sub_sketch_sthosvd(x, cfg, RngStream(41)),
    }
    assert set(ALGORITHMS) == set(expected)
    for key, (name, _) in ALGORITHMS.items():
        model, xhat, row = run_trial("unit", key, x, cfg)
        assert row.algorithm == name
        assert np.array_equal(model.core, expected[key].core)
        assert all(np.array_equal(u, v) for u, v in zip(model.factors, expected[key].factors))
        assert np.array_equal(xhat, reconstruct(model))


def test_errors_descend_with_rank():
    cfg = small_hilbert_config(
        algorithms=("thosvd",), rank_sets=((2, 2, 2), (4, 4, 4), (6, 6, 6)), trials=1
    )
    errs = [row.rel_error for row in run_bench(cfg)]
    assert errs[0] > errs[1] > errs[2]


def test_aggregate_mean():
    cfg = small_hilbert_config(algorithms=("sketch",), trials=5, aggregate="mean")
    rows = run_bench(cfg)
    assert len(rows) == 2  # one per rank tuple
    raw = run_bench(small_hilbert_config(algorithms=("sketch",), trials=5))
    for agg_row, ranks in zip(rows, ((2, 2, 2), (4, 4, 4))):
        members = [r.rel_error for r in raw if r.ranks == ranks]
        assert agg_row.rel_error == pytest.approx(float(np.mean(members)))
        assert agg_row.seed is None
    # two configs with the same ranks are averaged apart
    natural = approx((2, 2, 2))[0]
    twins = (natural, replace(natural, processing_order=(3, 2, 1)))
    assert len(run_bench(small_hilbert_config(algorithms=("sketch",), trials=2,
                                              aggregate="mean", approx=twins))) == 2


def test_gaussian_and_sparse_sources():
    g = ExperimentConfig(
        experiment="g",
        source="gaussian",
        algorithms=("sthosvd",),
        approx=approx((3, 3, 3)),
        dims=(8, 8, 8),
    )
    assert len(run_bench(g)) == 1
    s = ExperimentConfig(
        experiment="s",
        source="sparse",
        algorithms=("sthosvd",),
        approx=approx((3, 3, 3)),
        dims=(20, 20, 20),
        gamma=5.0,
    )
    assert len(run_bench(s)) == 1


def test_noise_fields_change_tensor():
    cfg = small_hilbert_config(algorithms=("thosvd",), trials=1)
    clean = run_bench(cfg)[0].rel_error
    noisy = run_bench(small_hilbert_config(algorithms=("thosvd",), trials=1, delta=1e-2))[0].rel_error
    assert noisy > clean


def test_image_experiment_psnr_matches_oracle(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 255, size=(24, 18, 3))
    path = tmp_path / "img.ppm"
    save_image_tensor(img, path)
    cfg = ExperimentConfig(
        experiment="img",
        source="image",
        algorithms=("sthosvd",),
        approx=approx((6, 6, 3)),
        image_path=str(path),
    )
    x, peak = build_source_tensor(cfg)
    assert peak == 255.0
    row = run_bench(cfg)[0]
    model = sthosvd(x, ApproxConfig(target_ranks=(6, 6, 3)))
    assert row.psnr == pytest.approx(psnr(x, reconstruct(model), 255.0), abs=1e-9)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        small_hilbert_config(source="nope")
    with pytest.raises(ValueError):
        small_hilbert_config(algorithms=("thosvd", "bogus"))
    # a sweep over no algorithm would write a report with only its header
    with pytest.raises(ValueError, match="^at least one algorithm is required$"):
        small_hilbert_config(algorithms=())
    with pytest.raises(ValueError):
        small_hilbert_config(rank_sets=())
    with pytest.raises(ValueError):
        small_hilbert_config(trials=0)
    with pytest.raises(ValueError, match="unknown aggregate mode 'median'"):
        small_hilbert_config(aggregate="median")
    # every rank set is checked against dims when the config is made
    for bad in ([(2, 2, 2), (11, 2, 2)], [(2, 2)]):
        with pytest.raises(ValueError):
            small_hilbert_config(rank_sets=bad)
    with pytest.raises(ValueError):
        small_hilbert_config(approx=(ApproxConfig(target_ranks=(2, 2, 2), processing_order=(2, 1)),))
    with pytest.raises(ValueError):
        ExperimentConfig(
            experiment="x",
            source="image",
            algorithms=("thosvd",),
            approx=approx((2, 2, 2)),
        )


@pytest.mark.parametrize(
    "field, value",
    [("trials", 1.5), ("base_seed", 1.5), ("dims", (6.5, 6, 6))],
)
def test_descriptor_integer_fields_take_only_integers(field, value):
    # checked before any data is built: a float is never truncated
    with pytest.raises(ValueError, match=f"^{field} takes integers only"):
        small_hilbert_config(**{field: value})


def test_descriptor_integer_fields_take_numpy_integers_as_ints():
    cfg = small_hilbert_config(trials=np.int64(2), base_seed=np.int32(7), dims=[np.int64(10)] * 3)
    assert (cfg.trials, cfg.base_seed, cfg.dims) == (2, 7, (10, 10, 10))
    assert all(type(v) is int for v in (cfg.trials, cfg.base_seed, *cfg.dims))


# ------------------------------------------------------------------- CSV


def sample_rows():
    return [
        BenchRow("e", "THOSVD", (10, 10, 10), None, None, None, 0.0, None, 12.5),
        BenchRow(
            "e",
            "sub-Sketch-STHOSVD",
            (10, 10, 10),
            (12, 12, 12),
            1,
            42,
            2.7354e-06,
            math.inf,
            3.25,
        ),
    ]


def test_csv_header_and_formats(tmp_path):
    path = tmp_path / "r.csv"
    write_csv(sample_rows(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,algorithm,ranks,sketch_sizes,q,seed,rel_error,psnr,wall_ms"
    assert lines[1] == "e,THOSVD,10x10x10,,,,0.000000e+00,,1.250000e+01"
    assert lines[2] == (
        "e,sub-Sketch-STHOSVD,10x10x10,12x12x12,1,42,2.735400e-06,inf,3.250000e+00"
    )


def test_csv_empty_report(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text().splitlines() == [",".join(CSV_HEADER)]


def test_csv_roundtrip_of_real_run(tmp_path):
    rows = run_bench(small_hilbert_config(trials=2))
    path = tmp_path / "real.csv"
    write_csv(rows, path)
    back = list(csv.DictReader(path.read_text().splitlines()))
    assert len(back) == len(rows)
    for orig, parsed in zip(rows, back):
        assert float(parsed["rel_error"]) == pytest.approx(orig.rel_error, rel=1e-6)
        assert parsed["ranks"] == "x".join(map(str, orig.ranks))
