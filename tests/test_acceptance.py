"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see every line. Criterion
11 asks sub-Sketch, which keeps the paper's k = r columns, to match
R-STHOSVD, which oversamples by p = 5; it is asserted as stated and fails
with the measured PSNRs printed. See the README for the analysis.
"""

import itertools
import time

import numpy as np
import pytest

from tucksketch.config import ApproxConfig
from tucksketch.datagen import (
    SparseGenConfig,
    add_scaled_noise,
    hilbert_tensor,
    sparse_lowrank_tensor,
)
from tucksketch.imageio import load_image_tensor, save_image_tensor
from tucksketch.linalg import sketch, sub_sketch
from tucksketch.metrics import bound_oracle, psnr, relative_error
from tucksketch.rng import RngStream
from tucksketch.tensor import frobenius_norm
from tucksketch.tucker import (
    TuckerModel,
    r_sthosvd,
    reconstruct,
    save_model,
    sketch_sthosvd,
    sthosvd,
    sub_sketch_sthosvd,
    thosvd,
)


def check(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[acceptance] {criterion}: {status} ({detail}; {elapsed:.1f}s / {budget:.0f}s budget)"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def random_tucker_tensor(dims, ranks, seed):
    s = RngStream(seed)
    core = s.normal(int(np.prod(ranks))).reshape(ranks, order="F")
    factors = [np.linalg.qr(s.normal(d, r))[0] for d, r in zip(dims, ranks)]
    return reconstruct(TuckerModel(core, factors))


def matrix_with_spectrum(m, n, sigma, seed):
    s = RngStream(seed)
    u = np.linalg.qr(s.normal(m, len(sigma)))[0]
    v = np.linalg.qr(s.normal(n, len(sigma)))[0]
    return (u * sigma) @ v.T


@pytest.fixture(scope="module")
def hilbert100():
    return hilbert_tensor((100, 100, 100))


@pytest.fixture(scope="module")
def sparse100():
    return {
        gamma: sparse_lowrank_tensor(SparseGenConfig(n=100, gamma=gamma, seed=0))
        for gamma in (2.0, 10.0, 200.0)
    }


@pytest.fixture(scope="module")
def synthetic_image(tmp_path_factory):
    # deterministic synthetic color image: smooth sinusoidal bands plus a
    # localized random texture, quantized through the 8-bit PPM container
    h = w = 256
    s = RngStream(2024)
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    channels = []
    for c in range(3):
        base = 120 + 60 * np.sin(2 * np.pi * (xx * (c + 1) + yy))
        base = base + 40 * np.cos(2 * np.pi * yy * (c + 2) * 1.5)
        texture = s.normal(h, 30) @ s.normal(30, w) / np.sqrt(30)
        base = base + 8 * texture * np.exp(-((xx - 0.5) ** 2 + (yy - 0.5) ** 2) * 3)
        channels.append(base)
    img = np.clip(np.stack(channels, axis=2), 0, 255)
    path = tmp_path_factory.mktemp("img") / "test.ppm"
    save_image_tensor(img, path)
    return load_image_tensor(path)


def test_criterion_01_exact_rank_recovery():
    start = time.perf_counter()
    x = random_tucker_tensor((30, 30, 30), (2, 2, 2), seed=1)
    cfg = ApproxConfig(
        target_ranks=(2, 2, 2), sketch_sizes=(4, 4, 4), oversample=2, power_iters=1
    )
    errors = {
        "THOSVD": relative_error(x, reconstruct(thosvd(x, cfg))),
        "STHOSVD": relative_error(x, reconstruct(sthosvd(x, cfg))),
        "R-STHOSVD": relative_error(x, reconstruct(r_sthosvd(x, cfg, RngStream(2)))),
        "Sketch": relative_error(x, reconstruct(sketch_sthosvd(x, cfg, RngStream(2)))),
        "sub-Sketch": relative_error(
            x, reconstruct(sub_sketch_sthosvd(x, cfg, RngStream(2)))
        ),
    }
    worst = max(errors.values())
    check(
        "1 exact-rank recovery",
        worst <= 1e-10,
        f"worst rel error {worst:.2e}",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_02_deterministic_bounds():
    start = time.perf_counter()
    x = hilbert_tensor((50, 50, 50))
    norm_sq = frobenius_norm(x) ** 2
    worst_margin = -np.inf
    for r in range(1, 11):
        cfg = ApproxConfig(target_ranks=(r, r, r))
        bound = bound_oracle(x, cfg, "thosvd").total + 1e-10 * norm_sq
        for pipeline in (thosvd, sthosvd):
            err_sq = frobenius_norm(x - reconstruct(pipeline(x, cfg))) ** 2
            worst_margin = max(worst_margin, err_sq - bound)
    check(
        "2 deterministic bounds",
        worst_margin <= 0.0,
        f"worst (err^2 - bound) {worst_margin:.2e}",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_03_decomposition_identity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        a = RngStream(100 + seed).normal(80, 60)
        q, xc = sketch(a, 10, 15, RngStream(seed))
        total = np.linalg.norm(a - q @ xc) ** 2
        proj = np.linalg.norm(a - q @ (q.T @ a)) ** 2
        corr = np.linalg.norm(xc - q.T @ a) ** 2
        worst = max(worst, abs(total - (proj + corr)) / np.linalg.norm(a) ** 2)
    check(
        "3 decomposition identity",
        worst <= 1e-10,
        f"worst relative defect {worst:.2e}",
        time.perf_counter() - start,
        5.0,
    )


def test_criterion_04_sketch_bound_monte_carlo(sparse100):
    start = time.perf_counter()
    x = sparse100[10.0]
    cfg = ApproxConfig(target_ranks=(10, 10, 10), sketch_sizes=(12, 12, 12))
    bound = bound_oracle(x, cfg, "sketch").total
    errs = [
        float(np.linalg.norm(x - reconstruct(sketch_sthosvd(x, cfg, RngStream(seed)))) ** 2)
        for seed in range(200)
    ]
    mean_sq = float(np.mean(errs))
    check(
        "4 sketch bound Monte-Carlo",
        mean_sq <= 1.10 * bound,
        f"mean squared error {mean_sq:.3e} vs bound*1.10 {1.10 * bound:.3e}",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_05_hilbert_error_magnitudes(hilbert100):
    start = time.perf_counter()
    x = hilbert100
    cfg = ApproxConfig(target_ranks=(10, 10, 10))
    e_thosvd = relative_error(x, reconstruct(thosvd(x, cfg)))
    e_sthosvd = relative_error(x, reconstruct(sthosvd(x, cfg)))
    e_sketch = relative_error(x, reconstruct(sketch_sthosvd(x, cfg, RngStream(0))))
    e_sub = float(
        np.median(
            [
                relative_error(x, reconstruct(sub_sketch_sthosvd(x, cfg, RngStream(s))))
                for s in range(10)
            ]
        )
    )
    ok = (
        e_thosvd <= 5e-6
        and e_sthosvd <= 5e-6
        and e_sketch <= 1e-4
        and e_sub <= 2.0 * e_sthosvd
    )
    check(
        "5 Hilbert magnitudes",
        ok,
        f"thosvd {e_thosvd:.2e}, sthosvd {e_sthosvd:.2e}, sketch {e_sketch:.2e}, "
        f"sub-sketch median {e_sub:.2e} ({e_sub / e_sthosvd:.2f}x sthosvd, need <=2x)",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_06_speed_ordering():
    start = time.perf_counter()
    x = random_tucker_tensor((200, 200, 200), (20, 20, 20), seed=3)
    x = add_scaled_noise(x, 1e-3, RngStream(4))
    cfg = ApproxConfig(target_ranks=(20, 20, 20))

    def best_of_three(fn):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    t_st = best_of_three(lambda: sthosvd(x, cfg))
    t_r = best_of_three(lambda: r_sthosvd(x, cfg, RngStream(5)))
    t_sk = best_of_three(lambda: sketch_sthosvd(x, cfg, RngStream(5)))
    t_sub = best_of_three(lambda: sub_sketch_sthosvd(x, cfg, RngStream(5)))
    ok = t_sk <= 0.5 * t_st and t_r <= 0.5 * t_st and t_sub <= t_st
    check(
        "6 speed ordering",
        ok,
        f"sthosvd {t_st:.2f}s, rsthosvd {t_r:.2f}s, sketch {t_sk:.2f}s, "
        f"sub-sketch {t_sub:.2f}s",
        time.perf_counter() - start,
        180.0,
    )


def test_criterion_07_power_iteration_benefit():
    start = time.perf_counter()
    sigma = np.arange(1, 501) ** -0.5
    a = matrix_with_spectrum(500, 500, sigma, seed=11)
    plain, powered = [], []
    for seed in range(50):
        q, xc = sketch(a, 10, 12, RngStream(seed))
        plain.append(np.linalg.norm(a - q @ xc))
        q, xc = sub_sketch(a, 10, 12, 2, RngStream(seed))
        powered.append(np.linalg.norm(a - q @ xc))
    med_plain, med_powered = float(np.median(plain)), float(np.median(powered))
    check(
        "7 power-iteration benefit",
        med_powered <= med_plain,
        f"median q=2 {med_powered:.3f} vs q=0 {med_plain:.3f}",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_08_processing_order_invariance():
    start = time.perf_counter()
    x = hilbert_tensor((20,) * 5)
    orders = [(1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (3, 1, 4, 5, 2), (2, 5, 1, 3, 4), (4, 2, 5, 1, 3)]
    errors = [
        relative_error(
            x,
            reconstruct(
                sthosvd(x, ApproxConfig(target_ranks=(5,) * 5, processing_order=o))
            ),
        )
        for o in orders
    ]
    spread = (max(errors) - min(errors)) / max(errors)
    check(
        "8 processing-order invariance",
        spread <= 1e-10,
        f"relative spread {spread:.2e} across {len(orders)} orders",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_09_gap_sensitivity(sparse100):
    start = time.perf_counter()
    cfg = ApproxConfig(target_ranks=(20, 20, 20))
    errs = {
        gamma: relative_error(x, reconstruct(sthosvd(x, cfg)))
        for gamma, x in sorted(sparse100.items())
    }
    ordered = [errs[g] for g in (2.0, 10.0, 200.0)]
    check(
        "9 gap sensitivity",
        ordered[0] > ordered[1] > ordered[2],
        "errors " + " > ".join(f"{e:.2e}" for e in ordered),
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_10_noise_floor(sparse100):
    start = time.perf_counter()
    x = add_scaled_noise(sparse100[200.0], 1e-3, RngStream(21))
    cfg = ApproxConfig(target_ranks=(20, 20, 20))
    e_st = relative_error(x, reconstruct(sthosvd(x, cfg)))
    e_sub = float(
        np.median(
            [
                relative_error(x, reconstruct(sub_sketch_sthosvd(x, cfg, RngStream(s))))
                for s in range(10)
            ]
        )
    )
    check(
        "10 noise floor",
        e_sub <= 1.5 * e_st,
        f"sub-sketch median {e_sub:.3e} vs sthosvd {e_st:.3e} "
        f"({e_sub / e_st:.2f}x, need <=1.5x)",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_11_image_pipeline(synthetic_image):
    start = time.perf_counter()
    x = synthetic_image
    assert x.shape[0] >= 256 and x.shape[1] >= 256 and x.shape[2] == 3
    cfg = ApproxConfig(target_ranks=(50, 50, 3))

    def median_psnr(pipeline):
        vals = [
            psnr(x, reconstruct(pipeline(x, cfg, RngStream(seed))), 255.0)
            for seed in range(10)
        ]
        return float(np.median(vals))

    p_r = median_psnr(r_sthosvd)
    p_sk = median_psnr(sketch_sthosvd)
    p_sub = median_psnr(sub_sketch_sthosvd)
    ok = p_sub >= p_sk - 0.1 and p_sub >= p_r - 0.1
    check(
        "11 image pipeline",
        ok,
        f"median PSNR: R-STHOSVD {p_r:.2f} dB, Sketch {p_sk:.2f} dB, "
        f"sub-Sketch {p_sub:.2f} dB",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_12_reproducible_serialization(tmp_path):
    start = time.perf_counter()
    x = RngStream(31).normal(12 * 13 * 14).reshape((12, 13, 14), order="F")
    cfg = ApproxConfig(target_ranks=(4, 4, 4), seed=9)
    ok = True
    for name, pipeline in (
        ("rsthosvd", r_sthosvd),
        ("sketch", sketch_sthosvd),
        ("subsketch", sub_sketch_sthosvd),
    ):
        paths = []
        for run in (0, 1):
            model = pipeline(x, cfg, RngStream(9))
            path = tmp_path / f"{name}-{run}.tuck"
            save_model(model, path)
            paths.append(path.read_bytes())
        ok = ok and paths[0] == paths[1]
    check(
        "12 reproducible serialization",
        ok,
        "bit-identical containers for all randomized pipelines",
        time.perf_counter() - start,
        30.0,
    )
