#!/usr/bin/env python3
"""Image compression comparison: PSNR, error, and time per algorithm.

Reads a binary PPM (convert other formats externally, e.g. with
`magick photo.png photo.ppm`), compresses it at the given rank with every
algorithm, writes the reconstructions next to the report:

    python scripts/image_experiment.py --image photo.ppm --rank 50 \
        --out-dir results
"""

import argparse
import pathlib

import numpy as np

from tucksketch.bench import ALGORITHMS, BenchReport, run_trial, write_csv
from tucksketch.config import ApproxConfig
from tucksketch.imageio import load_image_tensor, save_image_tensor


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--image", required=True, help="binary PPM/PGM input")
    parser.add_argument("--rank", type=int, default=50, help="spatial rank")
    parser.add_argument("--q", type=int, default=1)
    parser.add_argument("--sketch-extra", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="image-results")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    x = load_image_tensor(args.image)
    channels = x.shape[2]
    ranks = (args.rank, args.rank, channels)
    cfg = ApproxConfig(
        target_ranks=ranks,
        sketch_sizes=tuple(r + args.sketch_extra for r in ranks),
        power_iters=args.q,
        seed=args.seed,
    )

    rows = []
    for key in ALGORITHMS:
        _, xhat, row = run_trial(f"image-r{args.rank}", key, x, cfg, 255.0)
        save_image_tensor(np.clip(xhat, 0, 255), out_dir / f"{key}.ppm")
        rows.append(row)
        print(f"{row.algorithm:>20s}: psnr={row.psnr:7.2f} dB  time={row.wall_ms:8.1f} ms")
    write_csv(BenchReport(rows), out_dir / "report.csv")
    print(f"reconstructions and report.csv written to {out_dir}/")


if __name__ == "__main__":
    main()
