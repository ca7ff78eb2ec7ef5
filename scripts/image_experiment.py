#!/usr/bin/env python3
"""Image compression comparison: PSNR, error, and time per algorithm.

Reads a binary PPM (convert other formats externally, e.g. with
`magick photo.png photo.ppm`), compresses it at the given ranks with every
algorithm, writes the reconstructions next to the report:

    python scripts/image_experiment.py --image photo.ppm --ranks 50x50x3 \
        --out-dir results

The rank, order, seed, oversampling, sketch-size and power-iteration flags
are the `tucksketch` CLI's, with its defaults.
"""

import argparse
import pathlib
import sys

import numpy as np

from tucksketch import cli
from tucksketch.bench import ALGORITHMS, run_trial, write_csv
from tucksketch.imageio import load_image_tensor, save_image_tensor


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--image", required=True, help="binary PPM/PGM input")
    cli._add_approx_flags(parser, "target ranks, e.g. 50x50x3")
    parser.add_argument("--out-dir", default="image-results")
    args = parser.parse_args()
    try:
        cfg = cli._approx_config(args, cli._parse_dims(args.ranks))
    except cli._UsageError as exc:
        parser.error(str(exc))
    x = load_image_tensor(args.image)
    try:
        cfg.plan(x.shape, "svd")
    except ValueError as exc:
        # the exit code of `tucksketch image-compress` for the same input
        print(f"parameter error: {exc}", file=sys.stderr)
        sys.exit(3)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for key in ALGORITHMS:
        _, xhat, row = run_trial(f"image-{args.ranks}", key, x, cfg, 255.0)
        save_image_tensor(np.clip(xhat, 0, 255), out_dir / f"{key}.ppm")
        rows.append(row)
        print(f"{row.algorithm:>20s}: psnr={row.psnr:7.2f} dB  time={row.wall_ms:8.1f} ms")
    write_csv(rows, out_dir / "report.csv")
    print(f"reconstructions and report.csv written to {out_dir}/")


if __name__ == "__main__":
    main()
