"""Command-line harness for tensor generation, decomposition, and benchmarks.

Every flag that fills a config field takes its default from that field
(`ApproxConfig`, `ExperimentConfig`, `SparseGenConfig`). Without
``--sketch-extra`` the sketch sizes stay None, so the sketch pipelines run the
library's l_n = 2 r_n + 1; ``--sketch-extra e`` asks for l_n = r_n + e, e >= 2.
``decompose`` and ``image-compress`` run one timed trial through
`bench.run_trial` and take one ``--algo`` key, which argparse checks against
the keys of `bench.ALGORITHMS`; ``bench`` runs a sweep over ``all`` of them
or a comma list.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numerical-parameter
violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
import zipfile

import numpy as np

from .bench import AGGREGATES, ALGORITHMS, SOURCES, ExperimentConfig, run_bench, run_trial, write_csv
from .config import ApproxConfig
from .datagen import SparseGenConfig, hilbert_tensor, sparse_lowrank_tensor
from .imageio import ImageFormatError, load_image_tensor, save_image_tensor
from .tucker import save_model

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_ints(text: str, sep: str = "x", what: str = "dimension list") -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(sep))
    except ValueError:  # an empty text splits into one empty, unparsable item
        raise _UsageError(f"cannot parse {what} {text!r}") from None


def _parse_algos(text: str) -> tuple[str, ...]:
    if text == "all":
        return tuple(ALGORITHMS)
    keys = tuple(t.strip() for t in text.split(","))
    for key in keys:
        if key not in ALGORITHMS:
            raise _UsageError(
                f"unknown algorithm {key!r}; choose from all, "
                + ", ".join(ALGORITHMS)
            )
    return keys


def _load_tensor(path: str) -> np.ndarray:
    if path.lower().endswith((".ppm", ".pgm")):
        return load_image_tensor(path)
    try:
        with open(path, "rb") as f:
            data = np.load(f)
            if not isinstance(data, np.ndarray):
                raise ValueError("an .npz archive, not one array")
            if np.iscomplexobj(data):
                raise ValueError("complex entries")
            return np.asarray(data, dtype=np.float64)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise OSError(f"unreadable tensor file {path}: {exc}") from exc


def _approx_config(args, ranks: tuple[int, ...]) -> ApproxConfig:
    order = None if args.order is None else _parse_ints(args.order, ",", "processing order")
    extra = args.sketch_extra
    return ApproxConfig(
        target_ranks=ranks,
        processing_order=order,
        oversample=args.oversample,
        sketch_sizes=None if extra is None else tuple(r + extra for r in ranks),
        power_iters=args.q,
        seed=args.seed,
    )


def _cmd_gen_hilbert(args) -> int:
    np.save(args.out, hilbert_tensor(_parse_ints(args.dims)))
    return 0


def _cmd_gen_sparse(args) -> int:
    cfg = SparseGenConfig(
        n=args.n, gamma=args.gamma, seed=args.seed
    )
    np.save(args.out, sparse_lowrank_tensor(cfg))
    return 0


def _single_trial(args, load, peak: float | None = None):
    """Parse the config, then load --in and run one timed trial of the one --algo key.

    argparse has already checked --algo against the keys of
    `bench.ALGORITHMS`, and the config is built here before the input is
    read, so a usage error is reported as one (exit 1) whatever the state of
    --in.
    """
    cfg = _approx_config(args, _parse_ints(args.ranks, what="rank list"))
    return run_trial(args.command, args.algo, load(getattr(args, "in")), cfg, peak)


def _cmd_decompose(args) -> int:
    model, _, row = _single_trial(args, _load_tensor)
    print(f"algorithm={row.algorithm} rel_error={row.rel_error:.6e} wall_ms={row.wall_ms:.6e}")
    if args.out:
        save_model(model, args.out)
    return 0


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig(
        experiment=args.experiment,
        source=args.source,
        algorithms=_parse_algos(args.algo),
        dims=_parse_ints(args.dims) if args.dims else None,
        approx=tuple(_approx_config(args, _parse_ints(part, what="rank list")) for part in args.ranks.split(",")),
        image_path=args.image,
        trials=args.trials,
        base_seed=args.seed,
        gamma=args.gamma,
        delta=args.delta,
        aggregate=args.aggregate,
    )
    rows = run_bench(cfg)
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_image_compress(args) -> int:
    model, xhat, row = _single_trial(args, load_image_tensor, 255.0)
    save_image_tensor(xhat, args.out)
    print(
        f"algorithm={row.algorithm} psnr={row.psnr:.4f} "
        f"rel_error={row.rel_error:.6e} wall_ms={row.wall_ms:.6e}"
    )
    if args.model:
        save_model(model, args.model)
    if args.csv:
        write_csv([row], args.csv)
    return 0


def _add_approx_flags(sub, ranks_help: str = "target ranks, e.g. 10x10x10") -> None:
    sub.add_argument("--ranks", required=True, help=ranks_help)
    sub.add_argument(
        "--order", default=ApproxConfig.processing_order, help="processing order, e.g. 1,2,3"
    )
    sub.add_argument("--seed", type=int, default=ApproxConfig.seed)
    sub.add_argument("--oversample", type=int, default=ApproxConfig.oversample)
    sub.add_argument(
        "--sketch-extra",
        dest="sketch_extra",
        type=int,
        default=ApproxConfig.sketch_sizes,
        help="sketch size above the rank, e >= 2: l_n = r_n + e (default l_n = 2 r_n + 1)",
    )
    sub.add_argument(
        "--q", type=int, default=ApproxConfig.power_iters, help="subspace power iterations"
    )


@functools.cache  # built once per process: a build costs over ten parses
def _build_parser() -> _Parser:
    parser = _Parser(prog="tucksketch", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen_h = subs.add_parser("gen-hilbert", help="write a Hilbert tensor as .npy")
    gen_h.add_argument("--dims", required=True, help="e.g. 100x100x100")
    gen_h.add_argument("--out", required=True)
    gen_h.set_defaults(func=_cmd_gen_hilbert)

    gen_s = subs.add_parser("gen-sparse", help="write a sparse low-rank tensor as .npy")
    gen_s.add_argument("--n", type=int, required=True)
    gen_s.add_argument("--gamma", type=float, required=True)
    gen_s.add_argument("--seed", type=int, default=SparseGenConfig.seed)
    gen_s.add_argument("--out", required=True)
    gen_s.set_defaults(func=_cmd_gen_sparse)

    dec = subs.add_parser("decompose", help="decompose a tensor file once")
    dec.add_argument("--in", required=True, help=".npy, .ppm, or .pgm input")
    dec.add_argument("--algo", required=True, choices=ALGORITHMS)
    _add_approx_flags(dec)
    dec.add_argument("--out", default=None, help="write the model container here")
    dec.set_defaults(func=_cmd_decompose)

    ben = subs.add_parser("bench", help="run a sweep and write a CSV report")
    ben.add_argument("--experiment", default="bench")
    ben.add_argument("--source", required=True, choices=SOURCES)
    ben.add_argument("--dims", default=ExperimentConfig.dims, help="e.g. 100x100x100")
    ben.add_argument("--image", default=ExperimentConfig.image_path, help="PPM/PGM path for source=image")
    ben.add_argument("--algo", default="all", help="all or comma list")
    _add_approx_flags(ben, "comma list of rank tuples, e.g. 10x10x10,20x20x20")
    ben.add_argument("--trials", type=int, default=ExperimentConfig.trials)
    ben.add_argument("--gamma", type=float, default=ExperimentConfig.gamma)
    ben.add_argument("--delta", type=float, default=ExperimentConfig.delta, help="additive noise scale")
    ben.add_argument("--aggregate", choices=AGGREGATES, default=ExperimentConfig.aggregate)
    ben.add_argument("--out", required=True)
    ben.set_defaults(func=_cmd_bench)

    img = subs.add_parser("image-compress", help="low-rank compress a PPM/PGM image")
    img.add_argument("--in", required=True)
    img.add_argument("--algo", required=True, choices=ALGORITHMS)
    _add_approx_flags(img)
    img.add_argument("--out", required=True, help="reconstructed image path")
    img.add_argument("--model", default=None, help="also save the model container")
    img.add_argument("--csv", default=None, help="also write a one-row CSV report")
    img.set_defaults(func=_cmd_image_compress)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ImageFormatError as exc:
        print(f"image format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
