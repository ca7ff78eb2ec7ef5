"""Sketch-accelerated low-rank Tucker approximation of dense tensors."""

from .config import ApproxConfig
from .datagen import (
    SparseGenConfig,
    add_awgn,
    add_scaled_noise,
    gaussian_tensor,
    hilbert_tensor,
    sparse_lowrank_tensor,
)
from .linalg import (
    rsvd,
    sketch,
    sub_sketch,
    thin_qr,
    thin_svd,
    truncated_svd,
)
from .metrics import (
    BoundReport,
    SpectrumSummary,
    bound_oracle,
    f_factor,
    mode_tail_delta,
    psnr,
    relative_error,
    spectrum_summary,
    tail_energy,
)
from .rng import RngStream
from .tensor import fold, frobenius_norm, mode_n_product, unfold
from .tucker import (
    TuckerModel,
    load_model,
    r_sthosvd,
    reconstruct,
    save_model,
    sketch_sthosvd,
    sthosvd,
    sub_sketch_sthosvd,
    thosvd,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxConfig",
    "SparseGenConfig",
    "add_awgn",
    "add_scaled_noise",
    "gaussian_tensor",
    "hilbert_tensor",
    "sparse_lowrank_tensor",
    "rsvd",
    "sketch",
    "sub_sketch",
    "thin_qr",
    "thin_svd",
    "truncated_svd",
    "BoundReport",
    "SpectrumSummary",
    "bound_oracle",
    "f_factor",
    "mode_tail_delta",
    "psnr",
    "relative_error",
    "spectrum_summary",
    "tail_energy",
    "RngStream",
    "fold",
    "frobenius_norm",
    "mode_n_product",
    "unfold",
    "TuckerModel",
    "load_model",
    "r_sthosvd",
    "reconstruct",
    "save_model",
    "sketch_sthosvd",
    "sthosvd",
    "sub_sketch_sthosvd",
    "thosvd",
]
