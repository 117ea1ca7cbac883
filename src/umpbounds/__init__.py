"""Finite-blocklength bounds and coset-code simulation for unequal message
protection over the binary symmetric and binary erasure channels."""

__version__ = "0.1.0"

from .achievability import (
    HeaderSplit,
    SimplexWeights,
    dt_class_bound,
    header_ach_bound,
    max_log2M_dt,
)
from .asymptotics import (
    ModDevPoint,
    expected_rate,
    kl_divergence_bits,
    md_exponent_and_speed,
    normal_approx_log2M,
)
from .channel import (
    ChannelKind,
    ChannelSpec,
    ChannelStats,
    InfoDensitySpectrum,
    channel_stats,
    info_density_spectrum,
)
from .converse import (
    NPBetaResult,
    converse_eps_bec,
    converse_max_log2M,
    converse_max_log2M_bec,
    converse_max_log2M_bsc,
    header_conv_eps_bec,
    header_conv_max_log2M,
    header_conv_max_log2M_bsc,
    np_beta_bsc,
)
from .cosets import (
    CosetCodebook,
    ResourceBudgetError,
    build_coset_code,
    load_codebook,
    monte_carlo_error,
    save_codebook,
)
from .numerics import (
    LogValue,
    gaussian_Q,
    gaussian_Q_inv,
)

__all__ = [
    "__version__",
    "ChannelKind",
    "ChannelSpec",
    "ChannelStats",
    "CosetCodebook",
    "HeaderSplit",
    "InfoDensitySpectrum",
    "LogValue",
    "ModDevPoint",
    "NPBetaResult",
    "ResourceBudgetError",
    "SimplexWeights",
    "build_coset_code",
    "channel_stats",
    "converse_eps_bec",
    "converse_max_log2M",
    "converse_max_log2M_bec",
    "converse_max_log2M_bsc",
    "dt_class_bound",
    "expected_rate",
    "gaussian_Q",
    "gaussian_Q_inv",
    "header_ach_bound",
    "header_conv_eps_bec",
    "header_conv_max_log2M",
    "header_conv_max_log2M_bsc",
    "info_density_spectrum",
    "kl_divergence_bits",
    "load_codebook",
    "max_log2M_dt",
    "md_exponent_and_speed",
    "monte_carlo_error",
    "normal_approx_log2M",
    "np_beta_bsc",
    "save_codebook",
]
