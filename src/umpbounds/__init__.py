"""Finite-blocklength bounds and coset-code simulation for unequal message
protection over the binary symmetric and binary erasure channels.

Importing the package loads no layer: each public name, and each layer
module (`umpbounds.converse`, ...), is imported on first access, so a
command loads only the layers it runs.
"""

import importlib

__version__ = "0.1.0"


class ResourceBudgetError(Exception):
    """Raised when a request exceeds a resource budget: a codebook's table or
    decoding work, a bound sweep's spectrum cache, or a tradeoff sweep's rows."""


_LAYERS = ("achievability", "asymptotics", "channel", "cli", "converse", "cosets", "numerics")

# each layer's public names; a name resolves to its layer's object on first access
_PUBLIC = {
    "achievability": "HeaderSplit SimplexWeights dt_class_bound header_ach_bound max_log2M_dt",
    "asymptotics": "ModDevPoint expected_rate kl_divergence_bits md_exponent_and_speed "
    "normal_approx_log2M",
    "channel": "ChannelKind ChannelSpec ChannelStats InfoDensitySpectrum channel_stats "
    "info_density_spectrum",
    "converse": "NPBetaResult converse_eps_bec converse_max_log2M converse_max_log2M_bsc "
    "header_conv_eps_bec header_conv_max_log2M header_conv_max_log2M_bsc np_beta_bsc",
    "cosets": "CosetCodebook build_coset_code monte_carlo_error",
    "numerics": "LogValue gaussian_Q gaussian_Q_inv",
}
_DEFINED_IN = {name: layer for layer, names in _PUBLIC.items() for name in names.split()}

__all__ = sorted(["__version__", "ResourceBudgetError", *_DEFINED_IN])


def __getattr__(name):
    if name in _LAYERS:
        # importing a submodule also binds it here, so this runs once per layer
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _DEFINED_IN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_DEFINED_IN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAYERS, *_DEFINED_IN})
