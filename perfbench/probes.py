"""Layer probes: public umpbounds functions timed by direct repeated calls.

Each probe makes one untimed warm-up call (filling the library's own caches,
as every call in a real run after the first finds them filled), then times
calls until it has at least `min_calls` samples and has spent `budget_s`, or
reached `max_calls`. Results are the median and p90 of the per-call times;
below ten samples the p90 is the largest sample. The header-scan probe skips
the warm-up: one call takes seconds, and the caches it fills cost
milliseconds.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List


def _time_calls(
    fn: Callable[[], object], budget_s: float, min_calls: int, max_calls: int, warm_up: bool
) -> List[float]:
    if warm_up:
        fn()
    samples: List[float] = []
    spent = 0.0
    while len(samples) < max_calls and (len(samples) < min_calls or spent < budget_s):
        start = time.perf_counter()
        fn()
        dt = time.perf_counter() - start
        samples.append(dt)
        spent += dt
    return samples


def _p90(samples: List[float]) -> float:
    if len(samples) >= 10:
        return statistics.quantiles(samples, n=10)[-1]
    return max(samples)


def run_probes(ub) -> Dict[str, dict]:
    """Time each probe against the imported `umpbounds` package `ub`.

    Returns {probe name: {"unit", "p50", "p90", "calls"}}; a probe whose
    function no longer exists is reported with "absent": True.
    """
    import numpy as np

    from workloads import THIRD

    bsc = lambda n: ub.ChannelSpec(ub.ChannelKind.BSC, 0.11, n)  # noqa: E731
    bec = lambda n: ub.ChannelSpec(ub.ChannelKind.BEC, 0.5, n)  # noqa: E731
    lam = float(THIRD)

    def mc_chunk(monte_carlo_error):
        spec = ub.ChannelSpec(ub.ChannelKind.BEC, 0.5, 64)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([1, 0, 0])))
        code = ub.build_coset_code(spec, [8, 4], ub.SimplexWeights([0.5, 0.5]), rng)
        chunk = getattr(ub.cosets, "MC_CHUNK", 8192)
        # one call decodes one chunk per class; report the time per chunk
        return lambda: monte_carlo_error(code, spec, chunk, 12345), code.m

    achievability = ub.achievability
    converse = ub.converse
    # name -> (module, function name, call factory, unit scale, unit, budget s,
    #          min calls, max calls, warm-up)
    specs = {
        "dt_tail_sum_us": (
            achievability, "dt_class_bound",
            lambda f: (lambda: f(bsc(1000), 400.0, lam), 1), 1e6, "us", 0.4, 21, 4000, True,
        ),
        "bec_conv_sum_us": (
            converse, "converse_eps_bec",
            lambda f: (lambda: f(bec(1000), 480.0, lam), 1), 1e6, "us", 0.4, 21, 4000, True,
        ),
        "np_beta_us": (
            converse, "np_beta_bsc",
            lambda f: (lambda: f(1000, 0.11, 1.0 - 1e-3), 1), 1e6, "us", 0.4, 21, 4000, True,
        ),
        "rate_search_ms": (
            achievability, "max_log2M_dt",
            lambda f: (lambda: f(bsc(1000), 1e-3, lam), 1), 1e3, "ms", 0.6, 21, 400, True,
        ),
        "header_scan_s": (
            achievability, "max_log2M_header_ach_best",
            lambda f: (lambda: f(bsc(500), 1e-3, 3, [1e-3] * 3), 1), 1.0, "s", 0.0, 3, 3, False,
        ),
        "mc_chunk_ms": (
            ub.cosets, "monte_carlo_error",
            mc_chunk, 1e3, "ms", 0.6, 11, 200, True,
        ),
    }
    out: Dict[str, dict] = {}
    for name, (module, fn_name, factory, scale, unit, budget, lo, hi, warm) in specs.items():
        fn = getattr(module, fn_name, None)
        if fn is None:
            out[name] = {"unit": unit, "absent": True, "function": f"{module.__name__}.{fn_name}"}
            continue
        call, per_call = factory(fn)
        samples = [s / per_call for s in _time_calls(call, budget, lo, hi, warm)]
        out[name] = {
            "unit": unit,
            "p50": statistics.median(samples) * scale,
            "p90": _p90(samples) * scale,
            "calls": len(samples),
        }
    return out
