"""Command-line front end: bound sweeps, coset simulation, betting tradeoffs.

Output is CSV with a '#' comment header that echoes the scientific config and
tool version (never the thread count or output path, so identical configs
produce byte-identical files). Infeasible cells print "NA". Exit codes:
0 success, 2 config error, 3 resource budget error, 4 simulate acceptance
failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import itertools
import math
import os
import sys
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import ResourceBudgetError, __version__
from .achievability import (
    SimplexWeights,
    best_over_splits,
    class_rate,
    dt_class_bound,
    max_log2M_dt,
    max_log2M_header_ach,
)
from .asymptotics import expected_rate, normal_approx_log2M
from .channel import (
    MAX_BOUND_LENGTH, MAX_SPECTRUM_CACHE_BYTES, SPECTRUM_CACHE_SIZE, ChannelKind, ChannelSpec,
    channel_stats,
)

# the layer each command runs besides those imported above: build_config
# loads it, so set-up imports only the command's own layers and a run none
COMMAND_LAYERS = {"bound": "converse", "simulate": "cosets"}

NA = "NA"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_ACCEPTANCE = 4

# tradeoff's cells, max(points, steps + 1) x blocklengths x columns: this bounds the
# CSV's size and the sweep's run time, how wide its rows grow with the classes, and
# the per-weight tables a one-class sweep builds on a fine grid
MAX_TRADEOFF_CELLS = 7_000_000
# tradeoff formats at most this many rows of one n at a time
TRADEOFF_SLICE_ROWS = 1 << 14

# dt_class_bound's rounding tolerance in simulate's pass check (an exact 1 reads 1 - 1e-14)
DT_BOUND_SLACK = 1e-9


class ConfigError(Exception):
    pass


class ClassSpec(NamedTuple):
    eps: Optional[float] = None
    k: Optional[int] = None
    lam: Optional[float] = None


class SweepConfig(NamedTuple):
    command: str
    channel: ChannelKind
    p: float
    n_list: List[int]
    classes: List[ClassSpec]
    mu: Optional[List[float]] = None
    n0: str = "auto"  # "auto" or an integer literal
    seed: int = 0
    trials: int = 10000
    codebooks: int = 1
    grid: float = 0.01
    eps0_grid: int = 1000
    out: Optional[str] = None
    threads: int = 1

    def echo_items(self) -> List[Tuple[str, str]]:
        """Config lines for the CSV comment header, deterministic order."""
        items = [
            ("command", self.command),
            ("channel", self.channel.value),
            ("p", _fmt(self.p)),
            ("n", ",".join(str(n) for n in self.n_list)),
        ]
        for c in self.classes:
            if c.k is not None:
                items.append(("class", f"k={c.k},lambda={_fmt(c.lam)}"))
            else:
                items.append(("class", f"eps={_fmt(c.eps)},lambda={_fmt(c.lam)}"))
        if self.mu is not None:
            items.append(("mu", ",".join(_fmt(v) for v in self.mu)))
        items.append(("n0", self.n0))
        items.append(("seed", str(self.seed)))
        items.append(("trials", str(self.trials)))
        items.append(("codebooks", str(self.codebooks)))
        items.append(("grid", _fmt(self.grid)))
        items.append(("eps0_grid", str(self.eps0_grid)))
        return items


def _fmt(x: Optional[float]) -> str:
    """Floating-point cells carry 12 significant digits."""
    if x is None:
        return NA
    return f"{x:.12g}"


def _parse_n(text: str) -> List[int]:
    try:
        if ":" in text:
            start, stop, step = (int(v) for v in text.split(":"))
            if step < 1 or start > stop:
                raise ConfigError(f"--n range needs step >= 1 and start <= stop, got {text!r}")
            values = list(range(start, stop + 1, step))
        else:
            values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--n must be a comma list or start:stop:step, got {text!r}") from exc
    if not values:
        raise ConfigError(f"--n needs at least one blocklength, got {text!r}")
    if min(values) < 1:
        raise ConfigError(f"--n values must be >= 1, got {text!r}")
    return values


def _parse_class(text: str) -> ClassSpec:
    values = {}
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(f"--class entries look like key=value, got {part!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in ("eps", "k", "lambda"):
            raise ConfigError(f"unknown --class key {key!r}")
        try:
            number = int(value) if key == "k" else float(value)
        except ValueError as exc:
            raise ConfigError(f"--class {key}= needs a number, got {value!r}") from exc
        values["lam" if key == "lambda" else key] = number
    out = ClassSpec(**values)
    if out.lam is None:
        raise ConfigError(f"--class {text!r} needs lambda=")
    if (out.eps is None) == (out.k is None):
        raise ConfigError(f"--class {text!r} needs exactly one of eps= or k=")
    if out.eps is not None and not 0.0 < out.eps < 1.0:
        raise ConfigError(f"--class eps= must be in (0, 1), got {out.eps}")
    if out.k is not None and out.k < 0:
        raise ConfigError(f"--class k= must be >= 0, got {out.k}")
    return out


def _parse_mu(text: str) -> List[float]:
    try:
        return list(SimplexWeights(float(v) for v in text.split(",") if v.strip()).weights)
    except ValueError as exc:
        raise ConfigError(f"--mu must be a probability vector, got {text!r}: {exc}") from exc


def _checked(convert, flag: str, ok, rule: str):
    """An argparse type= that converts like `convert` and refuses a value `ok` rejects."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ConfigError(f"{flag} must be {rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type when `convert` fails
    return parse


def _divides_one(grid: float) -> bool:
    steps = 1.0 / grid if 0.0 < grid <= 1.0 else math.inf
    return not math.isinf(steps) and abs(steps - round(steps)) <= 1e-9 / grid


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's refusal: a config error, not SystemExit
        raise ConfigError(message)


def _build_parser(strict: bool = False) -> argparse.ArgumentParser:
    """The command, then one flag set that all three commands share; with
    `strict`, the config-file parser: no --config or --help, no abbreviated flag."""
    parser = _Parser(
        prog="umpbounds", description="Finite-blocklength UMP bounds and coset-code simulation",
        add_help=not strict, allow_abbrev=not strict,
    )
    add = parser.add_argument
    add("command", choices=("bound", "simulate", "tradeoff"))
    if not strict:
        add("--config", help="file of key = value lines, keys named as flags")
    add("--channel", type=ChannelKind, metavar="{bsc,bec}")
    add("--p", type=_checked(float, "--p", lambda p: 0.0 <= p <= 1.0, "in [0, 1]"))
    add("--n", dest="n_list", type=_parse_n, metavar="N", help="comma list or start:stop:step")
    add("--class", dest="classes", type=_parse_class, action="append",
        help="eps=<f>,lambda=<f> or k=<u>,lambda=<f>; repeatable")
    add("--mu", type=_parse_mu)
    add("--n0", help="auto or an integer header length",
        type=_checked(str, "--n0", lambda v: v == "auto" or (v.isdigit() and v.isascii()),
                      "'auto' or an integer >= 0"))
    add("--seed", type=_checked(int, "--seed", lambda v: v >= 0, ">= 0"))
    add("--trials", type=int)
    add("--codebooks", type=int)
    add("--grid", type=_checked(float, "--grid", _divides_one, "in (0, 1] and divide 1"))
    add("--eps0-grid", type=_checked(int, "--eps0-grid", lambda v: v >= 1, ">= 1"))
    add("--out")
    return parser


def _read_config_file(path: str, command: str) -> argparse.Namespace:
    """A file of `key = value` lines, parsed as the flags `--key=value` of `command`."""
    keys, flags = [], []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}: config line needs key=value: {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                keys.append(key)
                flags.append(f"--{key.replace('_', '-')}={value}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        args, extras = _build_parser(strict=True).parse_known_args([command, *flags])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    unknown = [key for key, flag in zip(keys, flags) if flag in extras]
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r}")
    return args


REQUIRED_FLAGS = (("channel", "--channel"), ("p", "--p"), ("n_list", "--n"), ("classes", "--class"))


def build_config(argv: Sequence[str]) -> SweepConfig:
    # a command given first has its layer loaded before the parser exists.
    # Compiled after the parser, cosets left simulate's run phase
    # 4 % slower and its peak RSS 0.1-0.35 MB higher, by heap layout alone.
    if argv and argv[0] in COMMAND_LAYERS:
        importlib.import_module(f"{__package__}.{COMMAND_LAYERS[argv[0]]}")
    args = _build_parser().parse_args(argv)
    # command-line values override the file's; a --class flag replaces every class line
    sources = [_read_config_file(args.config, args.command), args] if args.config else [args]
    fields = {k: v for ns in sources for k, v in vars(ns).items() if v is not None}
    fields.pop("config", None)
    for field, flag in REQUIRED_FLAGS:
        if field not in fields:
            raise ConfigError(f"{flag} is required")
    try:
        threads = max(1, int(os.environ.get("UMP_THREADS", "1")))
    except ValueError as exc:
        raise ConfigError(f"UMP_THREADS must be an integer: {exc}") from exc
    cfg = SweepConfig(**fields, threads=threads)
    lams = [c.lam for c in cfg.classes]
    try:
        SimplexWeights(lams)
    except ValueError as exc:
        raise ConfigError(f"--class lambda= values: {exc}") from exc
    if cfg.command != "tradeoff" and min(lams) <= 0.0:
        raise ConfigError(f"{cfg.command} needs every --class lambda= > 0, got {lams}")
    if cfg.command in ("bound", "tradeoff") and any(c.eps is None for c in cfg.classes):
        raise ConfigError(f"{cfg.command} needs eps= in every --class")
    if cfg.command == "simulate":
        if any(c.k is None for c in cfg.classes):
            raise ConfigError("simulate needs k= in every --class")
        if cfg.trials < 100:
            raise ConfigError(f"simulate needs --trials >= 100, got {cfg.trials}")
        if cfg.codebooks < 1:
            raise ConfigError(f"--codebooks must be >= 1, got {cfg.codebooks}")
    if cfg.command == "tradeoff":
        if cfg.mu is None:
            raise ConfigError("tradeoff requires --mu")
        if channel_stats(ChannelSpec(cfg.channel, cfg.p, 1)).dispersion <= 0.0:
            raise ConfigError(f"tradeoff needs a channel of positive dispersion, got --p {cfg.p}")
        if len(cfg.mu) != len(cfg.classes):
            raise ConfigError(
                f"{len(cfg.mu)} mu entries for {len(cfg.classes)} classes"
            )
    # an output that cannot be opened is refused here, not after the sweep
    if cfg.out and os.path.isdir(cfg.out):
        raise ConfigError(f"--out {cfg.out} is a directory")
    if cfg.out and not os.path.isdir(os.path.dirname(cfg.out) or "."):
        raise ConfigError(f"--out {cfg.out}: no directory {os.path.dirname(cfg.out)}")
    if cfg.out:
        # opened for append, so a file there keeps its bytes; one made here is removed
        existed = os.path.lexists(cfg.out)
        try:
            os.close(os.open(cfg.out, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666))
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}") from exc
        if not existed:
            os.remove(cfg.out)
    return cfg


# --------------------------------------------------------------------------
# bound sweep
# --------------------------------------------------------------------------

BOUND_COLUMNS = [
    "n",
    "class",
    "lambda",
    "eps_target",
    "log2M_dt",
    "log2M_converse",
    "log2M_header_ach",
    "log2M_header_conv",
    "log2M_normal_approx",
]


def bound_rows(cfg: SweepConfig) -> List[List[str]]:
    """One row per (n, class). The searches run once per distinct (n, eps), at
    lambda = 1; each class shifts its DT, converse and normal rates by log2 lambda
    (`class_rate`: NA below 0 unless the bound at log2M = 0 meets eps; the
    normal approximation is clamped at 0)."""
    from .converse import converse_fits_one, converse_max_log2M, header_conv_max_log2M

    n_max = max(cfg.n_list)
    if n_max > MAX_BOUND_LENGTH:
        # a cached spectrum holds up to three float64 arrays of n + 1 weights
        raise ResourceBudgetError(
            f"{SPECTRUM_CACHE_SIZE * 24 * (n_max + 1)} spectrum cache bytes at n = {n_max} "
            f"exceed budget {MAX_SPECTRUM_CACHE_BYTES}; sweep shorter blocklengths"
        )
    m = len(cfg.classes)
    all_eps = [c.eps for c in cfg.classes]
    n0 = None if cfg.n0 == "auto" else int(cfg.n0)  # None: best over the splits
    header_conv_at = functools.partial(header_conv_max_log2M, eps0_points=cfg.eps0_grid)
    has_normal = channel_stats(ChannelSpec(cfg.channel, cfg.p, 1)).dispersion > 0.0

    @functools.cache
    def rates(n: int, eps: float) -> Tuple[Optional[float], ...]:
        spec = ChannelSpec(cfg.channel, cfg.p, n)
        return (
            max_log2M_dt(spec, eps, 1.0),
            converse_max_log2M(spec, eps, 1.0),
            *(best_over_splits(rate, spec, eps, m, all_eps, n0)
              for rate in (max_log2M_header_ach, header_conv_at)),
            normal_approx_log2M(spec, eps, 1.0) if has_normal else None,
        )

    def row(n: int, idx: int) -> List[str]:
        c = cfg.classes[idx]
        spec = ChannelSpec(cfg.channel, cfg.p, n)
        dt, conv, header_ach, header_conv, normal = rates(n, c.eps)
        if normal is not None:
            normal = max(0.0, normal + math.log2(c.lam))
        dt = class_rate(dt, c.lam, lambda: dt_class_bound(spec, 0.0, c.lam) <= c.eps)
        conv = class_rate(conv, c.lam, lambda: converse_fits_one(spec, c.eps, c.lam))
        cells = (c.lam, c.eps, dt, conv, header_ach, header_conv, normal)
        return [str(n), str(idx), *map(_fmt, cells)]

    return [row(n, idx) for n, idx in sorted(itertools.product(cfg.n_list, range(m)))]


# --------------------------------------------------------------------------
# coset simulation
# --------------------------------------------------------------------------

SIMULATE_COLUMNS = [
    "n",
    "class",
    "k",
    "lambda",
    "codebooks",
    "trials",
    "errors",
    "error_rate",
    "std_error",
    "dt_bound",
    "pass",
]


def simulate_rows(cfg: SweepConfig) -> Tuple[List[List[str]], bool]:
    from .cosets import build_coset_code, monte_carlo_error

    if len(cfg.n_list) != 1:
        raise ConfigError(f"simulate takes a single blocklength --n, got {len(cfg.n_list)}")
    n = cfg.n_list[0]
    spec = ChannelSpec(cfg.channel, cfg.p, n)
    ks = [c.k for c in cfg.classes]
    lambdas = SimplexWeights([c.lam for c in cfg.classes])
    m = len(ks)
    errors = [0] * m
    for s in range(cfg.codebooks):
        build_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([cfg.seed, s, 0]))
        )
        code = build_coset_code(spec, ks, lambdas, build_rng)
        mc_seed = int(
            np.random.SeedSequence([cfg.seed, s, 1]).generate_state(1, dtype=np.uint64)[0]
        )
        counts = monte_carlo_error(code, spec, cfg.trials, mc_seed, threads=cfg.threads)
        errors = [total + count for total, count in zip(errors, counts)]
    total_trials = cfg.trials * cfg.codebooks
    rows = []
    all_pass = True
    for i, cls in enumerate(cfg.classes):
        rate = errors[i] / total_trials
        se = math.sqrt(rate * (1.0 - rate) / total_trials)
        bound = dt_class_bound(spec, float(cls.k), cls.lam)
        ok = rate <= bound + 3.0 * se + DT_BOUND_SLACK
        all_pass &= ok
        rows.append(
            [
                str(n),
                str(i),
                str(cls.k),
                _fmt(cls.lam),
                str(cfg.codebooks),
                str(total_trials),
                str(errors[i]),
                _fmt(rate),
                _fmt(se),
                _fmt(bound),
                "1" if ok else "0",
            ]
        )
    return rows, all_pass


# --------------------------------------------------------------------------
# betting tradeoff
# --------------------------------------------------------------------------


def _compositions(m: int, steps: int) -> Iterator[np.ndarray]:
    """Compositions of `steps` into m parts in lex order, as integer arrays of
    at most TRADEOFF_SLICE_ROWS rows; part c stands for the weight c / steps.

    Stars and bars: m - 1 bars among steps + m - 1 places, the parts being
    the gaps between them. Bar positions in lex order give the parts in lex
    order, and `itertools.combinations` yields them one block at a time.
    """
    if m == 1:  # no bars: a zero-width block cannot be reshaped
        yield np.array([[steps]])
        return
    bars = itertools.combinations(range(steps + m - 1), m - 1)
    while True:
        block = itertools.islice(bars, TRADEOFF_SLICE_ROWS)
        block = np.fromiter(itertools.chain.from_iterable(block), np.int64).reshape(-1, m - 1)
        if not len(block):
            return
        yield np.diff(block, prepend=-1, append=steps + m - 1) - 1


def _simplex_points(mu: Sequence[float], steps: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Each block of `_compositions(len(mu), steps)` with its points' D(mu || lambda) in bits.

    Each class with mu_i > 0 has one table T_i[c] = mu_i log2(mu_i / (c / steps)),
    inf at c = 0: the terms of `kl_divergence_bits`, with its `math.log2`. A
    point's loss adds them in class order, starting from 0.0, so it equals
    kl_divergence_bits(mu, lambda) bit for bit (an inf term stays inf).
    """
    weights = np.arange(1, steps + 1) / steps
    tables = [
        (i, mu_i * np.array([math.inf, *map(math.log2, (mu_i / weights).tolist())]))
        for i, mu_i in enumerate(mu)
        if mu_i > 0.0
    ]
    for counts in _compositions(len(mu), steps):
        losses = np.zeros(len(counts))
        for i, table in tables:
            losses += table[counts[:, i]]
        yield counts, losses


def tradeoff_columns(m: int) -> List[str]:
    return ["n"] + [f"lambda_{i+1}" for i in range(m)] + [
        "expected_rate",
        "kl_loss",
        "is_argmax",
    ]


def tradeoff_text(cfg: SweepConfig) -> Iterator[str]:
    """The sweep's CSV rows as text, a slice of one blocklength at a time.

    Every number and every check (the cell budget, the losses, each n's
    expected rates and argmax) is computed before this returns, so a failing
    sweep fails before any output is opened. The simplex points come in
    blocks of at most TRADEOFF_SLICE_ROWS (`_simplex_points`): each block
    gives its losses, from one KL table per class, and its points' lambda
    cells, one %-format of a repeated template per block, kept as one prefix
    string per point and shared by every n. Each n's rates (base - loss) / n
    and its first argmax are float64 array work. The iterator then formats
    each n's rows in slices of at most TRADEOFF_SLICE_ROWS rows, one %-format
    of a repeated row template per slice, so the text alive at once stays
    bounded however many points one n has. The argmax row is a piece of its
    own.
    """
    m = len(cfg.classes)
    mu = cfg.mu
    steps = round(1.0 / cfg.grid)
    points = math.comb(steps + m - 1, m - 1)
    size = max(points, steps + 1) * len(cfg.n_list) * len(tradeoff_columns(m))
    if size > MAX_TRADEOFF_CELLS:
        raise ResourceBudgetError(
            f"{size} tradeoff cells exceed budget {MAX_TRADEOFF_CELLS}; "
            "coarsen --grid or sweep fewer n or classes"
        )
    # every weight on the grid is c / steps: format each once, indexed by c
    cells = [f"{w:.12g}" for w in (np.arange(steps + 1) / steps).tolist()]
    lam_row = ",".join(["%s"] * m) + "\n"
    prefixes, losses = [], np.empty(points)
    for counts, block_losses in _simplex_points(mu, steps):
        losses[len(prefixes) : len(prefixes) + len(counts)] = block_losses
        lam_cells = tuple(map(cells.__getitem__, counts.ravel().tolist()))
        prefixes += (lam_row * len(counts) % lam_cells).splitlines()
    del cells  # the rows need only the prefixes and the losses
    eps = [c.eps for c in cfg.classes]
    blocks = []
    for n in cfg.n_list:
        rates = expected_rate(ChannelSpec(cfg.channel, cfg.p, n), eps, mu, losses)
        # the first maximizer; none when every point has lambda_i = 0 at some mu_i > 0
        best = int(np.argmax(rates))
        blocks.append((n, rates, best if rates[best] > -math.inf else None))

    def block_text(block) -> Iterator[str]:
        n, rates, best = block
        row = f"{n},%s,%.12g,%.12g,0\n"

        def text(a: int, b: int) -> str:
            args = [None] * (3 * (b - a))
            args[0::3] = prefixes[a:b]
            args[1::3] = rates[a:b].tolist()
            args[2::3] = (losses[a:b] / n).tolist()
            return row * (b - a) % tuple(args)

        for a in range(0, points, TRADEOFF_SLICE_ROWS):
            b = min(a + TRADEOFF_SLICE_ROWS, points)
            if best is not None and a <= best < b:
                yield text(a, best)
                yield text(best, best + 1)[:-2] + "1\n"  # its is_argmax cell reads 1
                yield text(best + 1, b)
            else:
                yield text(a, b)

    return itertools.chain.from_iterable(map(block_text, blocks))


def tradeoff_rows(cfg: SweepConfig) -> Iterator[List[str]]:
    """The rows of `tradeoff_text`, split into cells."""
    return (line.split(",") for piece in tradeoff_text(cfg) for line in piece.splitlines())


# --------------------------------------------------------------------------
# CSV emission and entry point
# --------------------------------------------------------------------------


def write_csv(cfg: SweepConfig, columns: List[str], text: Iterable[str], stream) -> None:
    """The comment header, the column line, then `text`: whole lines, in pieces."""
    stream.write(f"# umpbounds {__version__}\n")
    for key, value in cfg.echo_items():
        stream.write(f"# {key} = {value}\n")
    stream.write(",".join(columns) + "\n")
    stream.writelines(text)


def run(cfg: SweepConfig) -> int:
    # set-up's objects (numpy, the layers, the config) outlive the run, so they
    # are frozen for it: a collection during the run then scans only the run's
    # own objects, where one that rescanned set-up's took 1-2 ms of a 10 ms bound
    gc.freeze()
    try:
        return _run(cfg)
    finally:
        gc.unfreeze()


def _run(cfg: SweepConfig) -> int:
    status = EXIT_OK
    if cfg.command == "tradeoff":
        columns, text = tradeoff_columns(len(cfg.classes)), tradeoff_text(cfg)
    else:
        if cfg.command == "bound":
            columns, rows = BOUND_COLUMNS, bound_rows(cfg)
        else:
            rows, all_pass = simulate_rows(cfg)
            columns = SIMULATE_COLUMNS
            if not all_pass:
                status = EXIT_ACCEPTANCE
        text = (",".join(row) + "\n" for row in rows)
    if cfg.out:
        try:
            fh = open(cfg.out, "w")
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}") from exc
        with fh:
            write_csv(cfg, columns, text, fh)
    else:
        write_csv(cfg, columns, text, sys.stdout)
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = build_config(list(argv) if argv is not None else sys.argv[1:])
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
