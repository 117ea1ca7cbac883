"""Union-of-coset UMP codes over GF(2) and their Monte Carlo validation.

Each class is a coset {uG_i + v_i} of a random linear code; the decoder scans
classes in index order and outputs the first codeword whose information
density strictly exceeds the class threshold log2(M_i / lambda_i).
`monte_carlo_error` counts how often that rule errs. Words are stored packed
64 bits per word. On the BSC the density is affine in the Hamming distance,
so a class's qualifying distances are a prefix or a suffix of 0..n and one
comparison tests a codeword; the BSC decoder compares outputs with the
codeword table by XOR + popcount, one (codewords, trials) block at a time
within a byte budget, in buffers allocated once per call. The BEC needs no
decode at all: every word that agrees with the unerased symbols has the same
density, so whether a trial errs follows from the rank profile of the
generator rows masked to the unerased positions (`_bec_errors`).

Single codebook draws may exceed the analytic class bound; the random-coding
guarantee is in expectation over codebooks, so validation averages over
(seeded) codebook draws.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .achievability import SimplexWeights
from .channel import ChannelKind, ChannelSpec, info_density_spectrum

MAX_CLASS_K = 20
MAX_TOTAL_CODEWORDS = 1 << 22

_MAGIC = b"UMPC"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<HBd I H")  # version, channel code, p, n, classes
_CLASS = struct.Struct("<Hd")  # k_i, lambda_i, then ceil(n/8) bytes per shift and row

MC_CHUNK = 8192
# byte budget of the BSC decoder's (block, trials, words) XOR buffer
DECODE_BLOCK_BYTES = 1 << 21


class ResourceBudgetError(Exception):
    """Raised when a requested codebook exceeds the codeword-table budget."""


def _words(n: int) -> int:
    return (n + 63) // 64


def _pack_rows(bits: np.ndarray, n: int) -> np.ndarray:
    """Pack (T, n) 0/1 rows into (T, ceil(n/64)) uint64 words, bit 0 first.

    Boolean rows are packed as they are; other dtypes are converted first.
    """
    bits = np.atleast_2d(bits)
    bits = bits.view(np.uint8) if bits.dtype == bool else bits.astype(np.uint8, copy=False)
    packed = np.packbits(bits, axis=1, bitorder="little")
    pad = _words(n) * 8 - packed.shape[1]
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return packed.view("<u8")


def _frozen(rows: Sequence[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """Read-only uint8 copies of the caller's rows."""
    out = tuple(np.array(r, dtype=np.uint8) for r in rows)
    for r in out:
        r.setflags(write=False)
    return out


@dataclass(frozen=True)
class CosetCodebook:
    """Per-class generator matrices, coset shifts and decoding thresholds.

    Message index w maps to coefficient bits little-endian: bit j of w selects
    generator row j. Coset codewords are not necessarily distinct for random
    generators; collisions are not an error, and only make the empirical
    error conservative. The codebook is immutable: `packed` is derived from
    `generators` and `shifts` once, so all three are tuples of read-only
    arrays and a write to them raises.
    """

    n: int
    k: Tuple[int, ...]
    lambdas: SimplexWeights
    generators: Tuple[np.ndarray, ...]  # class i: (k_i, n) uint8
    shifts: Tuple[np.ndarray, ...]  # class i: (n,) uint8
    # class i: generator rows (k_i, words) and shift (words,), packed
    packed: Tuple[Tuple[np.ndarray, np.ndarray], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        generators, shifts = _frozen(self.generators), _frozen(self.shifts)
        packed = tuple(
            (_pack_rows(g, self.n), _pack_rows(v, self.n)[0]) for g, v in zip(generators, shifts)
        )
        for gen, shift in packed:
            gen.flags.writeable = shift.flags.writeable = False
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "packed", packed)

    @property
    def m(self) -> int:
        return len(self.k)

    @property
    def log2_thresholds(self) -> Tuple[float, ...]:
        """Decoding thresholds log2(M_i / lambda_i), in bits."""
        return tuple(k_i - math.log2(lam) for k_i, lam in zip(self.k, self.lambdas.weights))

    def codewords_packed(self, class_i: int) -> np.ndarray:
        """All 2^k_i codewords of the class, packed, indexed by message; a new
        read-only table on every call."""
        gen, shift = self.packed[class_i]
        table = shift[None, :]
        for row in gen:
            table = np.vstack([table, table ^ row])
        table.setflags(write=False)
        return table


def _check_classes(k: Sequence[int], lambdas: Sequence[float]) -> None:
    """The class rules of a coset code: one weight per class, every k_i in
    0..MAX_CLASS_K, at most MAX_TOTAL_CODEWORDS codewords in all, and every
    lambda_i > 0 (the decoding threshold divides by it)."""
    if len(k) != len(lambdas):
        raise ValueError(f"{len(k)} classes but {len(lambdas)} simplex weights")
    if any(v < 0 for v in k):
        raise ValueError(f"class exponents must be >= 0: {k}")
    if any(v > MAX_CLASS_K for v in k):
        raise ResourceBudgetError(
            f"class exponent above decoding budget k <= {MAX_CLASS_K}: {k}"
        )
    if sum(1 << v for v in k) > MAX_TOTAL_CODEWORDS:
        raise ResourceBudgetError(
            f"total codewords {sum(1 << v for v in k)} exceed budget {MAX_TOTAL_CODEWORDS}"
        )
    if any(lam <= 0.0 for lam in lambdas):
        raise ValueError("every class in a coset code needs lambda_i > 0")


def build_coset_code(
    spec: ChannelSpec, k: Sequence[int], lambdas: SimplexWeights, rng: np.random.Generator
) -> CosetCodebook:
    """Draw all generator and shift entries as i.i.d. fair bits.

    Deterministic given the rng state. Budget: every k_i <= 20 and the total
    codeword count <= 2^22, so the packed codeword tables that Monte Carlo
    encoding and the BSC block scan read stay small (at most 32 MiB per 64
    symbols of n).
    """
    k = tuple(int(v) for v in k)
    _check_classes(k, lambdas.weights)
    generators, shifts = [], []
    for k_i in k:
        generators.append(rng.integers(0, 2, size=(k_i, spec.n), dtype=np.uint8))
        shifts.append(rng.integers(0, 2, size=spec.n, dtype=np.uint8))
    return CosetCodebook(spec.n, k, lambdas, generators, shifts)


def _qualifying_distances(density: np.ndarray, threshold: float) -> Optional[Tuple[int, int]]:
    """(lo, hi) such that density[t] > threshold exactly for lo <= t <= hi.

    On the BSC the density is a constant plus a multiple of the distance t
    where finite, so monotone in t in float too, and -inf elsewhere; the
    qualifying distances are a prefix of 0..n (p < 1/2, p = 0) or a suffix
    (p > 1/2, p = 1). None when no distance qualifies.
    """
    t = np.flatnonzero(density > threshold)
    return (int(t[0]), int(t[-1])) if t.size else None


def _decode_batch_bsc(
    code: CosetCodebook, tables: Sequence[np.ndarray], spec: ChannelSpec, y_packed: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """First codeword above threshold, scanning each class table tables[i] in blocks.

    A block is laid out (codewords, trials, words), so each XOR broadcasts one
    codeword over a contiguous row of trials; it holds as many codewords as
    keep that XOR within DECODE_BLOCK_BYTES (at least one). The XOR, its
    popcount, the distance and the qualify test write into buffers allocated
    once per call. A codeword qualifies when its distance lies in the class's
    qualifying prefix or suffix, one comparison. Trials that hit leave before
    the next block, so the scan order, and the output, is that of one full
    pass.
    """
    T, W = y_packed.shape
    out_class = np.full(T, -1, dtype=np.int32)
    out_msg = np.full(T, -1, dtype=np.int64)
    idx = np.arange(T)
    ys = y_packed
    density = info_density_spectrum(ChannelKind.BSC, spec.n, spec.p).density
    size = max(DECODE_BLOCK_BYTES // 8, T * W)
    xor_buf = np.empty(size, dtype=np.uint64)
    count_buf = np.empty(size, dtype=np.uint8)
    dist_buf = count_buf if W == 1 else np.empty(size // W, np.min_scalar_type(spec.n))
    test_buf = np.empty(size // W, dtype=bool)
    for class_i in range(code.m):
        if not idx.size:
            break
        qualifying = _qualifying_distances(density, code.log2_thresholds[class_i])
        if qualifying is None:
            continue
        lo, hi = qualifying
        table = tables[class_i]
        start = 0
        while idx.size and start < len(table):
            t = idx.size
            rows = table[start : start + max(1, DECODE_BLOCK_BYTES // (t * W * 8))]
            b = len(rows)
            shape = (b, t, W)
            diff = np.bitwise_xor(
                rows[:, None, :], ys[None, :, :], out=xor_buf[: b * t * W].reshape(shape)
            )
            count = np.bitwise_count(diff, out=count_buf[: b * t * W].reshape(shape))
            dist = dist_buf[: b * t].reshape(b, t)
            if W > 1:
                np.add.reduce(count, axis=2, dtype=dist.dtype, out=dist)
            qualify = test_buf[: b * t].reshape(b, t)
            if lo == 0:
                np.less_equal(dist, hi, out=qualify)
            else:
                np.greater_equal(dist, lo, out=qualify)
            has = qualify.any(axis=0)
            cols = np.flatnonzero(has)
            if cols.size:
                out_class[idx[cols]] = class_i
                out_msg[idx[cols]] = start + qualify[:, cols].argmax(axis=0)
                miss = ~has
                idx, ys = idx[miss], ys[miss]
            start += b
    return out_class, out_msg


def _lowest_bit(rows: np.ndarray) -> np.ndarray:
    """One-hot (t, words) mask of each row's lowest set bit; zero rows give zeros."""
    low = rows & (~rows + np.uint64(1))
    first = (rows != 0).argmax(axis=1)
    low *= np.arange(rows.shape[1]) == first[:, None]
    return low


def _rank_profile(rows: Sequence[np.ndarray], known: np.ndarray) -> np.ndarray:
    """Bit j set, per trial, where rows[j] & known lies in the span of the
    earlier masked rows.

    known is (t,) packed words for one-word n, else (t, words); each row
    broadcasts against it, so a row is shared by every trial (a generator
    row) or given per trial. Gaussian elimination over GF(2), vectorized
    across trials: each masked row is reduced against the earlier reduced
    rows in order, and a reduced row's pivot is one of its set bits. Every
    later row is reduced with that bit clear, so the reduced rows stay in
    echelon form and a row reduces to zero exactly when it depends on the
    rows before it. On one word the pivot is the top bit, so a step is
    min(x, x ^ b): x ^ b < x exactly when x has b's top bit. On more words
    it is the lowest bit, tested through a one-hot mask and applied by
    multiplying by the 0/1 hit. Temporaries are allocated once per call.
    """
    t = known.shape[0]
    tmp = np.empty_like(known)
    hit = np.empty((t, 1), dtype=bool)
    dependent = np.zeros(t, dtype=np.uint64)
    basis = []
    for j, row in enumerate(rows):
        row = known & row
        if row.ndim == 1:
            for b in basis:
                np.minimum(row, np.bitwise_xor(row, b, out=tmp), out=row)
            nonzero = row != 0
        else:
            for b, piv in basis:
                np.any(np.bitwise_and(row, piv, out=tmp), axis=1, keepdims=True, out=hit)
                row ^= np.multiply(b, hit, out=tmp)
            nonzero = row.any(axis=1)
        dependent |= np.left_shift(~nonzero, j, dtype=np.uint64)
        basis.append(row if row.ndim == 1 else (row, _lowest_bit(row)))
    return dependent


def _bec_errors(
    code: CosetCodebook,
    class_i: int,
    msgs: np.ndarray,
    sent: np.ndarray,
    erased: np.ndarray,
) -> np.ndarray:
    """Per-trial error mask of class-i trials on the BEC, without decoding.

    sent and erased are packed (t, words). The output agrees with the sent
    word on the known (unerased) positions K, and every word that agrees
    there has density |K|. So the decoder errs exactly when
    (a) some class j < i decodes: |K| > gamma_j and (sent + v_j)|K lies in
        span(G_j|K);
    (b) class i does not: |K| <= gamma_i; or
    (c) class i decodes another message: the decoder outputs the smallest
        solution of uG_i|K = (sent + v_i)|K, and msg & D != 0, where D holds
        the rows of G_i|K that depend on the rows before them. Solutions
        differ by null combinations, one with top bit j for each j in D, so
        exactly one solution has every bit of D clear, and it is the
        smallest: a solution with a bit of D set shrinks by clearing its
        highest one.
    gamma_j = log2(M_j / lambda_j); trials already in error are not tested
    again.
    """
    unerased = code.n - np.bitwise_count(erased).sum(axis=1, dtype=np.int64)
    if erased.shape[1] == 1:
        sent, erased = sent[:, 0], erased[:, 0]
    known = ~erased
    gammas = code.log2_thresholds
    err = unerased <= gammas[class_i]
    live = np.flatnonzero(~err)
    gen, _ = code.packed[class_i]
    err[live] = (msgs[live].astype(np.uint64) & _rank_profile(gen, known[live])) != 0
    for j in range(class_i):
        live = np.flatnonzero(~err & (unerased > gammas[j]))
        gen, shift = code.packed[j]
        target = sent[live] ^ shift
        err[live] = (_rank_profile([*gen, target], known[live]) >> len(gen)) != 0
    return err


def _mc_chunk_errors(
    code: CosetCodebook,
    tables: Sequence[np.ndarray],
    spec: ChannelSpec,
    class_i: int,
    seed: int,
    chunk_index: int,
    trials: int,
) -> int:
    """Errors in one deterministic chunk of Monte Carlo trials for one class."""
    ss = np.random.SeedSequence([seed, class_i, chunk_index])
    rng = np.random.Generator(np.random.PCG64(ss))
    msgs = rng.integers(0, 1 << code.k[class_i], size=trials, dtype=np.int64)
    x = tables[class_i][msgs]
    noise = _pack_rows(rng.random((trials, spec.n)) < spec.p, spec.n)
    if spec.kind is ChannelKind.BEC:
        return int(np.count_nonzero(_bec_errors(code, class_i, msgs, x, noise)))
    cls, dec = _decode_batch_bsc(code, tables, spec, x ^ noise)
    return int(np.count_nonzero((cls != class_i) | (dec != msgs)))


def monte_carlo_error(
    code: CosetCodebook,
    spec: ChannelSpec,
    trials_per_class: int,
    seed: int,
    threads: int = 1,
) -> List[int]:
    """Decoding errors per class, each over trials_per_class trials.

    Trials are partitioned into fixed-size chunks whose substreams derive
    deterministically from (seed, class, chunk index), so results do not
    depend on the thread count. Each class's codeword table is built once,
    before any chunk runs.
    """
    if trials_per_class < 100:
        raise ValueError(f"need at least 100 trials per class, got {trials_per_class}")
    tasks = []
    for class_i in range(code.m):
        done = 0
        chunk_index = 0
        while done < trials_per_class:
            size = min(MC_CHUNK, trials_per_class - done)
            tasks.append((class_i, chunk_index, size))
            done += size
            chunk_index += 1
    errors = [0] * code.m
    tables = [code.codewords_packed(class_i) for class_i in range(code.m)]

    def run(task):
        class_i, chunk_index, size = task
        return class_i, _mc_chunk_errors(code, tables, spec, class_i, seed, chunk_index, size)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(t) for t in tasks]
    for class_i, err in results:
        errors[class_i] += err
    return errors


_KIND_CODE = {ChannelKind.BSC: 0, ChannelKind.BEC: 1}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


def save_codebook(code: CosetCodebook, spec: ChannelSpec, path) -> None:
    """Write the little-endian binary codebook format.

    Classes are written in index order, which is also the decode order.
    Bit vectors are packed bit 0 = symbol 0: the first ceil(n/8) bytes of
    the class's packed shift and generator rows, in that order.
    """
    nbytes = (code.n + 7) // 8
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_FORMAT_VERSION, _KIND_CODE[spec.kind], spec.p, spec.n, code.m))
        for class_i, (gen, shift) in enumerate(code.packed):
            fh.write(_CLASS.pack(code.k[class_i], code.lambdas[class_i]))
            fh.write(np.vstack([shift, gen]).view(np.uint8)[:, :nbytes].tobytes())


def load_codebook(path) -> Tuple[CosetCodebook, ChannelSpec]:
    """Read a file that `save_codebook` wrote; every refusal names the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _parse_codebook(data)
    except (ValueError, ResourceBudgetError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _parse_codebook(data: bytes) -> Tuple[CosetCodebook, ChannelSpec]:
    """The codebook and channel in a codebook file's bytes.

    A file is input from outside the program, so it must hold exactly one
    codebook of a known channel, and its classes must pass `_check_classes`,
    as those of `build_coset_code` do, before any class is unpacked.
    """
    if data[:4] != _MAGIC:
        raise ValueError("not a codebook file")
    pos = 4

    def take(size: int) -> bytes:
        nonlocal pos
        if pos + size > len(data):
            raise ValueError(f"the file ends early, after {len(data)} of {pos + size} bytes")
        pos += size
        return data[pos - size : pos]

    version, kind_code, p, n, m = _HEADER.unpack(take(_HEADER.size))
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported codebook version {version}")
    if kind_code not in _CODE_KIND:
        raise ValueError(f"unknown channel code {kind_code}")
    spec = ChannelSpec(_CODE_KIND[kind_code], p, n)
    nbytes = (n + 7) // 8
    ks, lams, blocks = [], [], []
    for _ in range(m):
        k_i, lam_i = _CLASS.unpack(take(_CLASS.size))
        ks.append(k_i)
        lams.append(lam_i)
        # the shift, then the k_i generator rows
        blocks.append(np.frombuffer(take((k_i + 1) * nbytes), np.uint8).reshape(k_i + 1, nbytes))
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} bytes after the last class")
    _check_classes(tuple(ks), lams)
    bits = [np.unpackbits(b, axis=1, count=n, bitorder="little") for b in blocks]
    code = CosetCodebook(
        n, tuple(ks), SimplexWeights(lams), [b[1:] for b in bits], [b[0] for b in bits]
    )
    return code, spec
