"""Union-of-coset UMP codes over GF(2) and their Monte Carlo validation.

Each class is a coset {uG_i + v_i} of a random linear code; the decoder scans
classes in index order and outputs the first codeword whose information
density strictly exceeds the class threshold log2(M_i / lambda_i).
`monte_carlo_error` counts how often that rule errs, without decoding. Words
are stored packed 64 bits per word. On the BSC the density is affine in the
Hamming distance, so a class's qualifying distances are a prefix or a suffix
of 0..n; a trial errs when the sent word does not qualify, or an earlier
class or a smaller message of its own class has a qualifying codeword
(`_bsc_errors`). By the triangle inequality such a codeword lies within a
reach of the sent word that depends only on the noise weight, so each trial
tests a short run of candidates, sorted by their distance to the sent word,
instead of every codeword; candidates are gathered once per group of runs as
flat word columns, and each block of runs is tested with whole-array
operations per column. The BEC needs no scan at all: every word that
agrees with the unerased symbols has the same density, so whether a trial
errs follows from the rank profile of the generator rows masked to the
unerased positions (`_bec_errors`).

Single codebook draws may exceed the analytic class bound; the random-coding
guarantee is in expectation over codebooks, so validation averages over
(seeded) codebook draws.
"""

from __future__ import annotations

import functools
import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import ResourceBudgetError  # defined in the package: cli raises it too
from .achievability import SimplexWeights
from .channel import ChannelKind, ChannelSpec, info_density_spectrum

MAX_CLASS_K = 20
MAX_TOTAL_CODEWORDS = 1 << 22

MC_CHUNK = 8192
# chunks in one monte_carlo_error call, over all classes: about 8.6e9 trials
MAX_MC_CHUNKS = 1 << 20
# byte budget of a chunk's temporaries: each block of its noise draw, and in
# the BSC error test each XOR block of a distance table, each group of keys
# with its candidates' word columns, and each block of (trial, candidate)
# pairs, about 35 bytes a pair at one word
DECODE_BLOCK_BYTES = 1 << 21
# bytes of the packed codeword tables plus one chunk of packed words: 2^22
# codewords at n = 512
MAX_TABLE_BYTES = (MAX_TOTAL_CODEWORDS + MC_CHUNK) * 64


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


class _CodebookFields(NamedTuple):
    n: int
    k: Tuple[int, ...]
    lambdas: SimplexWeights
    generators: Tuple[np.ndarray, ...]  # class i: (k_i, n) uint8
    shifts: Tuple[np.ndarray, ...]  # class i: (n,) uint8


class CosetCodebook(_CodebookFields):
    """Per-class generator matrices, coset shifts and decoding thresholds.

    Message index w maps to coefficient bits little-endian: bit j of w selects
    generator row j. Coset codewords are not necessarily distinct for random
    generators; collisions are not an error, and only make the empirical
    error conservative. The codebook is immutable: `generators` and `shifts`
    are stored as tuples of read-only copies of the caller's rows, and
    `packed` is derived from them once, so a write to any of them raises.
    The class has no __slots__: the instance dict holds the cached `packed`,
    which cached_property writes directly, past the refusing __setattr__.
    """

    def __new__(cls, n, k, lambdas, generators, shifts):
        return super().__new__(cls, n, k, lambdas, _frozen(generators), _frozen(shifts))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"CosetCodebook is immutable: cannot set {name}")

    @functools.cached_property
    def packed(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """Class i's packed generator rows (k_i, words) and shift (words,)."""
        packed = tuple(
            (_pack_rows(g, self.n), _pack_rows(v, self.n)[0])
            for g, v in zip(self.generators, self.shifts)
        )
        for gen, shift in packed:
            gen.flags.writeable = shift.flags.writeable = False
        return packed

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


def build_coset_code(
    spec: ChannelSpec, k: Sequence[int], lambdas: SimplexWeights, rng: np.random.Generator
) -> CosetCodebook:
    """Draw all generator and shift entries as i.i.d. fair bits.

    Deterministic given the rng state. The class rules are checked before
    any bit is drawn: one weight per class, every k_i in 0..MAX_CLASS_K, at
    most MAX_TOTAL_CODEWORDS codewords in all, and every lambda_i > 0 (the
    decoding threshold divides by it). The packed codeword tables that
    Monte Carlo encoding and the BSC error test read, with one chunk of
    packed words, must fit in MAX_TABLE_BYTES.
    """
    k = tuple(int(v) for v in k)
    if len(k) != len(lambdas.weights):
        raise ValueError(f"{len(k)} classes but {len(lambdas.weights)} simplex weights")
    if any(v < 0 for v in k):
        raise ValueError(f"class exponents must be >= 0: {k}")
    if any(v > MAX_CLASS_K for v in k):
        raise ResourceBudgetError(
            f"class exponent above decoding budget k <= {MAX_CLASS_K}: {k}"
        )
    codewords = sum(1 << v for v in k)
    if codewords > MAX_TOTAL_CODEWORDS:
        raise ResourceBudgetError(
            f"total codewords {codewords} exceed budget {MAX_TOTAL_CODEWORDS}"
        )
    table_bytes = (codewords + MC_CHUNK) * _words(spec.n) * 8
    if table_bytes > MAX_TABLE_BYTES:
        raise ResourceBudgetError(
            f"{codewords} codewords of n = {spec.n} need {table_bytes} table bytes, "
            f"above budget {MAX_TABLE_BYTES}"
        )
    if any(lam <= 0.0 for lam in lambdas.weights):
        raise ValueError("every class in a coset code needs lambda_i > 0")
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


def _weights(words: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Hamming weight of each packed word (the last axis), as int64 or into out."""
    dtype = np.int64 if out is None else out.dtype
    return np.add.reduce(np.bitwise_count(words), axis=-1, dtype=dtype, out=out)


def _distance_rows(table: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(len(words), len(table)) distances d(table[u], words[r]), in the
    smallest unsigned type that holds 64 bits per packed word; each XOR
    block holds at most DECODE_BLOCK_BYTES (at least one pair)."""
    out = np.empty((len(words), len(table)), dtype=np.min_scalar_type(64 * table.shape[1]))
    per = max(1, DECODE_BLOCK_BYTES // table[:1].nbytes)
    cols = min(len(table), per)
    step = max(1, per // cols)
    for a in range(0, len(words), step):
        for b in range(0, len(table), cols):
            diff = table[None, b : b + cols] ^ words[a : a + step, None]
            _weights(diff, out[a : a + step, b : b + cols])
    return out


def _reach(lo: int, hi: int, n: int, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distances d(c, x) that a codeword c can have when d(c, y) lies in
    [lo, hi] and d(x, y) = w, by the triangle inequality through y and
    through its complement: from max(lo - w, w - hi, 0) to
    min(hi + w, 2n - lo - w)."""
    near = np.maximum(np.maximum(lo - w, w - hi), 0)
    far = np.minimum(hi + w, 2 * n - lo - w)
    return near, far


def _runs(starts: np.ndarray, counts: np.ndarray, size: int):
    """Blocks of at most `size` of the items starts[t] + r, 0 <= r < counts[t],
    listed in order of t then r. Each block yields (rows, run, item): the
    owners t in slice `rows`, run[t - rows.start] of each owner's items, and
    the items, so an owner's value reaches its items by np.repeat(v[rows], run).
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    shift = starts - (ends - counts)  # item = pair position + shift[owner]
    for a in range(0, total, size):
        b = min(a + size, total)
        t0, t1 = np.searchsorted(ends, [a, b - 1], side="right")
        t1 += 1
        run = np.minimum(ends[t0:t1], b) - np.maximum(ends[t0:t1] - counts[t0:t1], a)
        item = np.repeat(shift[t0:t1], run)
        item += np.arange(a, b)
        yield slice(t0, t1), run, item


def _bsc_errors(
    code: CosetCodebook,
    tables: Sequence[np.ndarray],
    spec: ChannelSpec,
    class_i: int,
    msgs: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Per-trial error mask of class-i trials on the BSC, without decoding.

    Trial t sends x = tables[class_i][msgs[t]] and receives y = x + noise[t],
    at distance w = wt(noise[t]); a class-j codeword c qualifies when d(c, y)
    lies in [lo_j, hi_j] (`_qualifying_distances`). The decoder errs exactly
    when
    (B) x does not qualify: w is outside [lo_i, hi_i];
    (A) a codeword of a class j < i qualifies; or
    (C) a class-i codeword of a smaller message u < msgs[t] qualifies
        (codewords that repeat x fall here too).
    A codeword that qualifies lies within `_reach` of x, so each trial tests
    only those candidates, found by one search for every class j <= i: the
    distances from each class-j codeword to a set of anchor words, kept up
    to the largest reach and sorted by the key (row (n + 1) + distance)
    2^k_j + index, give each trial one run. For j < i the anchors are the
    distinct sent words and the index is the message. For j = i the one
    anchor is codeword 0, since d(c_u, x) = d(table[u ^ msgs[t]], table[0]),
    so the index is s = u ^ msgs[t]; s = 0, the sent word itself, is left
    out. The keys are built a group of anchors at a time, and each group's
    candidate words are gathered once, in key order, as one flat array per
    packed-word column. A class j < i candidate is tested against y; an own
    candidate is c_s ^ c_0, tested against the noise, since c_u ^ y =
    (c_s ^ c_0) ^ noise[t]. `_runs` cuts the runs into blocks of pairs: a
    trial's probe word reaches its pairs by np.repeat, the distance is the
    sum of the columns' popcounts (uint16 past one word), and only the pairs
    at a qualifying distance are mapped back to their trials. In the own
    class such a pair counts only when u < msgs[t]. Every temporary stays
    within about DECODE_BLOCK_BYTES. Trials already in error are not tested
    again.
    """
    n, words = spec.n, noise.shape[1]
    density = info_density_spectrum(ChannelKind.BSC, n, spec.p).density
    bounds = [_qualifying_distances(density, g) for g in code.log2_thresholds[: class_i + 1]]
    if bounds[class_i] is None:
        return np.ones(len(msgs), dtype=bool)
    w = _weights(noise)
    lo, hi = bounds[class_i]
    err = (w < lo) | (w > hi)
    own = tables[class_i]
    y = own[msgs] ^ noise
    size = max(1, DECODE_BLOCK_BYTES // (8 * (3 * words + 8)))
    # distances: a uint8 sum would wrap past 255
    dtype = np.uint8 if words == 1 else np.uint16
    for j in range(class_i + 1):
        live = np.flatnonzero(~err)
        if bounds[j] is None or not live.size:
            continue
        table, k_j, (lo_j, hi_j) = tables[j], code.k[j], bounds[j]
        if j < class_i:
            live = live[np.argsort(msgs[live], kind="stable")]
            anchors, row = np.unique(msgs[live], return_inverse=True)
        else:
            anchors, row = np.zeros(1, dtype=np.int64), np.zeros(len(live), dtype=np.int64)
        near, far = _reach(lo_j, hi_j, n, w[live])
        group = max(1, DECODE_BLOCK_BYTES // (32 * len(table)))
        for a in range(0, len(anchors), group):
            t0, t1 = np.searchsorted(row, [a, a + group])
            dist = _distance_rows(table, own[anchors[a : a + group]])
            flat = np.flatnonzero(dist <= far[t0:t1].max())
            if j == class_i:
                flat = flat[1:]  # s = 0: the sent word itself
            key = (flat >> k_j) * n
            key += dist.ravel()[flat]
            key <<= k_j
            key += flat
            key.sort()
            base = (row[t0:t1] - a) * (n + 1)
            starts = np.searchsorted(key, (base + near[t0:t1]) << k_j)
            counts = np.searchsorted(key, (base + far[t0:t1] + 1) << k_j) - starts
            cands = key & ((1 << k_j) - 1)
            trials = live[t0:t1]
            # the candidates' words and the words they are tested against, as
            # flat columns; in the own class c_u ^ y = (c_s ^ c_0) ^ noise
            cols = np.ascontiguousarray(table[cands].T)
            if j == class_i:
                cols ^= table[0][:, None]
            probes = np.ascontiguousarray((y if j < class_i else noise)[trials].T)
            for rows, run, item in _runs(starts, counts, size):
                d = np.zeros(len(item), dtype)
                for col, probe in zip(cols, probes):
                    diff = col[item]
                    diff ^= np.repeat(probe[rows], run)
                    d += np.bitwise_count(diff)
                d -= lo_j  # unsigned: a distance below lo_j wraps past hi_j - lo_j
                hit = np.flatnonzero(d <= hi_j - lo_j)
                if not hit.size:
                    continue
                t = trials[rows][np.searchsorted(np.cumsum(run), hit, side="right")]
                if j == class_i:  # u = s ^ msg; only smaller messages count
                    t = t[(cands[item[hit]] ^ msgs[t]) < msgs[t]]
                err[t] = True
    return err


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
    # drawn in blocks of rows, each at most DECODE_BLOCK_BYTES of float64; the
    # stream, and so every noise bit, is that of one (trials, n) draw
    noise = np.empty((trials, _words(spec.n)), dtype=np.uint64)
    rows = max(1, DECODE_BLOCK_BYTES // (8 * spec.n))
    for a in range(0, trials, rows):
        draw = rng.random((min(rows, trials - a), spec.n)) < spec.p
        noise[a : a + rows] = _pack_rows(draw, spec.n)
    if spec.kind is ChannelKind.BEC:
        err = _bec_errors(code, class_i, msgs, tables[class_i][msgs], noise)
    else:
        err = _bsc_errors(code, tables, spec, class_i, msgs, noise)
    return int(np.count_nonzero(err))


def monte_carlo_error(
    code: CosetCodebook,
    spec: ChannelSpec,
    trials_per_class: int,
    seed: int,
    threads: int = 1,
) -> List[int]:
    """Decoding errors per class, each over trials_per_class trials.

    Chunk c of a class holds its trials c MC_CHUNK up to min((c + 1) MC_CHUNK,
    trials_per_class) - 1, drawn from the substream of (seed, class, c), so
    results do not depend on the thread count. More than MAX_MC_CHUNKS chunks
    in all are refused before anything is built. Each class's codeword table
    is built once, before any chunk runs, and each chunk's count is added to
    its class as it arrives: a serial run keeps nothing per chunk.
    """
    if trials_per_class < 100:
        raise ValueError(f"need at least 100 trials per class, got {trials_per_class}")
    chunks = -(-trials_per_class // MC_CHUNK)
    if code.m * chunks > MAX_MC_CHUNKS:
        raise ResourceBudgetError(
            f"{code.m} classes of {trials_per_class} trials take {code.m * chunks} "
            f"chunks of {MC_CHUNK}, above budget {MAX_MC_CHUNKS}"
        )
    tables = [code.codewords_packed(class_i) for class_i in range(code.m)]

    def run(pair):
        class_i, c = pair
        size = min(MC_CHUNK, trials_per_class - c * MC_CHUNK)
        return class_i, _mc_chunk_errors(code, tables, spec, class_i, seed, c, size)

    pairs = ((class_i, c) for class_i in range(code.m) for c in range(chunks))
    errors = [0] * code.m
    if threads > 1:
        # imported here: single-thread runs never load concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for class_i, count in pool.map(run, pairs):
                errors[class_i] += count
    else:
        for class_i, count in map(run, pairs):
            errors[class_i] += count
    return errors
