"""Monte Carlo error counting: the BSC and BEC error tests agree exactly with
the exhaustive reference decoders, single-word decoding rules, bounded memory
per chunk, and pinned error counts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from umpbounds import cosets
from umpbounds.achievability import SimplexWeights
from umpbounds.channel import ChannelKind, ChannelSpec, info_density_spectrum
from umpbounds.cosets import (
    MC_CHUNK,
    CosetCodebook,
    _bec_errors,
    _bsc_errors,
    _mc_chunk_errors,
    _pack_rows,
    build_coset_code,
    monte_carlo_error,
)

BSC, BEC = ChannelKind.BSC, ChannelKind.BEC
LENGTHS = (1, 63, 64, 65, 129)
TRIALS = 64


def _rng(*entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def _random_code(rng, n):
    """1-3 classes with k_i in 0..7 and random weights; about a third of the
    classes repeat a generator row or zero one out, and share class 0's
    shift, so codewords collide within and across classes."""
    m = int(rng.integers(1, 4))
    k = tuple(int(v) for v in rng.integers(0, min(7, n) + 1, size=m))
    parts = rng.integers(1, 5, size=m)
    lams = SimplexWeights(parts / parts.sum())
    gens, shifts = [], []
    for k_i in k:
        g = rng.integers(0, 2, size=(k_i, n), dtype=np.uint8)
        if k_i >= 2 and rng.random() < 0.3:
            g[-1] = g[0]
        if k_i >= 1 and rng.random() < 0.3:
            g[rng.integers(k_i)] = 0
        gens.append(g)
        share = shifts and rng.random() < 0.3
        shifts.append(shifts[0] if share else rng.integers(0, 2, size=n, dtype=np.uint8))
    return CosetCodebook(n, k, lams, gens, shifts)


def _tables(code):
    """Every class's codeword table, as `monte_carlo_error` builds them."""
    return [code.codewords_packed(c) for c in range(code.m)]


def _sent_words(rng, code, trials):
    """Packed codewords of random (class, message) pairs; a quarter are
    replaced by uniform words that need not be codewords at all."""
    classes = rng.integers(0, code.m, size=trials)
    tables = _tables(code)
    words = np.stack([tables[c][rng.integers(0, 1 << code.k[c])] for c in classes])
    junk = rng.random(trials) < 0.25
    words[junk] = _pack_rows(rng.integers(0, 2, size=(int(junk.sum()), code.n)), code.n)
    return words


def _oracle_errors(code, spec, class_i, msgs, y, noise):
    """Per-trial errors of class-i trials, by the exhaustive decoder of the
    channel; noise is the erasure pattern on the BEC (unused on the BSC)."""
    if spec.kind is BEC:
        cls, msg = oracles.exhaustive_decode_bec(code, spec, y, noise)
    else:
        cls, msg = oracles.exhaustive_decode_bsc(code, spec, y)
    return (cls != class_i) | (msg != msgs)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", LENGTHS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_bec_decoder_matches_exhaustive_scan(n, p, seed):
    # the error test must flag exactly the trials the decoder gets wrong
    rng = _rng(seed)
    code = _random_code(rng, n)
    spec = ChannelSpec(BEC, p, n)
    for class_i in range(code.m):
        msgs = rng.integers(0, 1 << code.k[class_i], size=TRIALS)
        erased = _pack_rows(rng.random((TRIALS, n)) < p, n)
        # symbols under an erasure carry arbitrary values, which must not matter
        y = code.codewords_packed(class_i)[msgs] ^ (erased & _sent_words(rng, code, TRIALS))
        got = _bec_errors(code, class_i, msgs, y, erased)
        want = _oracle_errors(code, spec, class_i, msgs, y, erased)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("block_bytes", [1 << 24, 2048, 8, cosets.DECODE_BLOCK_BYTES])
@pytest.mark.parametrize("p", [0.0, 0.11, 0.5, 0.89, 1.0])
@pytest.mark.parametrize("n", LENGTHS + (300,))
@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(seed=st.integers(0, 2**32 - 1))
def test_bsc_decoder_matches_exhaustive_scan(monkeypatch, n, p, block_bytes, seed):
    # the error test must flag exactly the trials the decoder gets wrong. 16 MiB
    # holds every distance table here in one block and every trial's
    # candidates in one pair block; 2048 bytes holds 23 pairs at one word, so
    # runs cross pair blocks; 8 bytes makes every XOR block one pair, every
    # group one sent word and every pair block one pair. At n = 300 distances
    # pass 255 and a key (row (n + 1) + d) 2^k_j + u passes 2^16
    monkeypatch.setattr(cosets, "DECODE_BLOCK_BYTES", block_bytes)
    rng = _rng(seed)
    code = _random_code(rng, n)
    spec = ChannelSpec(BSC, p, n)
    tables = _tables(code)
    for class_i in range(code.m):
        msgs = rng.integers(0, 1 << code.k[class_i], size=TRIALS)
        noise = _pack_rows(rng.random((TRIALS, n)) < p, n)
        got = _bsc_errors(code, tables, spec, class_i, msgs, noise)
        want = _oracle_errors(code, spec, class_i, msgs, tables[class_i][msgs] ^ noise, None)
        np.testing.assert_array_equal(got, want)


# p = 1/2 +- k 2^-54: the expanded density len + t log2 p + (len - t) log2(1-p)
# rose inside its falling run (or fell inside its rising one) at 13 of these
NEAR_HALF = sorted({0.5 + sign * k * 2.0**-54 for k in range(2, 20) for sign in (1, -1)})


@pytest.mark.parametrize(
    "n,p",
    [(n, p) for n in [1, 63, 64, 65, 129, 1000]
     for p in [0.0, 1e-300, 0.11, 0.5, 0.89, 1 - 1e-16, 1.0]]
    + [(n, p) for n in [63, 100, 129] for p in NEAR_HALF],
)
def test_qualifying_distances_are_a_prefix_or_suffix(n, p):
    # the decoder tests one comparison per codeword, which is right only if
    # {t : density[t] > gamma} is empty or runs from t = 0 or up to t = n
    density = info_density_spectrum(BSC, n, p).density
    gammas = np.concatenate(
        [density, np.nextafter(density, -np.inf), np.nextafter(density, np.inf)]
    )
    for gamma in gammas:
        t = np.flatnonzero(density > gamma)
        got = cosets._qualifying_distances(density, gamma)
        if not t.size:
            assert got is None
            continue
        assert got == (t[0], t[-1])
        assert len(t) == t[-1] - t[0] + 1 and (t[0] == 0 or t[-1] == n)


def _errs_one(code, class_i, msg, noise, spec=None):
    """Whether sending message msg of class class_i errs when the positions
    set in `noise` are erased (the BEC, when spec is None) or flipped (a BSC
    spec)."""
    msgs, noise = np.array([msg]), _pack_rows(noise, code.n)
    if spec is None:
        errs = _bec_errors(code, class_i, msgs, code.codewords_packed(class_i)[msgs], noise)
    else:
        errs = _bsc_errors(code, _tables(code), spec, class_i, msgs, noise)
    return bool(errs[0])


def _singletons(n, shifts, lambdas):
    """One codeword per class (k_i = 0): the given shifts."""
    empty = np.zeros((0, n), dtype=np.uint8)
    return CosetCodebook(
        n, (0,) * len(shifts), SimplexWeights(lambdas), [empty] * len(shifts),
        [np.asarray(v, dtype=np.uint8) for v in shifts],
    )


def test_noiseless_singleton():
    spec = ChannelSpec(BSC, 0.0, 16)
    code = build_coset_code(spec, [0], SimplexWeights([1.0]), _rng(12))
    assert not _errs_one(code, 0, 0, np.zeros(16), spec)
    # one flip at p = 0 leaves no qualifying distance
    assert _errs_one(code, 0, 0, np.eye(16)[3], spec)


def test_all_erased_never_qualifies():
    # no class decodes an all-erased output, so every message of every class errs
    spec = ChannelSpec(BEC, 1.0, 16)
    code = build_coset_code(spec, [2, 2], SimplexWeights([0.5, 0.5]), _rng(14))
    for class_i in range(2):
        assert all(_errs_one(code, class_i, msg, np.ones(16)) for msg in range(4))


def test_cross_class_confusion_is_reachable():
    # a clean class-0 codeword wins even when class 1 transmitted it
    spec = ChannelSpec(BEC, 0.1, 16)
    code = build_coset_code(spec, [2, 2], SimplexWeights([0.5, 0.5]), _rng(15))
    clean = np.zeros(16)
    assert not _errs_one(code, 1, 0, clean)
    # share class 0's shift: class-1 message 0 is class-0 message 0
    shared = CosetCodebook(16, code.k, code.lambdas, code.generators, [code.shifts[0]] * 2)
    assert _errs_one(shared, 1, 0, clean)
    assert not _errs_one(shared, 0, 0, clean)


def test_ties_go_to_the_lower_class_index():
    # both classes hold the same word, at the same threshold: the lower index
    # wins, so the word sent as class 0 decodes and sent as class 1 errs
    n = 16
    code = _singletons(n, [np.zeros(n), np.zeros(n)], [0.5, 0.5])
    spec = ChannelSpec(BSC, 0.11, n)
    assert not _errs_one(code, 0, 0, np.zeros(n), spec)
    assert _errs_one(code, 1, 0, np.zeros(n), spec)


def test_qualifying_suffix_above_one_half():
    # BSC(0.89), n = 16, gamma = 1: a word qualifies at distance 12..16 from
    # the output. Class 1 sends all ones; class 0 holds ones but for bits 0, 1
    n = 16
    ones = np.ones(n)
    near_ones = ones.copy()
    near_ones[:2] = 0
    code = _singletons(n, [near_ones, ones], [0.5, 0.5])
    spec = ChannelSpec(BSC, 0.89, n)
    flips = np.zeros(n)
    flips[2:14] = 1  # output bits 0, 1, 14, 15: 12 from ones, 14 from class 0
    assert _errs_one(code, 1, 0, flips, spec)
    flips = np.zeros(n)
    flips[:12] = 1  # output bits 12..15: 12 from ones, 10 from class 0
    assert not _errs_one(code, 1, 0, flips, spec)
    # an unflipped word is at distance 0, outside the suffix; flipping every
    # bit of ones gives the zero word, 16 from ones but also 14 from class 0,
    # while class 0's word with every bit flipped decodes
    assert _errs_one(code, 1, 0, np.zeros(n), spec)
    assert _errs_one(code, 1, 0, ones, spec)
    assert not _errs_one(code, 0, 0, ones, spec)


def test_deterministic():
    spec = ChannelSpec(BEC, 0.5, 64)
    code = build_coset_code(spec, [8, 4], SimplexWeights([0.5, 0.5]), _rng(16))
    erased = _rng(17).random(64) < 0.5
    assert _errs_one(code, 1, 5, erased) == _errs_one(code, 1, 5, erased)


def test_strict_threshold_inequality():
    # info density equal to the threshold must NOT decode
    n = 8
    code = _singletons(n, [np.zeros(n)], [1.0])
    # threshold is 0 bits; erase everything -> density 0, not > 0
    erased = np.ones(n, dtype=np.uint8)
    assert _errs_one(code, 0, 0, erased)
    # one unerased, agreeing symbol -> density 1 > 0 decodes
    erased[0] = 0
    assert not _errs_one(code, 0, 0, erased)


def _duplicated_row_code(n, width):
    """One class, k = 3, zero shift: row 0 sets bits 0..width-1, row 1 the next
    width bits, and row 2 repeats row 0, so messages w and w ^ 0b101 share a
    codeword and distinct codewords lie at least width apart."""
    gen = np.zeros((3, n), dtype=np.uint8)
    gen[0, :width] = gen[1, width : 2 * width] = gen[2, :width] = 1
    code = CosetCodebook(n, (3,), SimplexWeights([1.0]), [gen], [np.zeros(n, np.uint8)])
    assert code.log2_thresholds[0] < n
    return code


def test_duplicated_generator_row():
    # the decoder returns the smaller of two messages that share a codeword:
    # a message errs exactly when bit 2 is set
    code = _duplicated_row_code(8, 1)
    for msg in range(8):
        assert _errs_one(code, 0, msg, np.zeros(8)) == bool(msg & 0b100)


def test_duplicated_generator_row_bsc():
    # the same on BSC(0.11), n = 16, where distances 0..3 qualify: noiseless or
    # with one flip off the rows, distinct codewords stay more than 3 away.
    # Four flips leave every message outside that range
    code = _duplicated_row_code(16, 6)
    spec = ChannelSpec(BSC, 0.11, 16)
    off_rows = np.arange(16) >= 12
    for msg in range(8):
        for flips in (np.zeros(16), np.eye(16)[13]):
            assert _errs_one(code, 0, msg, flips, spec) == bool(msg & 0b100)
        assert _errs_one(code, 0, msg, off_rows, spec)


@pytest.mark.parametrize(
    "kind,n,p",
    [(BEC, 64, 0.75), (BEC, 65, 0.85), (BSC, 64, 0.25), (BSC, 130, 0.7)],
    ids=["64-0.75", "65-0.85", "bsc-64-0.25", "bsc-130-0.7"],
)
def test_chunk_recount_with_the_exhaustive_decoder(monkeypatch, kind, n, p):
    # redraw a chunk from its SeedSequence([seed, class, chunk]) substream in
    # one (trials, n) draw and decode every trial exhaustively; the chunk draws
    # its noise in blocks of rows (3 to 8 rows at 4096 bytes), which must not
    # change a bit. Both classes err in 15-518 of the trials on the BEC and in
    # 129-355 on the BSC
    spec = ChannelSpec(kind, p, n)
    code = build_coset_code(spec, (6, 3), SimplexWeights([0.5, 0.5]), _rng(2024, 1))
    seed, chunk, trials = 777, 3, 2000
    budgets = (cosets.DECODE_BLOCK_BYTES, 4096)
    for class_i in range(code.m):
        rng = _rng(seed, class_i, chunk)
        msgs = rng.integers(0, 1 << code.k[class_i], size=trials, dtype=np.int64)
        noise = _pack_rows(rng.random((trials, n)) < p, n)
        x = code.codewords_packed(class_i)[msgs]
        y = x if kind is BEC else x ^ noise
        want = np.count_nonzero(_oracle_errors(code, spec, class_i, msgs, y, noise))
        for block_bytes in budgets:
            monkeypatch.setattr(cosets, "DECODE_BLOCK_BYTES", block_bytes)
            got = _mc_chunk_errors(code, _tables(code), spec, class_i, seed, chunk, trials)
            assert got == want


@pytest.mark.parametrize(
    "kind,p,n,k,bound",
    [
        (BEC, 0.5, 64, (20,), 64 << 20),
        (BSC, 0.11, 64, (12, 6), 8 << 20),
        (BSC, 0.3, 64, (12, 12), 8 << 20),
        (BSC, 0.3, 130, (8, 5), 8 << 20),
    ],
    ids=["bec-k20", "bsc-k12-6", "bsc-k12-12-dense", "bsc-n130-k8-5-dense"],
)
def test_chunk_memory_is_bounded(kind, p, n, k, bound):
    # the exhaustive scans needed MC_CHUNK * 2^k * 8 bytes: 64 GiB at k = 20.
    # At BSC(0.3) a candidate can lie 14 + w from the sent word, past n/2, so
    # about half of each class's codewords are candidates of every trial; at
    # n = 130 every candidate is three word columns
    spec = ChannelSpec(kind, p, n)
    code = build_coset_code(spec, k, SimplexWeights([1 / len(k)] * len(k)), _rng(40))
    tracemalloc.start()
    try:
        tables = _tables(code)
        for class_i in range(code.m):
            _mc_chunk_errors(code, tables, spec, class_i, 7, 0, MC_CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_chunks_and_their_budget(monkeypatch):
    # chunk c of a class holds trials c MC_CHUNK on, up to the class's last
    # trial; the budget counts the chunks of every class and refuses before
    # any chunk runs
    calls = []

    def count(code, tables, spec, class_i, seed, chunk, trials):
        calls.append((class_i, chunk, trials))
        return 1

    monkeypatch.setattr(cosets, "_mc_chunk_errors", count)
    monkeypatch.setattr(cosets, "MAX_MC_CHUNKS", 6)
    spec = ChannelSpec(BSC, 0.11, 8)
    code = build_coset_code(spec, (1, 1), SimplexWeights([0.5, 0.5]), _rng(0))
    assert monte_carlo_error(code, spec, 2 * MC_CHUNK + 5, seed=1) == [3, 3]
    sizes = [(0, MC_CHUNK), (1, MC_CHUNK), (2, 5)]
    assert calls == [(class_i, *size) for class_i in range(2) for size in sizes]
    with pytest.raises(cosets.ResourceBudgetError, match="take 8 chunks of 8192, above budget 6"):
        monte_carlo_error(code, spec, 3 * MC_CHUNK + 1, seed=1)
    assert len(calls) == 6


def test_serial_run_keeps_nothing_per_chunk(monkeypatch):
    # 2^17 chunks counted by a stub: a list of the chunks to run took 22 MB
    # at this size; summing each count as it arrives keeps the peak under 1 MiB
    monkeypatch.setattr(cosets, "_mc_chunk_errors", lambda *args: 0)
    spec = ChannelSpec(BSC, 0.11, 8)
    code = build_coset_code(spec, (1,), SimplexWeights([1.0]), _rng(0))
    tracemalloc.start()
    try:
        errors = monte_carlo_error(code, spec, MC_CHUNK << 17, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert errors == [0]
    assert peak <= 1 << 20


# the first two counts were computed with the exhaustive decoders that the
# error tests replaced, the last two with the error test whose pair test
# gathered each pair's candidate row; n = 130 takes three words, and at
# BSC(0.3) about half of each class is a candidate of every trial
@pytest.mark.parametrize(
    "kind,p,n,k,trials,errors",
    [
        (BEC, 0.85, 65, (6, 3), 10_000, [2592, 955]),
        (BSC, 0.25, 64, (6, 3), 10_000, [1664, 1161]),
        (BSC, 0.11, 64, (12, 6), 16_384, [158, 103]),
        (BSC, 0.3, 130, (8, 5), 10_000, [1625, 1150]),
    ],
    ids=["bec-n65", "bsc-n64", "bsc-n64-k12-6", "bsc-n130-dense"],
)
def test_pinned_error_counts(kind, p, n, k, trials, errors):
    spec = ChannelSpec(kind, p, n)
    code = build_coset_code(spec, k, SimplexWeights([0.5, 0.5]), _rng(2024, 0))
    assert monte_carlo_error(code, spec, trials, seed=777) == errors
