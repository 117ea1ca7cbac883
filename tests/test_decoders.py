"""Monte Carlo error counting: the BSC decoder and the BEC error test agree
exactly with the exhaustive reference decoders, single-word decoding rules,
bounded memory per chunk, and pinned error counts."""

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
    _decode_batch_bsc,
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


def _oracle_errors(code, spec, class_i, msgs, y, erased):
    """Per-trial errors of class-i trials, by the exhaustive BEC decoder."""
    cls, msg = oracles.exhaustive_decode_bec(code, spec, y, erased)
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
@pytest.mark.parametrize("n", LENGTHS)
@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(seed=st.integers(0, 2**32 - 1))
def test_bsc_decoder_matches_exhaustive_scan(monkeypatch, n, p, block_bytes, seed):
    # 16 MiB holds every table here in one block; 2048 bytes holds 4 codewords
    # of 64 trials at one word, so scans cross blocks; 8 bytes holds less than
    # one, so every block is a single codeword that overruns the budget
    monkeypatch.setattr(cosets, "DECODE_BLOCK_BYTES", block_bytes)
    rng = _rng(seed)
    code = _random_code(rng, n)
    spec = ChannelSpec(BSC, p, n)
    y = _sent_words(rng, code, TRIALS) ^ _pack_rows(rng.random((TRIALS, n)) < p, n)
    got = _decode_batch_bsc(code, _tables(code), spec, y)
    want = oracles.exhaustive_decode_bsc(code, spec, y)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


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


def _decode_one(code, spec, y):
    """(class, message) the BSC decoder gives one output word, (-1, -1) for none."""
    cls, msg = _decode_batch_bsc(code, _tables(code), spec, _pack_rows(y, spec.n))
    return int(cls[0]), int(msg[0])


def _errs_one(code, class_i, msg, erased):
    """Whether sending message msg of class class_i over the BEC errs when the
    positions in `erased` are erased."""
    sent = code.codewords_packed(class_i)[[msg]]
    errs = _bec_errors(code, class_i, np.array([msg]), sent, _pack_rows(erased, code.n))
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
    assert _decode_one(code, spec, code.shifts[0]) == (0, 0)


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
    # both classes hold the same word, at the same threshold: the lower index wins
    n = 16
    code = _singletons(n, [np.zeros(n), np.zeros(n)], [0.5, 0.5])
    assert _decode_one(code, ChannelSpec(BSC, 0.11, n), np.zeros(n)) == (0, 0)


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


def test_duplicated_generator_row():
    # row 2 repeats row 0, so messages w and w ^ 0b101 share a codeword and the
    # decoder returns the smaller: a message errs exactly when bit 2 is set
    n = 8
    gen = np.zeros((3, n), dtype=np.uint8)
    gen[0, 0] = gen[1, 1] = gen[2, 0] = 1
    code = CosetCodebook(n, (3,), SimplexWeights([1.0]), [gen], [np.zeros(n, np.uint8)])
    assert code.log2_thresholds[0] < n
    for msg in range(8):
        assert _errs_one(code, 0, msg, np.zeros(n)) == bool(msg & 0b100)


@pytest.mark.parametrize("n,p", [(64, 0.75), (65, 0.85)])
def test_chunk_recount_with_the_exhaustive_decoder(n, p):
    # redraw a chunk from its SeedSequence([seed, class, chunk]) substream and
    # decode every trial exhaustively; both classes err in 15-518 of the trials
    spec = ChannelSpec(BEC, p, n)
    code = build_coset_code(spec, (6, 3), SimplexWeights([0.5, 0.5]), _rng(2024, 1))
    seed, chunk, trials = 777, 3, 2000
    for class_i in range(code.m):
        rng = _rng(seed, class_i, chunk)
        msgs = rng.integers(0, 1 << code.k[class_i], size=trials, dtype=np.int64)
        erased = _pack_rows(rng.random((trials, n)) < p, n)
        y = code.codewords_packed(class_i)[msgs]
        want = np.count_nonzero(_oracle_errors(code, spec, class_i, msgs, y, erased))
        assert _mc_chunk_errors(code, _tables(code), spec, class_i, seed, chunk, trials) == want


CHUNK_PEAK_BOUND = 64 << 20


@pytest.mark.parametrize(
    "kind,p,k",
    [(BEC, 0.5, (20,)), (BSC, 0.11, (12, 6))],
    ids=["bec-k20", "bsc-k12-6"],
)
def test_chunk_memory_is_bounded(kind, p, k):
    # the exhaustive scans needed MC_CHUNK * 2^k * 8 bytes: 64 GiB at k = 20
    spec = ChannelSpec(kind, p, 64)
    code = build_coset_code(spec, k, SimplexWeights([1 / len(k)] * len(k)), _rng(40))
    tracemalloc.start()
    try:
        tables = _tables(code)
        for class_i in range(code.m):
            _mc_chunk_errors(code, tables, spec, class_i, 7, 0, MC_CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CHUNK_PEAK_BOUND


# counts computed with the exhaustive decoders these replaced
@pytest.mark.parametrize(
    "kind,p,n,errors",
    [(BEC, 0.85, 65, [2592, 955]), (BSC, 0.25, 64, [1664, 1161])],
    ids=["bec-n65", "bsc-n64"],
)
def test_pinned_error_counts(kind, p, n, errors):
    spec = ChannelSpec(kind, p, n)
    code = build_coset_code(spec, (6, 3), SimplexWeights([0.5, 0.5]), _rng(2024, 0))
    assert monte_carlo_error(code, spec, 10_000, seed=777) == errors
