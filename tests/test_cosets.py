import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Symbol, info_density_bits
from umpbounds.achievability import SimplexWeights, dt_class_bound
from umpbounds.channel import ChannelKind, ChannelSpec, info_density_spectrum
from umpbounds.cosets import (
    CosetCodebook,
    ResourceBudgetError,
    _pack_rows,
    build_coset_code,
    load_codebook,
    monte_carlo_error,
    save_codebook,
)

BSC, BEC = ChannelKind.BSC, ChannelKind.BEC


def _rng(*entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def _codeword(code, class_i, w):
    """uG_i + v_i for message index w, XORed here bit by bit, packed like the table."""
    x = code.shifts[class_i].copy()
    for j, row in enumerate(code.generators[class_i]):
        if (w >> j) & 1:
            x ^= row
    return _pack_rows(x, code.n)[0]


class TestBuild:
    def test_singleton_class(self):
        spec = ChannelSpec(BSC, 0.11, 16)
        code = build_coset_code(spec, [0], SimplexWeights([1.0]), _rng(5))
        assert code.log2_thresholds == (0.0,)
        assert code.generators[0].shape == (0, 16)
        assert code.codewords_packed(0).shape[0] == 1

    def test_deterministic_given_seed(self):
        spec = ChannelSpec(BEC, 0.5, 64)
        a = build_coset_code(spec, [8, 4], SimplexWeights([0.5, 0.5]), _rng(9))
        b = build_coset_code(spec, [8, 4], SimplexWeights([0.5, 0.5]), _rng(9))
        for i in range(2):
            assert np.array_equal(a.generators[i], b.generators[i])
            assert np.array_equal(a.shifts[i], b.shifts[i])

    def test_budget_errors(self):
        spec = ChannelSpec(BSC, 0.11, 8)
        with pytest.raises(ResourceBudgetError):
            build_coset_code(spec, [21], SimplexWeights([1.0]), _rng(0))
        with pytest.raises(ResourceBudgetError):
            build_coset_code(
                spec, [20, 20, 20, 20, 20],
                SimplexWeights([0.2] * 5), _rng(0)
            )

    def test_codebook_is_immutable(self):
        # packed rows are derived once and tables from them, so every write must raise
        spec = ChannelSpec(BSC, 0.11, 16)
        gens = [np.ones((2, 16), dtype=np.uint8), np.zeros((1, 16), dtype=np.uint8)]
        shifts = [np.zeros(16, dtype=np.uint8), np.ones(16, dtype=np.uint8)]
        code = CosetCodebook(16, (2, 1), SimplexWeights([0.5, 0.5]), gens, shifts)
        table = code.codewords_packed(1).copy()
        with pytest.raises(TypeError):
            code.shifts[1] = shifts[0]
        with pytest.raises(TypeError):
            code.generators[0] = gens[1]
        with pytest.raises(ValueError):
            code.shifts[1][0] = 0
        with pytest.raises(ValueError):
            code.generators[0][1] ^= 1
        with pytest.raises(ValueError):
            code.packed[0][0][1] ^= 1
        with pytest.raises(ValueError):
            code.codewords_packed(1)[0] = 0
        with pytest.raises(AttributeError):
            code.shifts = (shifts[0], shifts[0])
        # the caller's arrays stay writable and no longer reach the codebook
        shifts[1][:] = 0
        gens[1][:] = 1
        assert code.shifts[1].all() and not code.generators[1].any()
        assert np.array_equal(code.codewords_packed(1), table)
        assert np.array_equal(code.packed[1][1], _pack_rows(np.ones(16), 16)[0])

    def test_entries_are_fair_bits(self):
        # chi-square over rebuilds, gated at five sigma
        spec = ChannelSpec(BEC, 0.5, 64)
        rebuilds = 10_000
        counts = None
        for s in range(rebuilds):
            code = build_coset_code(spec, [8, 4], SimplexWeights([0.5, 0.5]), _rng(11, s))
            entries = np.concatenate(
                [g.ravel() for g in code.generators] + [v for v in code.shifts]
            )
            counts = entries.astype(np.int64) if counts is None else counts + entries
        d = counts.size
        chi2 = float(np.sum((counts - rebuilds / 2) ** 2) / (rebuilds / 4))
        assert abs(chi2 - d) <= 5.0 * math.sqrt(2.0 * d)


class TestEncode:
    def test_zero_message_returns_shift(self):
        spec = ChannelSpec(BSC, 0.11, 24)
        code = build_coset_code(spec, [4], SimplexWeights([1.0]), _rng(3))
        table = code.codewords_packed(0)
        assert np.array_equal(table[0], _pack_rows(code.shifts[0], 24)[0])

    def test_two_row_sum(self):
        spec = ChannelSpec(BSC, 0.11, 12)
        code = build_coset_code(spec, [2], SimplexWeights([1.0]), _rng(4))
        want = code.generators[0][0] ^ code.generators[0][1] ^ code.shifts[0]
        assert np.array_equal(code.codewords_packed(0)[0b11], _pack_rows(want, 12)[0])

    @settings(max_examples=60)
    @given(st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1))
    def test_gf2_linearity(self, w1, w2):
        spec = ChannelSpec(BEC, 0.5, 20)
        code = build_coset_code(spec, [6], SimplexWeights([1.0]), _rng(6))
        table = code.codewords_packed(0)
        assert np.array_equal(table[w1] ^ table[w2] ^ table[0], table[w1 ^ w2])

    def test_table_matches_encode(self):
        spec = ChannelSpec(BSC, 0.11, 70)
        code = build_coset_code(spec, [5], SimplexWeights([1.0]), _rng(8))
        table = code.codewords_packed(0)
        for w in (0, 1, 17, 31):
            assert np.array_equal(table[w], _codeword(code, 0, w))


class TestInfoDensity:
    """The word-level density of the reference decoders (tests/oracles.py)."""

    def test_bsc_clean_reception(self):
        spec = ChannelSpec(BSC, 0.11, 32)
        x = np.ones(32, dtype=np.uint8)
        assert info_density_bits(spec, x, x) == pytest.approx(32 * math.log2(1.78))

    def test_bec_disagreement(self):
        spec = ChannelSpec(BEC, 0.5, 8)
        x = np.zeros(8, dtype=np.uint8)
        y = x.copy()
        y[3] = 1
        assert info_density_bits(spec, x, y) == -math.inf

    def test_bec_counts_unerased(self):
        spec = ChannelSpec(BEC, 0.5, 64)
        x = np.zeros(64, dtype=np.uint8)
        y = x.copy()
        y[:10] = Symbol.ERASED
        assert info_density_bits(spec, x, y) == 54.0

    def test_bsc_flip_count_line(self):
        spec = ChannelSpec(BSC, 0.2, 16)
        x = np.zeros(16, dtype=np.uint8)
        y = x.copy()
        y[:3] = 1
        want = 16 * math.log2(1.6) + 3 * math.log2(0.25)
        assert info_density_bits(spec, x, y) == pytest.approx(want)

    @pytest.mark.parametrize("p", [0.0, 0.11, 0.5, 0.89, 1.0])
    def test_bsc_matches_spectrum_at_flip_count(self, p):
        spec = ChannelSpec(BSC, p, 24)
        density = info_density_spectrum(BSC, 24, p).density
        rng = _rng(21)
        x = rng.integers(0, 2, 24, dtype=np.uint8)
        for _ in range(5):
            y = x ^ (rng.random(24) < p)
            assert info_density_bits(spec, x, y) == density[np.count_nonzero(x != y)]
        if p in (0.0, 1.0):
            # one flip off the channel's certain flip count: zero probability
            y[0] ^= 1
            assert info_density_bits(spec, x, y) == -math.inf


class TestMonteCarlo:
    def test_noiseless_is_errorless(self):
        spec = ChannelSpec(BSC, 0.0, 16)
        code = build_coset_code(spec, [0], SimplexWeights([1.0]), _rng(18))
        assert monte_carlo_error(code, spec, 200, seed=1) == [0]

    def test_all_erasure_channel_always_errs(self):
        spec = ChannelSpec(BEC, 1.0, 16)
        code = build_coset_code(spec, [2, 2], SimplexWeights([0.5, 0.5]), _rng(19))
        assert monte_carlo_error(code, spec, 300, seed=2) == [300, 300]

    def test_noiseless_multiclass_soundness(self):
        # p=0 with sub-n thresholds and globally distinct codewords: no errors
        spec = ChannelSpec(BSC, 0.0, 32)
        code = build_coset_code(spec, [3, 2], SimplexWeights([0.5, 0.5]), _rng(31))
        packed = np.vstack([code.codewords_packed(0), code.codewords_packed(1)])
        assert np.unique(packed, axis=0).shape[0] == packed.shape[0]
        assert all(t < spec.n for t in code.log2_thresholds)
        assert monte_carlo_error(code, spec, 500, seed=6) == [0, 0]

    def test_thread_count_invariance(self):
        spec = ChannelSpec(BEC, 0.5, 64)
        code = build_coset_code(spec, [6, 3], SimplexWeights([0.5, 0.5]), _rng(20))
        a = monte_carlo_error(code, spec, 20_000, seed=3, threads=1)
        b = monte_carlo_error(code, spec, 20_000, seed=3, threads=4)
        assert a == b

    def test_non_chunk_multiple_trials(self):
        # every trial errs on the all-erasure channel, so the count is the trial count
        spec = ChannelSpec(BEC, 1.0, 32)
        code = build_coset_code(spec, [3], SimplexWeights([1.0]), _rng(21))
        assert monte_carlo_error(code, spec, 10_001, seed=4) == [10_001]

    def test_minimum_trials(self):
        spec = ChannelSpec(BSC, 0.1, 8)
        code = build_coset_code(spec, [1], SimplexWeights([1.0]), _rng(22))
        with pytest.raises(ValueError):
            monte_carlo_error(code, spec, 99, seed=0)

    def test_noisy_bsc_respects_bound_on_average(self):
        # light version of the acceptance validation, 5 codebooks
        spec = ChannelSpec(BSC, 0.05, 64)
        lams = SimplexWeights([0.5, 0.5])
        total = np.zeros(2, dtype=np.int64)
        trials, books = 20_000, 5
        for s in range(books):
            code = build_coset_code(spec, [6, 4], lams, _rng(23, s))
            total += monte_carlo_error(code, spec, trials, seed=100 + s)
        for i, k in enumerate((6, 4)):
            rate = total[i] / (trials * books)
            se = math.sqrt(max(rate, 1e-12) * (1 - rate) / (trials * books))
            assert rate <= dt_class_bound(spec, float(k), 0.5) + 3 * se


def _codebook_file(classes, kind_code=0, n=16):
    """Codebook file bytes with all-zero shifts and rows; classes are (k, lambda)."""
    blob = b"UMPC" + struct.pack("<HBd I H", 1, kind_code, 0.11, n, len(classes))
    for k, lam in classes:
        blob += struct.pack("<Hd", k, lam) + bytes((k + 1) * ((n + 7) // 8))
    return blob


VALID_FILE = _codebook_file([(0, 1.0)])  # n = 16: a 2-byte shift, no rows


class TestCodebookFile:
    def test_round_trip(self, tmp_path):
        spec = ChannelSpec(BEC, 0.5, 75)
        code = build_coset_code(spec, [5, 2], SimplexWeights([0.25, 0.75]), _rng(26))
        path = tmp_path / "code.umpc"
        save_codebook(code, spec, path)
        loaded, loaded_spec = load_codebook(path)
        assert loaded_spec == spec
        assert loaded.k == code.k
        assert loaded.log2_thresholds == code.log2_thresholds
        for i in range(2):
            assert np.array_equal(loaded.generators[i], code.generators[i])
            assert np.array_equal(loaded.shifts[i], code.shifts[i])

    def test_binary_layout_golden(self, tmp_path):
        # n=9 so the bit vectors occupy 2 bytes with bit 0 = symbol 0
        n = 9
        shift = np.array([1, 0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)
        gen = np.array([[0, 1, 0, 0, 0, 0, 0, 0, 1]], dtype=np.uint8)
        code = CosetCodebook(n, (1,), SimplexWeights([1.0]), [gen], [shift])
        spec = ChannelSpec(ChannelKind.BSC, 0.25, n)
        path = tmp_path / "tiny.umpc"
        save_codebook(code, spec, path)
        blob = path.read_bytes()
        assert blob[:4] == b"UMPC"
        header = blob[4:]
        version, kind, p, nn, m = struct.unpack("<HBd I H", header[:17])
        assert (version, kind, p, nn, m) == (1, 0, 0.25, 9, 1)
        k_i, lam = struct.unpack("<Hd", header[17:27])
        assert (k_i, lam) == (1, 1.0)
        assert header[27:29] == bytes([0b00000001, 0b00000001])  # shift bits 0 and 8
        assert header[29:31] == bytes([0b00000010, 0b00000001])  # row bits 1 and 8
        assert len(blob) == 4 + 17 + 10 + 2 + 2

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError):
            load_codebook(path)

    @pytest.mark.parametrize(
        "blob,error,match",
        [
            pytest.param(
                _codebook_file([(0, 1.0)], kind_code=7), ValueError, "unknown channel code 7",
                id="channel-code-7",
            ),
            pytest.param(VALID_FILE[:12], ValueError, "ends early", id="short-header"),
            pytest.param(VALID_FILE[:-1], ValueError, "ends early", id="short-shift"),
            pytest.param(
                _codebook_file([(25, 1.0)]), ResourceBudgetError, "decoding budget", id="k-25"
            ),
            pytest.param(
                _codebook_file([(0, 0.0), (0, 1.0)]), ValueError, "lambda_i > 0", id="lambda-0"
            ),
            pytest.param(
                VALID_FILE + b"\x00", ValueError, "1 bytes after the last class",
                id="trailing-bytes",
            ),
        ],
    )
    def test_rejects_a_malformed_file(self, tmp_path, blob, error, match):
        # each file breaks one rule that VALID_FILE keeps; the refusal names the file
        ok, bad = tmp_path / "ok.umpc", tmp_path / "bad.umpc"
        ok.write_bytes(VALID_FILE)
        bad.write_bytes(blob)
        assert load_codebook(ok)[0].k == (0,)
        with pytest.raises(error, match=match) as info:
            load_codebook(bad)
        assert str(info.value).startswith(f"{bad}: ")
