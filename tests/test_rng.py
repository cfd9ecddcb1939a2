"""Counter-based uniform streams and the categorical sampler."""

import math

import numpy as np
import pytest

from oneshot import Joint, SchemeSizes, rng, simulate
from oneshot.errors import EnumerationCapError, InputFormatError
from oneshot.oracle import EnsembleSpec, mc_miss_prob

from conftest import binary_broadcast_system
from reference import stream_doubles


#: one past the largest uniform word: a word ``w`` has the value ``w * 2**-53``
WORDS = 2**53


def reference_categorical(cdf: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Float broadcast-compare reference: count the cdf entries <= the
    word's double ``w * 2**-53``, clamp."""
    u = np.asarray(w) * 2.0**-53
    return np.minimum((u[..., None] >= cdf).sum(-1), cdf.shape[-1] - 1)


def word_at(u) -> np.ndarray:
    """The least word whose value is at least ``u`` (``u`` in [0, 1))."""
    w = np.ceil(np.asarray(u, dtype=np.float64) * 2.0**53).astype(np.uint64)
    assert (w < WORDS).all()
    return w


def random_words(gen: np.random.Generator, shape) -> np.ndarray:
    return gen.integers(0, WORDS, size=shape, dtype=np.uint64)


def random_cdfs(gen: np.random.Generator, rows: int, k: int) -> np.ndarray:
    return np.cumsum(gen.dirichlet(np.ones(k), size=rows), axis=1)


def sample(cdf: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The library draw: the cdf's thresholds against the words."""
    return rng.sample_categorical(rng.thresholds(cdf), w)


def edge_words(cdf: np.ndarray) -> np.ndarray:
    """Per cdf entry ``c``, the words ``m - 1`` and ``m`` around its threshold
    ``m = ceil(c * 2**53)`` (those below 2**53), then 0 and ``2**53 - 1``."""
    m = np.ceil(np.asarray(cdf).ravel() * 2.0**53)
    m = m[(m > 0) & (m < WORDS)].astype(np.uint64)
    return np.concatenate([m - np.uint64(1), m, np.array([0, WORDS - 1], dtype=np.uint64)])


def assert_matches_reference(cdf: np.ndarray, w: np.ndarray) -> None:
    got = sample(cdf, w)
    want = reference_categorical(cdf, w)
    assert got.dtype == np.min_scalar_type(cdf.shape[-1] - 1)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


class TestThresholds:
    """A draw compares a word ``w`` with ``m = ceil(c * 2**53)``: ``w >= m``
    exactly when the word's double ``w * 2**-53`` is at least ``c``."""

    def test_threshold_is_the_least_word_at_or_above_the_entry(self):
        gen = np.random.default_rng(21)
        # doubles over the whole exponent range of [0, 1], subnormals included
        c = np.concatenate([gen.random(2000) * 2.0 ** gen.integers(-1074, 1, 2000),
                            [0.0, 5e-324, 2.0**-53, 2.0**-54, 3 * 2.0**-54, 0.5, 1.0,
                             np.nextafter(1.0, 0.0), np.nextafter(0.5, 0.0)]])
        m = rng.thresholds(c)
        assert m.dtype == np.uint64
        assert (m.astype(np.float64) * 2.0**-53 >= c).all()
        above = m > 0
        assert ((m[above] - np.uint64(1)).astype(np.float64) * 2.0**-53 < c[above]).all()
        np.testing.assert_array_equal(m[c == 0.0], 0)
        assert rng.thresholds(np.array([1.0]))[0] == WORDS

    def test_zero_mass_tail_symbols_are_never_drawn(self):
        # the cdf reaches 1.0 at symbol 1; symbols 2 and 3 have no mass
        cdf = np.array([0.5, 1.0, 1.0, 1.0])
        w = edge_words(cdf)
        assert_matches_reference(cdf, w)
        assert_matches_reference(np.tile(cdf, (len(w), 1)), w)
        assert sample(cdf, w).max() == 1 and sample(cdf, np.array([WORDS - 1], np.uint64))[0] == 1

    def test_cumsum_above_one_never_fires(self):
        cdf = np.array([0.3, 0.7, np.nextafter(1.0, 2.0), 1.0 + 4 * 2.0**-52])
        assert (rng.thresholds(cdf)[2:] > WORDS).all()
        w = edge_words(cdf)
        assert_matches_reference(cdf, w)
        assert_matches_reference(np.tile(cdf, (len(w), 1)), w)
        assert sample(cdf, np.array([WORDS - 1], np.uint64))[0] == 2

    def test_masses_near_the_word_spacing_and_subnormal(self):
        masses = np.array([5e-324, 2.0**-1060, 2.0**-60, 2.0**-54, 2.0**-53, 3 * 2.0**-53, 0.25])
        cdf = np.cumsum(np.append(masses, 1.0 - masses.sum()))
        w = np.concatenate([edge_words(cdf), np.arange(8, dtype=np.uint64)])
        assert_matches_reference(cdf, w)
        assert_matches_reference(np.tile(cdf, (len(w), 1)), w)
        # word 0 stays below a subnormal entry; word 1, of value 2**-53, is past
        # the four entries below it (the fourth is 2**-54 + 2**-60 and change)
        np.testing.assert_array_equal(sample(cdf, np.array([0, 1], np.uint64)), [0, 4])

    @pytest.mark.parametrize("k", [2, 5, rng.COMPARE_SYMBOLS, rng.COMPARE_SYMBOLS + 1, 100])
    def test_words_at_each_threshold_and_the_last_word(self, k):
        # both 1-D paths (compare passes, searchsorted) and the 2-D passes
        cdf = random_cdfs(np.random.default_rng(40 + k), 1, k)[0]
        w = edge_words(cdf)
        assert_matches_reference(cdf, w)
        assert_matches_reference(np.tile(cdf, (len(w), 1)), w)

    @pytest.mark.parametrize("k", [257, 3600])
    def test_wide_counters(self, k):
        gen = np.random.default_rng(k)
        cdf = random_cdfs(gen, 1, k)[0]
        w = np.concatenate([edge_words(cdf)[::max(1, k // 64)], random_words(gen, 50),
                            np.array([WORDS - 1], np.uint64)])
        for c in (cdf, np.tile(cdf, (len(w), 1))):
            got = sample(c, w)
            assert got.dtype == np.uint16 and got.max() == k - 1
            np.testing.assert_array_equal(got, reference_categorical(cdf, w))


class TestSampleCategorical2D:
    @pytest.mark.parametrize("k", range(1, 41))
    def test_matches_reference_for_every_alphabet(self, k):
        gen = np.random.default_rng(1000 + k)
        cdfs = random_cdfs(gen, 5, k)
        rows = gen.integers(0, 5, size=(64, 3))
        w = random_words(gen, (64, 3, 4, 2))
        assert_matches_reference(cdfs[rows][:, :, None, None, :], w)

    def test_one_row_per_uniform(self):
        # the channel draw: a (n, k) cdf against n uniforms
        gen = np.random.default_rng(7)
        cdf = random_cdfs(gen, 300, 6)
        assert_matches_reference(cdf, random_words(gen, 300))

    def test_tied_entries(self):
        # zero-mass symbols repeat a cdf entry; they can never be drawn
        cdf = np.array([[0.2, 0.2, 0.2, 0.7, 1.0], [0.0, 0.0, 0.5, 0.5, 1.0]])
        w = word_at([[0.0, 0.1999, 0.2, 0.5, 0.7, 0.9999],
                     [0.0, 0.2, 0.4999, 0.5, 0.75, 0.9999]])
        assert_matches_reference(cdf[:, None, :], w)
        got = sample(cdf[:, None, :], w)
        np.testing.assert_array_equal(got, [[0, 0, 3, 3, 4, 4], [2, 2, 2, 4, 4, 4]])

    def test_uniform_equal_to_a_cdf_entry(self):
        # a word at an entry moves past that symbol (right-continuous cdf),
        # the word below it does not
        gen = np.random.default_rng(3)
        cdf = random_cdfs(gen, 4, 7)
        m = word_at(cdf[:, :-1])
        w = np.repeat(m, 3, axis=1)
        assert_matches_reference(cdf[:, None, :], w)
        assert_matches_reference(cdf[:, None, :], m - np.uint64(1))
        np.testing.assert_array_equal(sample(cdf[:, None, :], m), np.tile(np.arange(1, 7), (4, 1)))

    def test_last_entry_below_one(self):
        # rounding can leave the total mass short of 1; uniforms above it
        # clamp to the last symbol
        cdf = np.array([[0.3, 0.6, 0.9999999], [0.5, 0.75, 0.99]])
        w = word_at([[0.99999995, 0.9999999, 0.5], [0.995, 0.99, 0.2]])
        assert_matches_reference(cdf[:, None, :], w)
        assert sample(cdf[:, None, :], w)[0, 0] == 2
        assert (sample(cdf, np.full(2, WORDS - 1, np.uint64)) == 2).all()

    def test_zero_mass_row(self):
        # a conditional row of an impossible cloud symbol is all zeros
        cdf = np.zeros((2, 1, 3))
        assert_matches_reference(cdf, random_words(np.random.default_rng(5), (2, 4)))

    def test_empty_batch(self):
        cdf = np.zeros((0, 1, 4))
        got = sample(cdf, np.zeros((0, 3), dtype=np.uint64))
        assert got.shape == (0, 3) and got.dtype == np.uint8

    @pytest.mark.parametrize("k,dtype", [(256, np.uint8), (257, np.uint16)])
    def test_index_dtype_holds_the_last_symbol(self, k, dtype):
        gen = np.random.default_rng(k)
        cdf = random_cdfs(gen, 3, k)
        w = np.concatenate([random_words(gen, (3, 50)), np.full((3, 1), WORDS - 1, np.uint64)],
                           axis=1)
        for c in (cdf[:, None, :], cdf[0]):
            got = sample(c, w if c.ndim > 1 else w[0])
            assert got.dtype == dtype and got.max() == k - 1
        assert_matches_reference(cdf[:, None, :], w)

    def test_one_dimensional_path_agrees(self):
        gen = np.random.default_rng(11)
        cdf = random_cdfs(gen, 1, 9)[0]
        w = random_words(gen, 500)
        np.testing.assert_array_equal(sample(cdf, w), sample(np.tile(cdf, (500, 1)), w))


@pytest.mark.parametrize("k", [rng.COMPARE_SYMBOLS, rng.COMPARE_SYMBOLS + 1],
                         ids=["compare", "searchsorted"])
class TestSampleCategorical1D:
    """A 1-D cdf takes the compare passes up to ``COMPARE_SYMBOLS`` symbols and
    a binary search past them; both count the thresholds <= w, clamped."""

    def test_matches_reference(self, k):
        gen = np.random.default_rng(k)
        cdf = random_cdfs(gen, 1, k)[0]
        assert_matches_reference(cdf, random_words(gen, 2000))
        assert_matches_reference(cdf, random_words(gen, (30, 7))[:, ::2])

    def test_tied_entries(self, k):
        # every other symbol has zero mass; a word at a tie moves past all of it
        cdf = np.repeat(np.linspace(0.0, 1.0, (k + 1) // 2 + 1)[1:], 2)[:k]
        m = word_at(cdf[cdf < 1.0])
        w = np.concatenate([m, m - np.uint64(1), [0, WORDS - 1]]).astype(np.uint64)
        assert_matches_reference(cdf, w)
        assert sample(cdf, m[:1])[0] == 2

    def test_uniform_equal_to_a_cdf_entry(self, k):
        cdf = random_cdfs(np.random.default_rng(5 + k), 1, k)[0]
        m = word_at(cdf[:-1])
        np.testing.assert_array_equal(sample(cdf, m), np.arange(1, k))
        np.testing.assert_array_equal(sample(cdf, m - np.uint64(1)), np.arange(0, k - 1))
        assert_matches_reference(cdf, np.concatenate([m, m - np.uint64(1)]))

    def test_last_entry_below_one(self, k):
        cdf = random_cdfs(np.random.default_rng(9 + k), 1, k)[0] * (1 - 1e-9)
        last = word_at(cdf[-1:])[0]
        w = np.array([last, last + 1, word_at(1 - 1e-12), WORDS - 1, 0], dtype=np.uint64)
        assert_matches_reference(cdf, w)
        assert (sample(cdf, w)[:4] == k - 1).all()

    def test_dtype_and_shape(self, k):
        cdf = random_cdfs(np.random.default_rng(k), 1, k)[0]
        for w in (np.zeros(0, np.uint64), np.full((2, 3), 2**52, np.uint64), np.uint64(2**51)):
            got = sample(cdf, w)
            assert got.dtype == np.uint8 and got.shape == np.shape(w)


class TestTrialUniforms:
    @pytest.mark.parametrize("k", [1, 4, 5, 11])
    def test_rows_do_not_depend_on_chunking(self, k):
        whole = rng.trial_uniforms(42, 0, 23, k)
        for chunk in (1, 2, 5, 8):
            parts = [rng.trial_uniforms(42, s, min(chunk, 23 - s), k) for s in range(0, 23, chunk)]
            np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_offset_window_matches(self):
        whole = rng.trial_uniforms(9, 0, 40, 7)
        np.testing.assert_array_equal(rng.trial_uniforms(9, 13, 10, 7), whole[13:23])

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("first", [0, 7, 2**32 - 2, 2**32 + 5, 2**61 + 3])
    def test_far_positions_match_numpy(self, seed, first):
        # 9 words a trial put trials past 2**61 beyond 2**64 words into the
        # stream, where the jump needs all 128 bits of the state
        got = rng.trial_uniforms(seed, first, 3, 9)
        assert got.dtype == np.uint64 and got.shape == (3, 9)
        np.testing.assert_array_equal(got * 2.0**-53,
                                      stream_doubles(seed, first * 9, 27).reshape(3, 9))

    def test_leader_rows_and_tails_are_slices_of_full_rows(self):
        # group g's row is the row trial g reads in groups of one, at words
        # [g c, (g + 1) c) of numpy's own stream; a trial's tail is the same
        # whatever its group
        gen = np.random.default_rng(17)
        cut_short = 0
        for _ in range(200):
            k, group = int(gen.integers(1, 1200)), int(gen.integers(1, 7))
            n, tail = int(gen.integers(0, 25)), int(gen.integers(1, min(k, 6) + 1))
            start, seed = group * int(gen.integers(0, 10**6)), int(gen.integers(0, 2**63))
            width, draws = k - tail, -(-n // group)
            cut_short += n % group != 0
            rows, tails = rng.trial_uniforms(seed, start, n, k, group, tail)
            assert rows.shape == (draws, width) and tails.shape == (n, tail)
            ungrouped, _ = rng.trial_uniforms(seed, start // group, draws, k, 1, tail)
            np.testing.assert_array_equal(rows, ungrouped)
            _, all_tails = rng.trial_uniforms(seed, start, n, k, 1, tail)
            np.testing.assert_array_equal(tails, all_tails)
            np.testing.assert_array_equal(rows * 2.0**-53, stream_doubles(
                seed, start // group * width, draws * width).reshape(draws, width))
        assert cut_short > 50

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_words_are_numpys_doubles_of_the_same_stream(self, seed):
        # the contract every golden rests on: a word times 2**-53 is the double
        # numpy's own Generator(PCG64DXSM(seed)) draws at the trial's positions,
        # or with a tail at its group's; the last starts put groups past 2**61
        # beyond 2**64 words into the stream
        gen = np.random.default_rng(23)
        for case in range(60):
            k, group = int(gen.integers(1, 1200)), int(gen.integers(1, 7))
            n, tail = int(gen.integers(0, 25)), int(gen.integers(1, min(k, 6) + 1))
            start = group * (int(gen.integers(0, 10**6)) if case < 50 else 2**61 + 3)
            full = rng.trial_uniforms(seed, start, n, k)
            assert full.dtype == np.uint64 and (full < WORDS).all()
            np.testing.assert_array_equal(full * 2.0**-53, stream_doubles(seed, start * k, n * k)
                                          .reshape(n, k))
            rows, tails = rng.trial_uniforms(seed, start, n, k, group, tail)
            assert rows.dtype == tails.dtype == np.uint64
            width, draws = k - tail, -(-n // group)
            want = stream_doubles(seed, start // group * width, draws * width)
            np.testing.assert_array_equal(rows * 2.0**-53, want.reshape(draws, width))

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_tails_are_numpys_doubles_of_the_child_stream(self, seed):
        for start, n, tail in [(0, 5, 1), (12, 7, 6), (4 * (2**61 + 3), 4, 2)]:
            _, tails = rng.trial_uniforms(seed, start, n, 40, 4, tail)
            np.testing.assert_array_equal(tails * 2.0**-53,
                                          stream_doubles(seed, start * tail, n * tail, child=True)
                                          .reshape(n, tail))

    @pytest.mark.parametrize("tail", [None, 2])
    def test_start_inside_a_group_raises(self, tail):
        for start in (1, 5, 2**61 + 3):
            with pytest.raises(ValueError, match="not a multiple of the group of 4"):
                rng.trial_uniforms(0, start, 8, 10, 4, tail)
        rng.trial_uniforms(0, 8, 8, 10, 4, tail)


class TestMonteCarlo:
    @pytest.mark.parametrize("max_trials,group,threads", [(8192, 1, 1), (4, 1, 2), (7, 3, 2)])
    def test_sum_does_not_depend_on_chunks_or_threads(self, max_trials, group, threads):
        # words below 2**52 are the uniforms below 1/2
        want = int((rng.trial_uniforms(42, 0, 23, 5) < 2**52).sum())
        assert 0 < want < 23 * 5
        got = rng.monte_carlo(23, 42, 5, lambda u: int((u < 2**52).sum()),
                              max_trials=max_trials, group=group, threads=threads)
        assert got == want

    @pytest.mark.parametrize("k", [6, 600])
    def test_tail_bodies_see_leader_rows_and_every_tail(self, k):
        # 23 trials in groups of 3 read the first 8 group rows, two in each
        # chunk of up to 6 trials
        seen = []
        total = rng.monte_carlo(23, 9, k, lambda ut: seen.append(ut) or len(ut[1]),
                                max_trials=7, group=3, tail=2)
        assert total == 23
        assert [len(r) for r, _ in seen] == [2, 2, 2, 2]
        rows = stream_doubles(9, 0, 8 * (k - 2)).reshape(8, k - 2)
        tails = stream_doubles(9, 0, 46, child=True).reshape(23, 2)
        np.testing.assert_array_equal(np.concatenate([r for r, _ in seen]) * 2.0**-53, rows)
        np.testing.assert_array_equal(np.concatenate([t for _, t in seen]) * 2.0**-53, tails)

    def test_chunks_hold_whole_groups(self):
        sizes = []
        assert rng.monte_carlo(23, 1, 3, lambda u: sizes.append(len(u)) or len(u),
                               max_trials=7, group=3) == 23
        assert sizes == [6, 6, 6, 5]

    def test_chunks_aim_for_the_target_and_cap_one_group(self):
        assert rng.chunk_trials(64) == rng.CHUNK_TRIALS
        assert rng.chunk_trials(1000) == rng.CHUNK_TARGET // 1000
        assert rng.chunk_trials(1000, group=7) == rng.CHUNK_TARGET // 7000 * 7
        # a group over the target, up to the cap, is a chunk of its own
        assert rng.chunk_trials(rng.CHUNK_TARGET // 2, group=3) == 3
        assert rng.chunk_trials(rng.CHUNK_BYTES // 4, group=4) == 4
        with pytest.raises(EnumerationCapError, match="one reuse group of 4 trials"):
            rng.chunk_trials(rng.CHUNK_BYTES // 4 + 1, group=4)
        with pytest.raises(EnumerationCapError, match="one trial needs"):
            rng.chunk_trials(rng.CHUNK_BYTES + 1)

    def test_a_group_over_the_target_runs_as_one_chunk(self):
        sizes = []
        assert rng.monte_carlo(10, 1, 3, lambda u: sizes.append(len(u)) or len(u),
                               work_bytes=rng.CHUNK_TARGET // 2, group=3) == 10
        assert sizes == [3, 3, 3, 1]

    def test_exact_partials_sum_the_same_in_any_chunking(self):
        # magnitudes over 60 binades: a plain sum per chunk rounds differently
        # for different chunk sizes, the exactly rounded sum of all does not
        gen = np.random.default_rng(5)
        values = gen.random(5000) * 2.0 ** gen.integers(-60, 1, 5000)
        want = math.fsum(values.tolist())
        plain = set()
        for size in (1, 7, 64, 999, 5000):
            chunks = [values[i:i + size] for i in range(0, len(values), size)]
            assert math.fsum(sum((rng.exact_partials(c) for c in chunks), [])) == want
            plain.add(sum(float(c.sum()) for c in chunks))
        assert len(plain) > 1
        assert rng.exact_partials(np.zeros(3)) == []

    def test_trial_cap_raises_before_any_chunk(self):
        calls = []
        with pytest.raises(EnumerationCapError, match="trials exceed the cap"):
            rng.monte_carlo(rng.TRIALS_CAP + 1, 0, 2, lambda u: calls.append(u) or 0)
        assert calls == []

    @pytest.mark.parametrize("threads", [0, -1, rng.THREADS_CAP + 1])
    @pytest.mark.parametrize("entry", ["run_trials", "mc_miss_prob", "simulate"])
    def test_threads_outside_the_cap_raise_before_any_chunk(self, entry, threads, monkeypatch):
        calls = []
        monkeypatch.setattr(rng, "trial_uniforms", lambda *args: calls.append(args))
        run = {
            "run_trials": lambda: rng.run_trials(10, lambda *span: calls.append(span),
                                                 threads=threads),
            "mc_miss_prob": lambda: mc_miss_prob(
                EnsembleSpec(Joint([[0.4, 0.1], [0.2, 0.3]]), np.eye(2, dtype=bool), 2, 2),
                10, seed=0, threads=threads),
            "simulate": lambda: simulate(binary_broadcast_system(), SchemeSizes(1, 1, 1, 1, 1, 2, 2),
                                         1.0, 10, seed=0, threads=threads),
        }[entry]
        with pytest.raises(InputFormatError, match=r"threads must be in \[1, 64\]"):
            run()
        assert calls == []

    def test_looks_up_uniforms_and_runner_at_call_time(self, monkeypatch):
        # the benchmark's tracer rebinds these module attributes
        calls = []
        for name in ("trial_uniforms", "run_trials"):
            original = getattr(rng, name)
            monkeypatch.setattr(rng, name, lambda *a, _f=original, _n=name, **kw:
                                calls.append(_n) or _f(*a, **kw))
        rng.monte_carlo(10, 3, 2, len, max_trials=4)
        assert calls == ["run_trials"] + ["trial_uniforms"] * 3
