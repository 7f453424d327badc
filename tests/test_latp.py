import dataclasses
import functools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (allocating_cumulative_trapezoid,
                     allocating_derivative_bound_check,
                     allocating_trapezoid_volterra, broadcast_hazard_rows,
                     check_regularity, full_survival_series,
                     loop_derivative_bound_check, loop_regularity_moduli,
                     loop_survival_table_check, loop_trapezoid_weights,
                     meshgrid_hazard_rows, whole_survival_table_check,
                     whole_table_series_from)
from conftest import STRIP_ROWS, affine_two_class_spec, strips_of

from rankflow import (ArrivalSequence, ConfigError, DomainError,
                      EnvelopeBreach, LatpIntensity, derivative_bound_check,
                      latp, sample_arrivals, solve_y_c, spec_from_config,
                      streams, survival_series, survival_solve,
                      thin_last_arrival, tilde_w)
from rankflow import flow, harness
from rankflow.harness import shipped_omegas
from rankflow.latp import (ENVELOPE_MARGIN, constant_intensity,
                           SurvivalTable, _hazard_rows, _trapezoid_volterra,
                           flow_pullback_affine, last_arrival_affine,
                           sample_replicas, zero_intensity)

GRID = np.linspace(0.0, 1.0, 201)


def elapsed_intensity(horizon):
    # omega(s, u) = u - s
    return LatpIntensity(lambda s, t: t - s, horizon, sup_norm=horizon,
                         label="elapsed")


def test_omega_integral_elapsed_closed_form():
    # the exposure Omega(t0, t) = int_{t0}^{t} (u - t0) du = (t - t0)^2 / 2
    # = 0.32; trapezoid is exact for a linear integrand, so only float
    # error remains
    us = np.linspace(0.2, 1.0, 801)
    vals = elapsed_intensity(1.0)(np.full(len(us), 0.2), us)
    val = latp._cumulative_trapezoid(vals, np.diff(us))[-1]
    assert val == pytest.approx(0.32, abs=1e-12)


def test_sample_zero_intensity_empty():
    arr = sample_arrivals(zero_intensity(1.0), seed=0)
    assert len(arr.times) == 0


def test_sample_constant_poisson_count():
    # arrival count over [0, T] is Poisson(cT)
    c, reps = 2.0, 10_000
    om = constant_intensity(c, 1.0)
    counts = np.array([len(sample_arrivals(om, seed=1, replica=r).times)
                       for r in range(reps)])
    se = math.sqrt(c / reps)
    assert abs(counts.mean() - c) <= 3 * se


def test_sample_one_plus_s_first_arrival():
    # P(no arrival by 1) = exp(-Omega(0,1)) and omega(0, u) = 1
    om = last_arrival_affine(1.0, 1.0, 1.0)
    reps = 10_000
    hits = sum(len(sample_arrivals(om, seed=2, replica=r).times) == 0
               for r in range(reps))
    p = math.exp(-1.0)
    se = math.sqrt(p * (1 - p) / reps)
    assert abs(hits / reps - p) <= 3 * se


def test_sample_envelope_breach_is_hard_fault():
    lying = LatpIntensity(lambda s, t: 2.0 + 0 * t, 1.0, sup_norm=0.5)
    with pytest.raises(EnvelopeBreach):
        sample_arrivals(lying, seed=0)


@pytest.mark.parametrize("omega", [
    last_arrival_affine(1.0, 1.0, 1.0),
    flow_pullback_affine(0.6, 0.9, 0.3, 1.0),
    elapsed_intensity(1.0),
], ids=["one_plus_s", "flow_affine", "elapsed"])
def test_thin_last_arrival_matches_sample_arrivals(omega):
    # the replicas' candidate streams, merged in time, thin to exactly the
    # paths the scalar sampler draws from the same streams
    reps, seed = 40, 3
    envelope = ENVELOPE_MARGIN * omega.sup_norm
    batches = [streams.candidate_batch(streams.substream(seed, streams.LATP, r),
                                       envelope, 1.0) for r in range(reps)]
    times = np.concatenate([b[0] for b in batches])
    marks = np.concatenate([b[1] for b in batches])
    owners = np.repeat(np.arange(reps), [len(b[0]) for b in batches])
    order = np.argsort(times, kind="stable")
    times, marks, owners = times[order], marks[order], owners[order]
    accepted = thin_last_arrival(times, owners, marks, reps,
                                 lambda o, last, t: omega._fn(last, t),
                                 envelope)
    for r in range(reps):
        want = sample_arrivals(omega, seed=seed, replica=r).times
        assert np.array_equal(times[accepted & (owners == r)], want)


def test_thin_last_arrival_reports_earliest_breach_in_stream_order():
    # owner 1 breaches in round 0 at t=0.5; owner 0 breaches later in
    # rounds (its second candidate) but earlier in time, at t=0.2
    times = np.array([0.1, 0.2, 0.5])
    owners = np.array([0, 0, 1])
    marks = np.zeros(3)

    def hazard(o, last, t):
        return np.where((o == 1) | (last > 0), 3.0, 1.0)

    with pytest.raises(EnvelopeBreach) as exc:
        thin_last_arrival(times, owners, marks, 2, hazard, [2.0, 2.5])
    assert str(exc.value) == "particle 0: hazard 3.0 above envelope 2.0 at t=0.2"


def test_thin_last_arrival_empty_stream():
    empty = np.empty(0)
    got = thin_last_arrival(empty, np.empty(0, dtype=np.int64), empty, 3,
                            lambda o, last, t: np.ones(len(o)), 1.0)
    assert got.dtype == bool and len(got) == 0


# the radix branch ends at 2^16, the unique-key one starts above it
SORT_BOUNDS = [1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 20]


def _assert_stable_argsort(keys, bound):
    got = latp._stable_argsort(keys, bound)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(keys, kind="stable"))


@pytest.mark.parametrize("bound", SORT_BOUNDS)
@pytest.mark.parametrize("shape", ["random", "presorted", "reversed",
                                   "all-equal", "empty", "one"])
def test_stable_argsort_is_numpy_stable_argsort(shape, bound):
    m = {"empty": 0, "one": 1}.get(shape, 20000)
    keys = np.random.default_rng(bound).integers(0, bound, m)
    if shape == "presorted":
        keys.sort()
    elif shape == "reversed":
        keys = np.sort(keys)[::-1]
    elif shape == "all-equal":
        keys[:] = bound - 1
    _assert_stable_argsort(keys, bound)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), bound=st.sampled_from(SORT_BOUNDS))
def test_stable_argsort_keeps_ties_in_place(data, bound):
    # a few distinct keys, the largest allowed among them, tie often
    pool = data.draw(st.lists(st.integers(0, bound - 1), min_size=1,
                              max_size=4)) + [bound - 1]
    keys = np.array(data.draw(st.lists(st.sampled_from(pool), max_size=300)),
                    dtype=np.int64)
    _assert_stable_argsort(keys, bound)


def test_stable_argsort_refuses_keys_that_would_overflow():
    with pytest.raises(AssertionError, match="overflow"):
        latp._stable_argsort(np.zeros(4, dtype=np.int64), 1 << 62)


@pytest.mark.parametrize("call", [
    lambda: sample_arrivals(constant_intensity(1e300, 1.0), 0),
    lambda: streams.candidate_batch(streams.substream(0, 3), math.inf, 1.0),
    lambda: streams.candidate_batch(streams.substream(0, 3), math.nan, 1.0),
    lambda: streams.replica_candidates(0, 3, 2, 1e300, 1.0),
    lambda: streams.replica_candidates(0, 3, 2, 2e12, 1.0),
], ids=["sampler-1e300", "batch-inf", "batch-nan", "replicas-1e300",
        "replicas-above-cap"])
def test_streams_refuse_a_mean_count_above_the_cap(call):
    # numpy's Poisson sampler would die with "lam value too large"
    with pytest.raises(ConfigError, match="candidates, above the"):
        call()


KEY_WORD_MAX = 2 ** 32 - 1


@pytest.mark.parametrize("seed", [0, 1, KEY_WORD_MAX])
def test_philox_keys_match_seed_sequence(seed):
    indices = [0, 1, 2 ** 31, KEY_WORD_MAX]
    for kind in range(5):
        keys = streams.philox_keys(seed, kind, indices)
        assert keys.dtype == np.uint64 and keys.shape == (4, 2)
        for r, key in zip(indices, keys):
            want = np.random.SeedSequence((seed, kind, r)).generate_state(2, np.uint64)
            assert np.array_equal(key, want)
        # the batched draw reads those keys, up to the last index
        got = streams.replica_candidates(seed, kind, 2, 1.5, 1.0,
                                         start=KEY_WORD_MAX - 1)
        for q, r in enumerate((KEY_WORD_MAX - 1, KEY_WORD_MAX)):
            want = streams.candidate_batch(streams.substream(seed, kind, r), 1.5, 1.0)
            lo, hi = got[2][:q].sum(), got[2][:q + 1].sum()
            assert got[0][lo:hi].tobytes() == want[0].tobytes()
            assert got[1][lo:hi].tobytes() == want[1].tobytes()


KEY_WORD = st.one_of(st.sampled_from([0, KEY_WORD_MAX]),
                     st.integers(0, KEY_WORD_MAX))


@settings(max_examples=300, deadline=None)
@given(seed=KEY_WORD, kind=KEY_WORD,
       indices=st.lists(KEY_WORD, min_size=1, max_size=4))
def test_key_words_match_seed_sequence(seed, kind, indices):
    # one routine on Python ints and on uint32 arrays
    batch = streams._key_words(seed, kind, np.array(indices, dtype=np.uint32))
    assert all(w.dtype == np.uint32 for w in batch)
    for q, index in enumerate(indices):
        want = np.random.SeedSequence((seed, kind, index))
        words = streams._key_words(seed, kind, index)
        assert all(type(w) is int for w in words)
        assert list(words) == want.generate_state(4).tolist()
        assert [int(w[q]) for w in batch] == list(words)
        assert streams._key(seed, kind, index) == \
            want.generate_state(2, np.uint64).tolist()


@pytest.mark.parametrize("call", [
    lambda: streams.philox_keys(-1, 0, [0]),
    lambda: streams.philox_keys(2 ** 32, 0, [0]),
    lambda: streams.philox_keys(True, 0, [0]),
    lambda: streams.philox_keys(0.5, 0, [0]),
    lambda: streams.philox_keys(0, -1, [0]),
    lambda: streams.philox_keys(0, 2 ** 32, [0]),
    lambda: streams.philox_keys(0, 0, [-1]),
    lambda: streams.philox_keys(0, 0, [2 ** 32]),
    lambda: streams.replica_candidates(0, 3, 2, 1.0, 1.0, start=KEY_WORD_MAX),
    lambda: streams.replica_candidates(-1, 3, 2, 0.0, 1.0),
    lambda: streams.replica_candidates(0, 3, -1, 1.0, 1.0),
    lambda: streams.substream(1.5, 3, 0),
    lambda: streams.substream(0, True, 0),
    lambda: streams.substream(0, 3, -1),
    lambda: streams.substream(0, 3, 2 ** 32),
    lambda: streams.stream_candidates(2 ** 32, 3, 0, 1.0, 1.0),
    lambda: streams.stream_candidates(0, 3, 1.0, 1.0, 1.0),
    lambda: streams.stream_candidates(0, -1, 0, 1.0, 1.0),
    lambda: streams.stream_candidates(0, 3, -1, 0.0, 1.0),
    lambda: streams.tagged_candidates(True, 0, 1.0, 1.0),
], ids=["seed-neg", "seed-big", "seed-bool", "seed-float", "kind-neg",
        "kind-big", "index-neg", "index-big", "last-index-big",
        "zero-rate-seed-neg", "count-neg", "substream-seed-float",
        "substream-kind-bool", "substream-index-neg", "substream-index-big",
        "stream-seed-big", "stream-index-float", "stream-kind-neg",
        "zero-rate-stream-index-neg", "tagged-seed-bool"])
def test_stream_keys_refuse_words_outside_uint32(call):
    with pytest.raises(ConfigError, match="must be"):
        call()


@pytest.mark.parametrize("key", [
    dict(seed=1.5), dict(seed=True), dict(seed=2 ** 32), dict(seed=-1),
    dict(seed=0, replica=-1), dict(seed=0, replica=2 ** 32),
    dict(seed=0, replica=1.0),
], ids=["seed-float", "seed-bool", "seed-big", "seed-neg", "replica-neg",
        "replica-big", "replica-float"])
@pytest.mark.parametrize("label", ["const2", "zero"])
def test_sample_arrivals_refuses_bad_stream_keys(label, key):
    # a float or boolean seed is not truncated to a valid one, and a zero
    # kernel, which draws nothing, checks its key all the same
    with pytest.raises(ConfigError, match="must be an integer in"):
        sample_arrivals(shipped_omegas(1.0)[label], **key)


STREAM_KINDS = [streams.GLOBAL, streams.BULK, streams.TAGGED, streams.LATP,
                streams.ASSIGN]


@settings(max_examples=150, deadline=None)
@given(seed=KEY_WORD, kind=st.sampled_from(STREAM_KINDS), index=KEY_WORD,
       rate=st.sampled_from([0.0, 0.5, 50.0]),
       horizon=st.sampled_from([1.0, 0.3]))
def test_stream_candidates_match_substream(seed, kind, index, rate, horizon):
    # a generator built before the call keeps its own state: the shared
    # generator that stream_candidates re-keys is never handed out
    held = streams.substream(seed, kind, index)
    head = held.random(3)
    got = streams.stream_candidates(seed, kind, index, rate, horizon)
    tail = held.random(3)
    fresh = streams.substream(seed, kind, index).random(6)
    assert np.concatenate([head, tail]).tobytes() == fresh.tobytes()
    rng = streams.substream(seed, kind, index)
    want = streams.candidate_batch(rng, rate, horizon)
    assert len(got) == 2
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    # picks: the stream's next n uniforms after the marks
    times, marks, picks = streams.stream_candidates(seed, kind, index, rate,
                                                    horizon, picks=True)
    assert times.tobytes() == want[0].tobytes()
    assert marks.tobytes() == want[1].tobytes()
    assert picks.tobytes() == rng.random(len(want[0])).tobytes()
    if rate == 0.0:
        assert len(times) == len(marks) == len(picks) == 0


@pytest.mark.parametrize("label", ["rate0"] + sorted(shipped_omegas(1.0)))
def test_replica_candidates_match_substream_loop(label):
    rate = (0.0 if label == "rate0"
            else ENVELOPE_MARGIN * shipped_omegas(1.0)[label].sup_norm)
    seed, count, start = 7, 400, 5
    times, marks, counts = streams.replica_candidates(
        seed, streams.LATP, count, rate, 1.0, start=start)
    assert counts.dtype == np.int64 and len(counts) == count
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for q in range(count):
        rng = streams.substream(seed, streams.LATP, start + q)
        want_t, want_m = streams.candidate_batch(rng, rate, 1.0)
        got = slice(offsets[q], offsets[q + 1])
        assert times[got].tobytes() == want_t.tobytes()
        assert marks[got].tobytes() == want_m.tobytes()
    assert offsets[-1] == len(times) == len(marks)
    if rate == 0.0:
        assert len(times) == 0


def test_zero_rate_replicas_check_their_keys_but_derive_none(monkeypatch):
    def derived(*args):
        raise AssertionError("a zero rate derived keys")

    monkeypatch.setattr(streams, "philox_keys", derived)
    times, marks, counts = streams.replica_candidates(
        0, streams.LATP, 10_000, 0.0, 1.0)
    assert len(times) == len(marks) == 0 and counts.tolist() == [0] * 10_000
    for call in (
            lambda: streams.replica_candidates(0, 3, 2, 0.0, 1.0,
                                               start=KEY_WORD_MAX),
            lambda: streams.replica_candidates(0, 3, 1, 0.0, 1.0, start=-1),
            lambda: streams.replica_candidates(0, 3, 1, 0.0, 1.0, start=1.0),
            lambda: streams.replica_candidates(0, 2 ** 32, 1, 0.0, 1.0),
            lambda: streams.replica_candidates(True, 3, 1, 0.0, 1.0),
            lambda: streams.replica_candidates(0, 3, 2.0, 0.0, 1.0),
            lambda: streams.replica_candidates(0, 3, -1, 0.0, 1.0)):
        with pytest.raises(ConfigError, match="must be"):
            call()
    # an empty range has no index to refuse
    assert len(streams.replica_candidates(0, 3, 0, 0.0, 1.0,
                                          start=2 ** 32)[2]) == 0


# mean counts rate * horizon: the whole-array pass, with one counter block
# or several, up to just below POISSON_MULT_MAX, and the re-keyed loop
# from it on
MEAN_COUNTS = [1e-3, 0.5, 2.1, 9.99, 10.0, 25.0]


@settings(max_examples=120, deadline=None)
@given(seed=KEY_WORD, kind=st.sampled_from(STREAM_KINDS), start=KEY_WORD,
       count=st.integers(0, 64), lam=st.sampled_from(MEAN_COUNTS),
       horizon=st.sampled_from([1.0, 0.3]))
def test_replica_candidates_match_substream_loop_at_any_mean(
        seed, kind, start, count, lam, horizon):
    start = min(start, KEY_WORD_MAX + 1 - count)
    rate = lam / horizon
    times, marks, counts = streams.replica_candidates(
        seed, kind, count, rate, horizon, start=start)
    assert counts.dtype == np.int64 and len(counts) == count
    offsets = np.concatenate([[0], np.cumsum(counts)])
    assert offsets[-1] == len(times) == len(marks)
    for q in range(count):
        rng = streams.substream(seed, kind, start + q)
        want_t, want_m = streams.candidate_batch(rng, rate, horizon)
        got = slice(offsets[q], offsets[q + 1])
        assert times[got].tobytes() == want_t.tobytes()
        assert marks[got].tobytes() == want_m.tobytes()


PHILOX_KEYS = np.array([
    [0, 0], [1, 2], [0x0123456789ABCDEF, 0xFEDCBA9876543210],
    # the first key bump wraps both words, and later bumps wrap one
    [2 ** 64 - 1, 2 ** 64 - 5], [2 ** 64 - 0x9E3779B97F4A7C15, 2 ** 63]],
    dtype=np.uint64)


@pytest.mark.parametrize("counter", [1, 2, 3, 7, 1000, 2 ** 40, 2 ** 64 - 1])
def test_philox_block_matches_numpy(counter):
    keys = np.concatenate([PHILOX_KEYS,
                           streams.philox_keys(5, streams.LATP, [0, 1, 2 ** 31])])
    words = streams._philox_block(keys, counter)
    assert all(w.dtype == np.uint64 and w.shape == (len(keys),) for w in words)
    for q, key in enumerate(keys):
        # a Philox at counter c - 1 bumps it to c for its next block
        want = np.random.Philox(key=key, counter=counter - 1).random_raw(4)
        assert [int(w[q]) for w in words] == want.tolist()


def test_replica_candidates_loop_only_from_the_poisson_threshold(monkeypatch):
    # below POISSON_MULT_MAX no stream re-keys the shared generator
    def rekeyed(key):
        raise AssertionError("a stream was re-keyed")

    monkeypatch.setattr(streams, "_rekeyed", rekeyed)
    below = np.nextafter(streams.POISSON_MULT_MAX, 0.0)
    assert len(streams.replica_candidates(3, streams.LATP, 50, below, 1.0)[2]) == 50
    with pytest.raises(AssertionError, match="re-keyed"):
        streams.replica_candidates(3, streams.LATP, 50,
                                   streams.POISSON_MULT_MAX, 1.0)


@pytest.mark.parametrize("lam", MEAN_COUNTS)
def test_replica_candidates_one_stream_wraps_without_warning(lam):
    # uint64 words wrap in every Philox round; on a one-lane array as on any
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        streams._philox_block(PHILOX_KEYS[3:4], 1)
        got = streams.replica_candidates(KEY_WORD_MAX, streams.LATP, 1, lam,
                                         1.0, start=KEY_WORD_MAX)
    want = streams.candidate_batch(
        streams.substream(KEY_WORD_MAX, streams.LATP, KEY_WORD_MAX), lam, 1.0)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("size", [latp.REPLICA_BLOCK, 1000])
def test_replica_blocks_match_substream(size):
    # every row of a block is its replica's substream drawn alone; blocks of
    # interleaved seeds and rates, more than the cache holds, are evicted and
    # drawn again; a block size that does not divide 2**32 stops the last
    # block at the last index
    assert latp._replica_block.cache_info().maxsize <= 4
    last = KEY_WORD_MAX // size
    for _ in range(2):
        for block in (0, 1, last):
            for seed, rate in ((0, 2.1), (KEY_WORD_MAX, 50.0), (5, 0.0)):
                times, marks, edges = latp._replica_block(seed, block, size,
                                                          rate, 0.7)
                lo = block * size
                assert len(edges) - 1 == min(size, KEY_WORD_MAX + 1 - lo)
                for a in (times, marks, edges):
                    assert not a.flags.writeable
                for q in range(len(edges) - 1):
                    want = streams.candidate_batch(
                        streams.substream(seed, streams.LATP, lo + q), rate, 0.7)
                    got = slice(edges[q], edges[q + 1])
                    assert times[got].tobytes() == want[0].tobytes()
                    assert marks[got].tobytes() == want[1].tobytes()
    assert lo + len(edges) - 1 == KEY_WORD_MAX + 1


@pytest.mark.parametrize("rate, size", [
    (2.0, latp.REPLICA_BLOCK),
    (streams.POISSON_MULT_MAX / ENVELOPE_MARGIN, 1), (2000.0, 1)])
def test_replica_blocks_hold_one_replica_from_the_poisson_threshold(
        rate, size, monkeypatch):
    # from a mean count of POISSON_MULT_MAX on the streams are drawn one at
    # a time anyway, so a block holds one replica and no other replica's
    # many candidates; each replica's arrivals are its substream's thinned
    # either way, in the first, last and inner rows of a block
    drawn_counts = []

    def counted(seed, kind, count, *args, **kw):
        drawn_counts.append(count)
        return replica_candidates(seed, kind, count, *args, **kw)

    replica_candidates = streams.replica_candidates
    omega = constant_intensity(rate, 1.0)
    envelope = ENVELOPE_MARGIN * omega.sup_norm
    replicas = (0, 1023, 1500, KEY_WORD_MAX)
    latp._replica_block.cache_clear()
    monkeypatch.setattr(streams, "replica_candidates", counted)
    got = [sample_arrivals(omega, 3, r).times for r in replicas]
    latp._replica_block.cache_clear()
    assert drawn_counts == [size] * len({r // size for r in replicas})
    for r, times in zip(replicas, got):
        want, marks = streams.candidate_batch(
            streams.substream(3, streams.LATP, r), envelope, 1.0)
        assert times.tobytes() == want[marks < rate].tobytes()


@pytest.mark.parametrize("key", [dict(seed=True), dict(seed=1.0),
                                 dict(seed=1, replica=1.0)],
                         ids=["seed-bool", "seed-float", "replica-float"])
def test_sample_arrivals_refuses_keys_equal_to_a_cached_block(key):
    # the cache would take True and 1.0 for 1: the words are checked first
    omega = shipped_omegas(1.0)["const2"]
    sample_arrivals(omega, seed=1, replica=1)
    assert latp._replica_block.cache_info().currsize >= 1
    with pytest.raises(ConfigError, match="must be an integer in"):
        sample_arrivals(omega, **key)


def test_sample_arrivals_any_walk_order_gives_the_same_bytes():
    omega = shipped_omegas(1.0)["one_plus_s"]
    replicas = list(range(3000)) + [KEY_WORD_MAX - 1, KEY_WORD_MAX]
    forward = {r: sample_arrivals(omega, 11, r).times.tobytes()
               for r in replicas}
    shuffled = list(replicas)
    np.random.default_rng(0).shuffle(shuffled)
    for order in (replicas[::-1], shuffled):
        latp._replica_block.cache_clear()
        for r in order:
            assert sample_arrivals(omega, 11, r).times.tobytes() == forward[r]


# flow_affine at z = 0 and 1, the edges of its s == 0 branch, and an
# affine kernel with slope 0
SAMPLER_KERNELS = dict(shipped_omegas(1.0), elapsed=elapsed_intensity(1.0),
                       flow_affine_z0=flow_pullback_affine(0.6, 0.9, 0.0, 1.0),
                       flow_affine_z1=flow_pullback_affine(0.6, 0.9, 1.0, 1.0),
                       affine_slope0=last_arrival_affine(1.5, 0.0, 1.0))


@pytest.mark.parametrize("chunk", [latp.REPLICA_CHUNK, 97])
@pytest.mark.parametrize("label", sorted(SAMPLER_KERNELS))
def test_sample_replicas_matches_sample_arrivals(label, chunk, monkeypatch):
    # a small chunk puts the 1000 replicas in several thinning passes
    monkeypatch.setattr(latp, "REPLICA_CHUNK", chunk)
    omega, seed, reps = SAMPLER_KERNELS[label], 4, 1000
    times, offsets = sample_replicas(omega, seed, reps)
    assert len(offsets) == reps + 1 and offsets[0] == 0
    assert offsets[-1] == len(times)
    for r in range(reps):
        want = sample_arrivals(omega, seed=seed, replica=r).times
        assert times[offsets[r]:offsets[r + 1]].tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [latp.REPLICA_CHUNK, 7])
def test_sample_replicas_breach_is_the_replica_loop_first(chunk, monkeypatch):
    # the hazard exceeds the declared sup-norm only after a late arrival,
    # so the first breach is neither in replica 0 nor at its first candidate
    monkeypatch.setattr(latp, "REPLICA_CHUNK", chunk)
    lying = LatpIntensity(lambda s, t: 1.0 + 4.0 * s + 0.0 * t, 1.0,
                          sup_norm=3.0, label="lying")
    first = None
    for r in range(200):
        try:
            sample_arrivals(lying, seed=2, replica=r)
        except EnvelopeBreach as exc:
            first = r, str(exc)
            break
    assert first is not None and first[0] > 0
    with pytest.raises(EnvelopeBreach) as exc:
        sample_replicas(lying, 2, 200)
    assert exc.value.owner == first[0]
    assert str(exc.value) == f"replica {first[0]}: {first[1]}"


def test_sample_replicas_keeps_arrival_sequence_invariant(monkeypatch):
    def tied(seed, kind, count, rate, horizon, start=0):
        counts = np.zeros(count, dtype=np.int64)
        counts[1] = 2
        return np.array([0.3, 0.3]), np.zeros(2), counts

    monkeypatch.setattr(streams, "replica_candidates", tied)
    with pytest.raises(ConfigError, match="strictly increasing"):
        sample_replicas(constant_intensity(1.0, 1.0), 0, 3)


@pytest.mark.parametrize("replicas, message", [
    (-1, "replicas: must be >= 0, got -1"),
    (True, "replicas: must be an integer, got True"),
    (False, "replicas: must be an integer, got False"),
    (2.0, "replicas: must be an integer, got 2.0"),
    (None, "replicas: must be an integer, got None"),
    ("2", "replicas: must be an integer, got '2'"),
    (np.float64(2.0), f"replicas: must be an integer, got {np.float64(2.0)!r}"),
], ids=["neg", "true", "false", "float", "none", "str", "np-float"])
def test_sample_replicas_refuses_a_bad_replica_count(replicas, message):
    with pytest.raises(ConfigError) as exc:
        sample_replicas(constant_intensity(2.0, 1.0), 0, replicas)
    assert str(exc.value) == message


@pytest.mark.parametrize("seed", [-1, 2 ** 32, 1.5, True, None])
@pytest.mark.parametrize("replicas", [0, 3])
def test_sample_replicas_refuses_a_bad_seed_up_front(seed, replicas):
    # zero replicas draw nothing, and refuse the seed all the same
    with pytest.raises(ConfigError, match="seed: must be an integer in"):
        sample_replicas(constant_intensity(2.0, 1.0), seed, replicas)


def test_sample_replicas_accepts_a_numpy_replica_count():
    times, offsets = sample_replicas(constant_intensity(2.0, 1.0), 4,
                                     np.int64(5))
    want, _ = sample_replicas(constant_intensity(2.0, 1.0), 4, 5)
    assert len(offsets) == 6 and times.tobytes() == want.tobytes()


def drawn(times):
    # a _replica_block whose every replica has these times, each with mark 0
    def block(seed, block, size, envelope, horizon):
        return (np.array(times * size), np.zeros(len(times) * size),
                np.arange(size + 1) * len(times))
    return block


@pytest.mark.parametrize("times", [[0.3, 0.3], [0.3, math.nan], [0.0, 0.5]],
                         ids=["tied", "nan", "zero"])
def test_sample_arrivals_keeps_arrival_sequence_invariant(times, monkeypatch):
    # the twin of the sample_replicas refusals: every candidate is accepted
    def batch(seed, kind, count, rate, horizon, start=0):
        return np.array(times), np.zeros(len(times)), np.array([len(times)])

    monkeypatch.setattr(latp, "_replica_block", drawn(times))
    monkeypatch.setattr(streams, "replica_candidates", batch)
    with pytest.raises(ConfigError) as exc:
        sample_arrivals(constant_intensity(1.0, 1.0), 0)
    assert str(exc.value) == "times must be strictly increasing in (0, horizon]"
    with pytest.raises(ConfigError) as batched:
        sample_replicas(constant_intensity(1.0, 1.0), 0, 1)
    assert str(batched.value) == str(exc.value)


def test_sample_arrivals_breach_text(monkeypatch):
    # the hazard breaches the envelope after the arrival at 0.2
    monkeypatch.setattr(latp, "_replica_block", drawn([0.2, 0.5]))
    lying = LatpIntensity(lambda s, t: 1.0 + 4.0 * s + 0.0 * t, 1.0,
                          sup_norm=1.5, label="lying")
    with pytest.raises(EnvelopeBreach) as exc:
        sample_arrivals(lying, 0)
    envelope = ENVELOPE_MARGIN * 1.5
    assert str(exc.value) == (f"lying: hazard 1.8 above envelope {envelope} "
                              "at (s=0.2, t=0.5)")
    # the breach record names the replica and its last arrival
    with pytest.raises(EnvelopeBreach) as exc:
        sample_arrivals(lying, 0, replica=7)
    e = exc.value
    assert (e.owner, e.last, e.time, e.hazard) == (7, 0.2, 0.5, 1.8)


def test_arrival_sequence_must_increase():
    for times in ([0.2, 0.2], [0.2, 0.1], [0.1, 0.5, 0.4], [0.0, 0.5], [-0.1],
                  [0.5, 1.5], [0.3, np.inf], [-np.inf, 0.5]):
        with pytest.raises(ConfigError, match="strictly increasing in"):
            ArrivalSequence(times=np.array(times), horizon=1.0)


@pytest.mark.parametrize("times", [[0.5, np.nan, 0.7], [np.nan], [0.2, np.nan]],
                         ids=["middle", "alone", "last"])
def test_arrival_sequence_refuses_nan(times):
    with pytest.raises(ConfigError, match="strictly increasing in"):
        ArrivalSequence(times=np.array(times), horizon=1.0)


def test_sample_replicas_refuses_nan_arrival(monkeypatch):
    def with_nan(seed, kind, count, rate, horizon, start=0):
        counts = np.zeros(count, dtype=np.int64)
        counts[1] = 2
        return np.array([0.3, np.nan]), np.zeros(2), counts

    monkeypatch.setattr(streams, "replica_candidates", with_nan)
    with pytest.raises(ConfigError, match="strictly increasing"):
        sample_replicas(constant_intensity(1.0, 1.0), 0, 3)


def nan_after_half():
    # a hazard of 1 up to t = 0.5 and NaN after it
    return LatpIntensity(lambda s, t: np.where(t > 0.5, np.nan, 1.0 + 0.0 * s),
                         1.0, sup_norm=1.0, label="nan-after-half")


def test_sample_arrivals_reads_a_nan_hazard_as_a_breach():
    omega = nan_after_half()
    envelope = ENVELOPE_MARGIN * omega.sup_norm
    # the first replica with a candidate after t = 0.5
    first = next(r for r in range(100)
                 if max(streams.stream_candidates(9, streams.LATP, r, envelope,
                                                  1.0)[0], default=0.0) > 0.5)
    for r in range(first):
        sample_arrivals(omega, seed=9, replica=r)
    with pytest.raises(EnvelopeBreach, match="hazard nan above envelope") as exc:
        sample_arrivals(omega, seed=9, replica=first)
    with pytest.raises(EnvelopeBreach) as batched:
        sample_replicas(omega, 9, first + 1)
    assert batched.value.owner == first
    assert str(batched.value) == f"replica {first}: {exc.value}"


def test_thin_last_arrival_reads_a_nan_hazard_as_a_breach():
    # owner 1's second candidate is the earliest NaN in stream order
    times = np.array([0.1, 0.2, 0.3, 0.4])
    owners = np.array([0, 1, 1, 0])
    marks = np.zeros(4)

    def hazard(o, last, t):
        return np.where((o == 1) & (t > 0.25) | (t > 0.35), np.nan, 1.0)

    with pytest.raises(EnvelopeBreach) as exc:
        thin_last_arrival(times, owners, marks, 2, hazard, 2.0)
    assert (exc.value.owner, exc.value.time, exc.value.last) == (1, 0.3, 0.2)
    assert math.isnan(exc.value.hazard)


def test_survival_solve_refuses_a_nan_hazard():
    with pytest.raises(ConfigError, match="NaN"):
        survival_solve(nan_after_half(), np.linspace(0.0, 1.0, 41))


def test_survival_series_refuses_a_non_finite_sum():
    with pytest.raises(ConfigError, match=r"nan-after-half: .*\(0.2, 0.8\)"):
        survival_series(nan_after_half(), 0.2, 0.8, step=1 / 40)
    # up to t = 0.5 the hazard is 1, and the series reads nothing beyond t
    assert survival_series(nan_after_half(), 0.2, 0.4, step=1 / 40) == \
        survival_series(constant_intensity(1.0, 1.0), 0.2, 0.4, step=1 / 40)


@pytest.mark.parametrize("at", [(0, 5), (3, 3), (7, 10)],
                         ids=["first-row", "diagonal", "corner"])
def test_survival_table_refuses_nan_on_or_above_the_diagonal(at):
    tab = survival_solve(constant_intensity(1.0, 1.0), np.linspace(0, 1, 11))
    assert np.isnan(tab.p[5, 0])  # below the diagonal NaN is the rule
    broken = tab.p.copy()
    broken[at] = np.nan
    with pytest.raises(ConfigError, match="NaN"):
        dataclasses.replace(tab, p=broken)


@pytest.mark.parametrize("horizon", [np.nan, np.inf, 0.0])
def test_latp_intensity_refuses_horizon(horizon):
    with pytest.raises(ConfigError, match="positive and finite"):
        constant_intensity(1.0, horizon)


def test_arrival_sequence_accepts_increasing_times():
    for times in ([], [1.0], [0.1, 0.2, 1.0]):
        seq = ArrivalSequence(times=np.array(times, dtype=float), horizon=1.0)
        assert seq.times.tolist() == times and not seq.times.flags.writeable
    with pytest.raises(ConfigError, match="one-dimensional"):
        ArrivalSequence(times=np.zeros((1, 1)), horizon=1.0)


def test_arrival_sequence_refuses_a_scalar():
    with pytest.raises(ConfigError, match="one-dimensional"):
        ArrivalSequence(times=0.5, horizon=1.0)


def test_arrival_sequence_leaves_the_callers_array_alone():
    a = np.array([0.5])
    seq = ArrivalSequence(times=a, horizon=1.0)
    assert a.flags.writeable and seq.times is not a
    a[0] = 0.7
    assert seq.times.tolist() == [0.5]


def test_constant_kernel_is_a_float_on_scalars_and_broadcasts_on_arrays():
    fn = constant_intensity(2, 1.0)._fn
    for s, t in ((0.25, 0.5), (0, 1), (np.float64(0.1), 0.7)):
        out = fn(s, t)
        assert type(out) is float and out == 2.0
    out = fn(np.zeros(3), np.zeros((2, 1)))
    assert out.shape == (2, 3) and out.dtype == float and np.all(out == 2.0)
    assert fn(0.0, np.linspace(0, 1, 4)).shape == (4,)
    assert fn(np.zeros(()), 0.5).shape == ()
    assert constant_intensity(2, 1.0)(0.25, 0.5) == 2.0


@pytest.mark.parametrize("s", [0.0, 0.25])
def test_flow_pullback_kernel_has_one_set_of_bits(s):
    # one expression serves Python floats, 0-d and n-d arrays, and a scalar
    # call has the bits of its branch's formula on Python floats
    base, slope, z = 0.6, 0.9, 0.3
    fn = flow_pullback_affine(base, slope, z, 1.0)._fn
    ts = np.linspace(s, 1.0, 41)
    vec = np.asarray(fn(np.full((41, 1), s), np.stack([ts, ts], axis=1)))
    assert vec.shape == (41, 2) and np.array_equal(vec[:, 0], vec[:, 1])
    for t, want in zip(ts.tolist(), vec[:, 0]):
        if s == 0.0:
            old = base + slope * (1.0 - (1.0 - z) * float(np.exp(-t)))
        else:
            old = base + slope * (1.0 - float(np.exp(-(t - s))))
        for got in (fn(s, t), fn(np.array(s), np.array(t))):
            assert float(got) == old
            assert np.float64(got).tobytes() == want.tobytes()


def test_solve_zero():
    tab = survival_solve(zero_intensity(1.0), GRID)
    iu = np.triu_indices(len(GRID))
    assert np.all(tab.p[iu] == 1.0)
    assert np.all(tab.f == 0.0)


def test_solve_constant_closed_form():
    tab = survival_solve(constant_intensity(2.0, 1.0), GRID)
    h = tab.step
    assert tab.p[0, 100] == pytest.approx(math.exp(-1.0), abs=5 * h ** 2)
    # interior start: p(s, t) = exp(-c (t - s))
    assert tab.p[60, 160] == pytest.approx(math.exp(-1.0), abs=5 * h ** 2)


def test_solve_rejects_bad_grids():
    om = constant_intensity(1.0, 1.0)
    with pytest.raises(DomainError):
        survival_solve(om, np.array([0.0, 0.1, 0.3]))
    with pytest.raises(DomainError):
        survival_solve(om, np.array([0.1, 0.2, 0.3]))


def test_series_kmax0_is_no_arrival_term():
    om = last_arrival_affine(1.0, 1.0, 1.0)
    val = survival_series(om, 0.5, 1.0, kmax=0, step=1e-3)
    assert val == pytest.approx(math.exp(-1.0), abs=1e-9)  # Omega(0,1) = 1


@pytest.mark.parametrize("arg, value", [
    ("step", 0.0), ("step", -0.1), ("step", math.inf), ("step", math.nan),
    ("step", True), ("kmax", True), ("kmax", False), ("kmax", 2.5), ("kmax", -1),
])
def test_series_refuses_bad_step_and_kmax(arg, value):
    # a negative or infinite step once returned 0.4060 for const2 at
    # (0.5, 1.0), whose value is e^-1, and kmax=True ran as kmax=1
    om = constant_intensity(2.0, 1.0)
    with pytest.raises(DomainError, match=f"^{arg}: "):
        survival_series(om, 0.5, 1.0, **{arg: value})


def test_series_constant_total_mass():
    # sum over k of P(k arrivals by s, none after) at t = s is 1
    om = constant_intensity(1.0, 1.0)
    val = survival_series(om, 0.5, 0.5, kmax=30, step=1 / 400)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_series_constant_truncation_negligible():
    # the k-truncation bound (||omega|| s)^(kmax+1)/(kmax+1)! is sub-1e-12
    # at kmax = 30, so the residual error is pure quadrature, O(step^2)
    c, s = 1.0, 0.5
    assert (c * s) ** 31 / math.factorial(31) < 1e-12
    om = constant_intensity(c, 1.0)
    for step, tol in ((1e-2, 5e-6), (1e-3, 5e-8)):
        val = survival_series(om, s, s, kmax=30, step=step)
        assert abs(val - 1.0) <= 1e-12 + tol


@pytest.mark.parametrize("nx", [1, 2, 3, 7, 401])
def test_trapezoid_weights_match_row_loop(nx):
    for h in (1.0, 1 / 400, 0.3 / 7, 2.5e-3):
        got = latp._trapezoid_weights(nx, h)
        assert got.tobytes() == loop_trapezoid_weights(nx, h).tobytes()


def test_series_constant_closed_form():
    om = constant_intensity(1.0, 1.0)
    val = survival_series(om, 0.5, 1.0, kmax=20, step=1 / 2000)
    assert val == pytest.approx(math.exp(-0.5), abs=1e-8)


@pytest.mark.parametrize("make", [
    lambda: constant_intensity(2.0, 1.0),
    lambda: last_arrival_affine(1.0, 1.0, 1.0),
    lambda: flow_pullback_affine(0.6, 0.9, 0.3, 1.0),
], ids=["const2", "one_plus_s", "flow_affine"])
def test_series_matches_solve(make):
    om = make()
    grid = np.linspace(0, 1, 401)
    tab = survival_solve(om, grid)
    h = tab.step
    for i, j in [(0, 400), (0, 200), (100, 300), (200, 400), (160, 160)]:
        ref = survival_series(om, grid[i], grid[j], kmax=25, step=h)
        assert abs(tab.p[i, j] - ref) <= 1e-5 + 5 * h ** 2


def test_table_monotonicity_exact():
    om = flow_pullback_affine(0.6, 0.9, 0.3, 1.0)
    tab = survival_solve(om, GRID)
    m = len(GRID)
    for i in range(m):
        row = tab.p[i, i:]
        assert np.all(np.diff(row) <= 1e-12)
    for j in range(m):
        col = tab.p[: j + 1, j]
        assert np.all(np.diff(col) >= -1e-12)
    assert np.all(np.diag(tab.p) == 1.0)


def test_grid_convergence_second_order():
    # halving h cuts the gap to a fine reference by >= 3x
    for om in (last_arrival_affine(1.0, 1.0, 1.0),
               flow_pullback_affine(0.6, 0.9, 0.3, 1.0)):
        ref = survival_solve(om, np.linspace(0, 1, 3201))
        errs = []
        for m in (100, 200):
            tab = survival_solve(om, np.linspace(0, 1, m + 1))
            stride = 3200 // m
            sub = ref.p[::stride, ::stride]
            iu = np.triu_indices(m + 1)
            errs.append(np.max(np.abs(tab.p[iu] - sub[iu])))
        assert errs[0] / errs[1] >= 3.0


def test_sampler_matches_solver_lattice():
    om = last_arrival_affine(1.0, 1.0, 1.0)
    tab = survival_solve(om, GRID)
    reps = 10_000
    nodes = [0, 50, 100, 150, 200]
    pairs = [(i, j) for i in nodes for j in nodes if j >= i]
    hits = np.zeros(len(pairs))
    for r in range(reps):
        arr = sample_arrivals(om, seed=3, replica=r)
        for q, (i, j) in enumerate(pairs):
            hits[q] += arr.no_arrival_in(GRID[i], GRID[j])
    for q, (i, j) in enumerate(pairs):
        p_hat = hits[q] / reps
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / reps)
        assert abs(p_hat - tab.p[i, j]) <= 4 * se + 5 * tab.step ** 2


def test_derivative_bounds_zero():
    tab = survival_solve(zero_intensity(1.0), GRID)
    rep = derivative_bound_check(tab, zero_intensity(1.0))
    assert rep.max_violation() <= 0.0


def test_derivative_bounds_constant():
    # -dp/dt = c p <= c exactly in the continuum
    om = constant_intensity(2.0, 1.0)
    tab = survival_solve(om, GRID)
    rep = derivative_bound_check(tab, om)
    tol = 2.0 * tab.step * (1 + om.sup_norm) ** 2
    assert rep.max_violation() <= tol


def test_derivative_bounds_one_plus_s():
    om = last_arrival_affine(1.0, 1.0, 1.0)
    tab = survival_solve(om, GRID)
    rep = derivative_bound_check(tab, om)
    tol = 2.0 * tab.step * (1 + om.sup_norm) ** 2
    assert rep.max_violation() <= tol


def test_derivative_bound_check_matches_loop_on_shipped_kernels():
    for om in shipped_omegas(1.0).values():
        tab = survival_solve(om, GRID)
        assert derivative_bound_check(tab, om) == \
            loop_derivative_bound_check(tab, om)


def _report_bytes(report):
    return np.array(dataclasses.astuple(report)).tobytes()


def test_derivative_bound_check_keeps_the_bytes_of_its_allocating_body():
    # the maxima read by monotone rounding, on the shipped kernels and on a
    # table holding a NaN, whose row and column are skipped
    cases = [(survival_solve(om, GRID), om) for om in shipped_omegas(1.0).values()]
    table, om = cases[2]
    p = table.p.copy()
    p[3, 7] = np.nan
    cases.append((SimpleNamespace(p=p, grid=GRID, step=table.step), om))
    for table, om in cases:
        assert _report_bytes(derivative_bound_check(table, om)) == \
            _report_bytes(allocating_derivative_bound_check(table, om))


def _raised(fn, *args):
    try:
        fn(*args)
    except ConfigError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_table_checks_match_loops_on_random_tables(data):
    m = data.draw(st.integers(0, 9))
    entry = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, np.nan]))
    if data.draw(st.booleans()):
        p = np.full((m, m), np.nan)
        iu = np.triu_indices(m, k=1)
        p[iu] = data.draw(st.lists(entry, min_size=len(iu[0]),
                                   max_size=len(iu[0])))
    else:
        # p[i, j] = q[i+1] * ... * q[j] passes both checks, up to one
        # entry moved by a drawn amount
        q = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m,
                                        max_size=m)))
        p = np.full((m, m), np.nan)
        for i in range(m):
            p[i, i:] = np.cumprod(np.r_[1.0, q[i + 1:]])
        i, j = sorted(data.draw(st.tuples(st.integers(0, max(m - 1, 0)),
                                          st.integers(0, max(m - 1, 0)))))
        if i < j:
            p[i, j] = min(1.0, max(0.0, p[i, j] + data.draw(
                st.floats(-1e-8, 1e-8))))
    np.fill_diagonal(p, 1.0)
    grid = np.linspace(0.0, 1.0, m)
    want = _raised(loop_survival_table_check, p)
    got = _raised(SurvivalTable, grid, p, np.zeros(m), 1.0)
    assert got == want
    sup = data.draw(st.floats(0.0, 5.0))
    table = SimpleNamespace(p=p, grid=grid, step=1.0 / max(m - 1, 1))
    omega = SimpleNamespace(sup_norm=sup)
    assert derivative_bound_check(table, omega) == \
        loop_derivative_bound_check(table, omega)
    assert _report_bytes(derivative_bound_check(table, omega)) == \
        _report_bytes(allocating_derivative_bound_check(table, omega))


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 6), k=st.integers(-3, 3), data=st.data())
def test_triangle_value_nodes_diagonal_cell_and_bilinear(m, k, data):
    # an upper-triangular table with a constant diagonal, as the survival
    # tables and bdry_phi have; a power-of-two step puts nodes exactly.
    # NaN below the diagonal: a value read from a lower entry would be NaN
    h = 2.0 ** k
    table = data.draw(arrays(float, (m + 1, m + 1),
                             elements=st.floats(0.0, 1.0)))
    np.fill_diagonal(table, data.draw(st.floats(0.0, 1.0)))
    table[np.tril_indices(m + 1, -1)] = np.nan

    i, j = np.triu_indices(m + 1)
    got = latp._triangle_value(table, h, m, i * h, j * h)
    # the last cell's node along t, reached by the diagonal cell's line:
    # exact up to rounding
    last = (i == m - 1) & (j == m)
    assert np.array_equal(got[~last], table[i, j][~last])
    assert got[last] == pytest.approx(table[m - 1, m], abs=1e-15)
    # a stack of tables leads the result, one row per table
    stacked = latp._triangle_value(np.stack([table, 0.5 * table]), h, m,
                                   i * h, j * h)
    assert stacked.shape == (2, len(i))
    assert stacked[0].tobytes() == got.tobytes()
    assert stacked[1].tobytes() == latp._triangle_value(
        0.5 * table, h, m, i * h, j * h).tobytes()
    # the diagonal cell: linear in t - s from the diagonal node
    i = data.draw(st.integers(0, m - 1))
    a, b = sorted(data.draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))))
    d = table[i, i]
    want = d - (d - table[i, i + 1]) * (b - a)
    got = latp._triangle_value(table, h, m, (i + a) * h, (i + b) * h)
    assert got == pytest.approx(want, abs=1e-12)
    # any other cell: bilinear in its four nodes
    if m >= 2:
        i, j = sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=2,
                                         max_size=2, unique=True)))
        offset = st.floats(0.0, 1.0, exclude_max=True)
        a, b = data.draw(offset), data.draw(offset)
        c = table[i:i + 2, j:j + 2]
        want = ((1 - a) * ((1 - b) * c[0, 0] + b * c[0, 1])
                + a * ((1 - b) * c[1, 0] + b * c[1, 1]))
        got = latp._triangle_value(table, h, m, (i + a) * h, (j + b) * h)
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 9)),
       per_interval=st.booleans(), data=st.data())
def test_cumulative_trapezoid_is_each_prefix_trapezoid(shape, per_interval, data):
    vals = data.draw(arrays(float, shape, elements=st.floats(-5.0, 5.0)))
    steps = data.draw(arrays(float, shape[1] - 1, elements=st.floats(0.01, 2.0)))
    h = steps if per_interval else data.draw(st.floats(0.01, 2.0))
    x = np.concatenate([[0.0], np.cumsum(np.broadcast_to(h, shape[1] - 1))])
    got = latp._cumulative_trapezoid(vals, h)
    assert got.shape == vals.shape and np.all(got[:, 0] == 0.0)
    assert got.tobytes() == allocating_cumulative_trapezoid(vals, h).tobytes()
    for j in range(1, shape[1]):
        want = np.trapezoid(vals[:, :j + 1], x[:j + 1], axis=-1)
        assert got[:, j] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_regularity_scan_shipped_kernels():
    # continuity by bounded grid finite differences; the flow pullback may
    # jump only at s = 0 (its initial row carries the starting position)
    h = 1.0 / 200
    for om, lip in ((constant_intensity(2.0, 1.0), 0.0),
                    (last_arrival_affine(1.0, 1.0, 1.0), 1.0),
                    (flow_pullback_affine(0.6, 0.9, 0.3, 1.0), 0.9)):
        excess, ds_mod, dt_mod = check_regularity(om, n=200)
        assert excess <= 1e-12
        assert ds_mod <= lip * h + 1e-12
        assert dt_mod <= lip * h + 1e-12


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_regularity_scan_matches_row_and_column_loops(n, data):
    # a tabulated kernel, NaN nodes included: a line holding NaN is skipped
    vals = data.draw(arrays(float, (n + 1, n + 1), elements=st.one_of(
        st.floats(0.0, 4.0), st.just(np.nan))))
    grid = np.linspace(0.0, 1.0, n + 1)

    def fn(s, t):
        return vals[np.rint(np.asarray(s) * n).astype(int),
                    np.rint(np.asarray(t) * n).astype(int)]

    om = LatpIntensity(fn, 1.0, sup_norm=2.0)
    excess, ds_mod, dt_mod = check_regularity(om, n)
    ss, tt = np.meshgrid(grid, grid, indexing="ij")
    want = loop_regularity_moduli(fn(np.minimum(ss, tt), tt))
    assert (ds_mod, dt_mod) == want


def test_regularity_rejects_negative_kernel():
    bad = LatpIntensity(lambda s, t: t - s - 0.5, 1.0, sup_norm=0.5)
    with pytest.raises(ConfigError):
        check_regularity(bad)


def test_survival_table_constructor_rejects_nonmonotone():
    tab = survival_solve(constant_intensity(1.0, 1.0), np.linspace(0, 1, 11))
    broken = tab.p.copy()
    broken[0, 5] = broken[0, 4] + 1e-3  # increase in t
    with pytest.raises(ConfigError):
        dataclasses.replace(tab, p=broken)


def volterra_case(m, seed, h, total, zeros=0.0):
    """Random nonnegative hazards, first-arrival densities and pre-arrival
    terms on m + 1 nodes, a share ``zeros`` of the hazards exactly 0."""
    rng = np.random.default_rng(seed)
    w = rng.exponential(2.0, (m + 1, m + 1))
    w[rng.random(w.shape) < zeros] = 0.0
    return w, rng.exponential(1.0, m + 1), rng.random(m + 1), h, total


def assert_volterra_bytes(w, b, pre, h, total):
    want = allocating_trapezoid_volterra(w, b, pre, h, total)
    f, p = _trapezoid_volterra(w, b, pre, h, total)
    assert f.tobytes() == want[0].tobytes()
    assert p.tobytes() == want[1].tobytes()
    out = np.full_like(w, np.nan)
    f, p = _trapezoid_volterra(w, b, pre, h, total, out=out)
    assert p is out and p.tobytes() == want[1].tobytes()
    # the solver's call: held work tables, the hazard table overwritten
    kern = w.copy()
    work = (np.full_like(w, np.nan), kern)
    out = np.full_like(w, np.nan)
    f, p = _trapezoid_volterra(kern, b, pre, h, total, out=out, work=work)
    assert f.tobytes() == want[0].tobytes()
    assert p is out and p.tobytes() == want[1].tobytes()


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       h=st.floats(1e-3, 0.1),
       total=st.floats(0.0, 3.0).filter(lambda x: x != 1.0),
       zeros=st.sampled_from([0.0, 0.3, 1.0]))
@example(m=1600, seed=7, h=1 / 1600, total=0.7, zeros=0.0)
def test_in_place_volterra_matches_allocating_solve(m, seed, h, total, zeros):
    assert_volterra_bytes(*volterra_case(m, seed, h, total, zeros))


def test_in_place_volterra_matches_allocating_solve_on_401_nodes():
    assert_volterra_bytes(*volterra_case(400, 7, 1 / 400, 0.7))
    grid = np.linspace(0.0, 1.0, 401)
    w, w0 = _hazard_rows(flow_pullback_affine(0.6, 0.9, 0.3, 1.0), grid)
    e0 = np.exp(-latp._cumulative_trapezoid(w0, 1 / 400))
    assert_volterra_bytes(w, w0 * e0, e0, 1 / 400, 1.0)


def test_in_place_volterra_matches_allocating_solve_on_nan():
    w, b, pre, h, total = volterra_case(30, 3, 0.02, 0.5)
    w[4, 9] = np.nan
    b[12] = np.nan
    assert_volterra_bytes(w, b, pre, h, total)
    f, p = _trapezoid_volterra(w, b, pre, h, total)
    assert np.isnan(f[12]) and np.isnan(p[13, 20])


@functools.cache
def series_kernels():
    """The shipped kernels, two kernels read along solved flows (affine and
    table fields), and one whose ``fn`` ignores s and returns one row."""
    kernels = dict(shipped_omegas(1.0))
    affine = affine_two_class_spec()
    table = spec_from_config({"horizon": 1.0, "classes": [{
        "weight": 1.0, "field": {"kind": "table",
                                 "values": [[0.6, 0.4, 0.2], [0.2, 0.4, 0.6]]}}]})
    for name, spec, z in (("tilde_affine", affine, 0.35),
                          ("tilde_table", table, 0.8)):
        sol = solve_y_c(spec, n_z=5, n_t=40)
        kernels[name] = tilde_w(sol.flow, spec.classes[0].field, z)
    kernels["t_only"] = LatpIntensity(lambda s, t: 1.0 + np.sin(3.0 * t), 1.0,
                                      sup_norm=2.0, label="t-only")
    return kernels


SERIES_KERNELS = ("zero", "const2", "one_plus_s", "flow_affine",
                  "tilde_affine", "tilde_table", "t_only")


def series_ends(s):
    """End times for a series from s: s itself, within 1e-12 of it on
    either side, or anywhere in [s, 1]."""
    near = st.floats(-1e-12, 1e-12).map(lambda d: min(1.0, max(0.0, s + d)))
    return st.one_of(st.just(s), near, st.floats(s, 1.0))


@pytest.mark.parametrize("label", SERIES_KERNELS)
def test_series_matches_full_hazard_rows_at_limit_lattice(label):
    # the 15 lattice pairs of the benchmark's limit workload, one call per
    # pair, and one call per start node over its end nodes, as
    # latp_validation makes them
    om = series_kernels()[label]
    grid = np.linspace(0.0, 1.0, 401)
    idx = np.linspace(0, 400, 5, dtype=int)
    for i in idx:
        ends = idx[idx >= i]
        want = np.array([full_survival_series(om, grid[i], grid[j], kmax=25,
                                              step=1 / 400) for j in ends])
        got = [survival_series(om, grid[i], grid[j], kmax=25, step=1 / 400)
               for j in ends]
        assert np.array(got).tobytes() == want.tobytes()
        got = survival_series(om, grid[i], grid[ends], kmax=25, step=1 / 400)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(label=st.sampled_from(SERIES_KERNELS),
       step=st.sampled_from([1 / 40, 0.013, 1 / 400, 2.5e-3]),
       kmax=st.sampled_from([0, 1, 4, 25]), data=st.data())
def test_series_at_many_end_times_matches_full_series_at_each(label, step,
                                                              kmax, data):
    om = series_kernels()[label]
    n = int(round(1 / step))
    s = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                            st.integers(0, n).map(
                                lambda k: float(np.linspace(0.0, 1.0, n + 1)[k]))),
                  label="s")
    ts = data.draw(st.lists(series_ends(s), min_size=1, max_size=4), label="ts")
    got = survival_series(om, s, ts, kmax=kmax, step=step)
    assert type(got) is np.ndarray and got.shape == (len(ts),)
    for t, value in zip(ts, got):
        one = survival_series(om, s, t, kmax=kmax, step=step)
        want = full_survival_series(om, s, t, kmax=kmax, step=step)
        assert type(one) is float
        assert value.tobytes() == np.float64(one).tobytes() == \
            np.float64(want).tobytes()
    # the one-element sequence is the scalar call
    assert survival_series(om, s, ts[:1], kmax=kmax,
                           step=step).tobytes() == got[:1].tobytes()


def test_series_at_no_end_time_is_empty():
    got = survival_series(constant_intensity(2.0, 1.0), 0.5, [])
    assert got.shape == (0,)


def test_series_names_the_end_time_of_a_nan_hazard():
    # the hazard is NaN past t = 0.5; the first end time past it is named
    with pytest.raises(ConfigError, match=r"nan-after-half: .*\(0.2, 0.8\)"):
        survival_series(nan_after_half(), 0.2, [0.3, 0.4, 0.8, 0.9],
                        step=1 / 40)
    got = survival_series(nan_after_half(), 0.2, [0.3, 0.4], step=1 / 40)
    want = survival_series(constant_intensity(1.0, 1.0), 0.2, [0.3, 0.4],
                           step=1 / 40)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("s, t, name", [
    (math.nan, 0.5, "s"), (0.5, math.nan, "t"), (True, 0.5, "s"),
    (0.2, True, "t"), (np.bool_(False), 0.5, "s"), (0.2, math.inf, "t"),
    ("0.2", 0.5, "s"), (0.2, [0.5, math.nan], r"t\[1\]"),
    (0.2, [True, 0.5], r"t\[0\]"), (0.2, np.array([0.5, np.inf]), r"t\[1\]"),
    (0.2, [0.5, 0.1], r"t\[1\]: need s <= t"),
    (0.2, np.array([[0.5]]), "t: must be a number or a one-dimensional"),
])
def test_series_refuses_nan_and_bool_times(s, t, name):
    # on const2, (0.5, nan) once returned 1.0000333 and (nan, 0.5) 1.0,
    # and s=True ran as s=1.0
    with pytest.raises(DomainError, match=f"^{name}"):
        survival_series(constant_intensity(2.0, 1.0), s, t)


@pytest.mark.parametrize("label", SERIES_KERNELS)
def test_hazard_rows_match_meshgrid_tables(label):
    om = series_kernels()[label]
    grid = np.linspace(0.0, 1.0, 401)
    for n_rows in (None, 1, 7, 401):
        got = _hazard_rows(om, grid[:n_rows], grid)
        want = meshgrid_hazard_rows(om, grid, n_rows)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # the series' continuation: the rows of [0, s] at the times after s
    got = _hazard_rows(om, grid[:101], grid[100:])
    want = meshgrid_hazard_rows(om, grid, 101)
    assert got[0].tobytes() == want[0][:, 100:].tobytes()
    assert got[1].tobytes() == want[1][100:].tobytes()


@pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
def test_table_checks_diff_masks_are_views_of_the_upper_mask(m, monkeypatch):
    # strips of 2 rows: each strip's masks are views of one mask of its
    # rows and the row after, and the strips laid end to end are the whole
    # tables
    monkeypatch.setattr(latp, "_STRIP_BYTES", 16 * m)
    p = np.arange(m * m, dtype=float).reshape(m, m)
    parts = list(latp._upper_strips(p))
    assert len(parts) == (m + 1) // 2
    k = max(m - 1, 0)
    whole = {"rows": [], "upper": [], "dt": [], "in_dt": [], "ds": [],
             "in_ds": []}
    for rows, upper, (dt, in_dt), (ds, in_ds) in parts:
        assert in_dt.base is upper.base is in_ds.base
        assert rows.stop - rows.start <= 2
        for key, x in zip(whole, (np.arange(m)[rows], upper, dt, in_dt, ds,
                                  in_ds)):
            whole[key].append(x)
    if not parts:
        return
    cat = {key: np.concatenate(x) for key, x in whole.items()}
    assert cat["rows"].tolist() == list(range(m))
    assert cat["upper"].tolist() == np.triu(np.ones((m, m), dtype=bool)).tolist()
    assert cat["in_dt"].tolist() == np.triu(np.ones((m, k), dtype=bool)).tolist()
    assert cat["in_ds"].tolist() == np.triu(np.ones((k, m), dtype=bool), k=1).tolist()
    assert cat["dt"].tobytes() == np.diff(p, axis=1).tobytes()
    assert cat["ds"].tobytes() == np.diff(p, axis=0).tobytes()


# -- the grid passes in row strips keep the bits of whole-table passes


def _outcome(fn, *args):
    """What a call returns, or the message of the ConfigError it raises."""
    try:
        return fn(*args)
    except ConfigError as exc:
        return str(exc)


@st.composite
def strip_kernels(draw):
    """Hazard kernels a + b s e^{-c t}, NaN for t past a drawn time in
    some of them, and the s->0+ row of a flow pullback in others."""
    a, b, c = (draw(st.floats(0.0, 2.0)) for _ in range(3))
    nan_after = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))

    def fn(s, t):
        v = a + b * s * np.exp(-c * t)
        return v if nan_after is None else np.where(t > nan_after, np.nan, v)

    s0 = (lambda t: a + b * (1.0 - np.exp(-t))) if draw(st.booleans()) else None
    return LatpIntensity(fn, 1.0, sup_norm=a + b, s0_limit=s0,
                         label=f"strip[{a},{b},{c},{nan_after}]")


@pytest.mark.parametrize("rows", STRIP_ROWS)
@settings(max_examples=60, deadline=None)
@given(om=strip_kernels(), m=st.integers(1, 60),
       kmax=st.sampled_from([0, 1, 4, 25]), data=st.data())
def test_strip_hazard_rows_and_series_match_whole_tables(rows, om, m, kmax,
                                                         data):
    grid = np.linspace(0.0, 1.0, m + 1)
    n_rows = data.draw(st.integers(1, m + 1), label="n_rows")
    i = data.draw(st.integers(0, m), label="start node")
    s = data.draw(st.one_of(st.just(float(grid[i])), st.floats(0.0, 1.0)),
                  label="s")
    ts = data.draw(st.lists(st.floats(s, 1.0), min_size=1, max_size=3),
                   label="ts")
    with strips_of(rows, m + 1):
        got = _hazard_rows(om, grid[:n_rows], grid)
        for a, b in zip(got, broadcast_hazard_rows(om, grid[:n_rows], grid)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        for t in ts:
            want = _outcome(whole_table_series_from(om, s, kmax, 1 / m), t)
            one = _outcome(survival_series, om, s, t, kmax, 1 / m)
            assert np.float64(one).tobytes() == np.float64(want).tobytes() \
                if isinstance(want, float) else one == want


def _strip_table(data, m):
    """A table that passes or fails each of ``SurvivalTable``'s checks:
    p[i, j] = q[i+1] ... q[j] on and above the diagonal, then up to three
    entries each made NaN, moved outside [0, 1], moved off 1 on the
    diagonal or moved by a drawn amount; below the diagonal NaN or any
    number."""
    q = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m,
                                    max_size=m)))
    below = data.draw(st.sampled_from([np.nan, 0.25, -7.0]))
    p = np.full((m, m), below)
    for i in range(m):
        p[i, i:] = np.cumprod(np.r_[1.0, q[i + 1:]])
    for change in data.draw(st.lists(st.sampled_from(
            ["nan", "escape", "diagonal", "move"]), max_size=3)):
        i, j = sorted(data.draw(st.tuples(st.integers(0, m - 1),
                                          st.integers(0, m - 1))))
        if change == "nan":
            p[i, j] = np.nan
        elif change == "escape":
            p[i, j] = data.draw(st.sampled_from([-1e-6, 1.0 + 1e-6]))
        elif change == "diagonal":
            p[j, j] = 1.0 - 1e-3
        elif i < j:
            p[i, j] = min(1.0, max(0.0, p[i, j] + data.draw(
                st.floats(-1e-2, 1e-2))))
    return p


@pytest.mark.parametrize("rows", STRIP_ROWS)
@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 60), data=st.data())
def test_strip_table_checks_match_whole_tables(rows, m, data):
    p = _strip_table(data, m)
    grid = np.linspace(0.0, 1.0, m)
    table = SimpleNamespace(p=p, grid=grid, step=1.0 / max(m - 1, 1))
    omega = SimpleNamespace(sup_norm=data.draw(st.floats(0.0, 5.0)))
    with strips_of(rows, m):
        got = _outcome(SurvivalTable, grid, p, np.zeros(m), 1.0)
        assert (got if isinstance(got, str) else None) == \
            _outcome(whole_survival_table_check, p)
        assert _report_bytes(derivative_bound_check(table, omega)) == \
            _report_bytes(allocating_derivative_bound_check(table, omega))


@pytest.mark.parametrize("rows", STRIP_ROWS)
@pytest.mark.parametrize("label", sorted(shipped_omegas(1.0)))
def test_strip_passes_keep_the_bytes_of_the_shipped_kernels(label, rows):
    om = shipped_omegas(1.0)[label]
    grid = np.linspace(0.0, 1.0, 401)
    h = 1 / 400
    w, w0 = meshgrid_hazard_rows(om, grid)
    e0 = np.exp(-latp._cumulative_trapezoid(w0, h))
    f, p = allocating_trapezoid_volterra(w, w0 * e0, e0, h)
    p[np.tri(401, k=-1, dtype=bool)] = np.nan
    idx = np.linspace(0, 400, 5, dtype=int)
    with strips_of(rows, 401):
        for a, b in zip(_hazard_rows(om, grid), (w, w0)):
            assert a.tobytes() == b.tobytes()
        table = survival_solve(om, grid)
        assert table.f.tobytes() == f.tobytes()
        assert table.p.tobytes() == p.tobytes()
        assert _report_bytes(derivative_bound_check(table, om)) == \
            _report_bytes(allocating_derivative_bound_check(table, om))
        # a column holding a NaN is skipped whole, though its other strips
        # hold the largest excesses
        holed = p.copy()
        holed[300, 350] = np.nan
        holed[10, 350] += 0.5
        holed = SimpleNamespace(p=holed, grid=grid, step=h)
        assert _report_bytes(derivative_bound_check(holed, om)) == \
            _report_bytes(allocating_derivative_bound_check(holed, om))
        # a table the checks refuse, with the message of the whole tables
        broken = p.copy()
        broken[200, 300] = 0.5 * broken[200, 299]
        want = _outcome(whole_survival_table_check, broken)
        assert want is not None
        assert _outcome(SurvivalTable, grid, broken, f, 1.0) == want
        for i in idx:
            ends = grid[idx[idx >= i]]
            want = [whole_table_series_from(om, grid[i], 25, h)(t) for t in ends]
            got = survival_series(om, grid[i], ends, kmax=25, step=h)
            assert got.tobytes() == np.array(want).tobytes()


def test_strip_policy_no_call_reads_more_than_one_strip(monkeypatch):
    # every kernel call of latp_validation and every field read of
    # verify_ode_form at 20x400 sees at most one strip's entries; the
    # whole-table passes made calls of 401 x 401 entries
    entries = latp._STRIP_BYTES // 8
    sizes = {"kernel": [], "field": []}
    omegas = {}
    for label, om in shipped_omegas(1.0).items():
        def kernel(s, t, fn=om._fn):
            sizes["kernel"].append(np.broadcast(np.asarray(s),
                                                np.asarray(t)).size)
            return fn(s, t)
        om._fn = kernel
        omegas[label] = om
    harness.latp_validation(omegas, step=1 / 400, replicas=200)
    sol = solve_y_c(affine_two_class_spec(), n_z=20, n_t=400)
    for cls in {type(c.field) for c in sol.spec.classes}:
        def values(self, y, t, read=cls._values):
            sizes["field"].append(np.broadcast(np.asarray(y),
                                               np.asarray(t)).size)
            return read(self, y, t)
        monkeypatch.setattr(cls, "_values", values)
    flow.verify_ode_form(sol)
    for calls in sizes.values():
        assert 401 * 3 < max(calls) <= entries
