import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (allocating_cumulative_trapezoid,
                     allocating_trapezoid_volterra, check_regularity,
                     full_survival_series, loop_derivative_bound_check,
                     loop_regularity_moduli, loop_survival_table_check,
                     loop_trapezoid_weights)

from rankflow import (ArrivalSequence, ConfigError, DomainError,
                      EnvelopeBreach, LatpIntensity, derivative_bound_check,
                      latp, sample_arrivals, streams,
                      survival_series, survival_solve, thin_last_arrival)
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
    # one routine on Python ints and on uint32 arrays, the (seed, kind)
    # half read from its memo or computed afresh
    if indices[0] % 2:
        streams._pool_head.cache_clear()
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
    # the scalar sampler's lists hold the same floats
    lists = streams.candidate_lists(seed, kind, index, rate, horizon)
    for g, w in zip(lists, want):
        assert all(type(x) is float for x in g)
        assert np.array(g, dtype=float).tobytes() == w.tobytes()


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


def test_key_blocks_match_seed_sequence():
    # interleaved (seed, kind) pairs and blocks, more than the cache holds,
    # so that blocks are evicted and derived again
    assert streams._key_block.cache_info().maxsize <= 4
    indices = [0, 1023, 1024, 2047, KEY_WORD_MAX]
    for _ in range(2):
        for index in indices:
            for seed, kind in ((0, streams.LATP), (KEY_WORD_MAX, 0), (5, 1)):
                block, row = divmod(index, streams.KEY_BLOCK)
                keys = streams._key_block(seed, kind, block)
                want = np.random.SeedSequence((seed, kind, index)).generate_state(2, np.uint64)
                assert keys.dtype == np.uint64 and not keys.flags.writeable
                assert np.array_equal(keys[row], want)
    # the last block stops at the last index
    assert len(streams._key_block(0, 0, KEY_WORD_MAX // streams.KEY_BLOCK)) == \
        KEY_WORD_MAX % streams.KEY_BLOCK + 1


@pytest.mark.parametrize("key", [dict(seed=True), dict(seed=1.0),
                                 dict(seed=1, replica=1.0)],
                         ids=["seed-bool", "seed-float", "replica-float"])
def test_sample_arrivals_refuses_keys_equal_to_a_cached_block(key):
    # the cache would take True and 1.0 for 1: the words are checked first
    omega = shipped_omegas(1.0)["const2"]
    sample_arrivals(omega, seed=1, replica=1)
    assert streams._key_block.cache_info().currsize >= 1
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
        streams._key_block.cache_clear()
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
    with pytest.raises(ConfigError, match="replicas"):
        sample_replicas(constant_intensity(1.0, 1.0), 0, -1)


def drawn(times):
    # candidate_lists returning these times, each with mark 0
    def lists(seed, kind, index, rate, horizon):
        return list(times), [0.0] * len(times)
    return lists


@pytest.mark.parametrize("times", [[0.3, 0.3], [0.3, math.nan], [0.0, 0.5]],
                         ids=["tied", "nan", "zero"])
def test_sample_arrivals_keeps_arrival_sequence_invariant(times, monkeypatch):
    # the twin of the sample_replicas refusals: every candidate is accepted
    def batch(seed, kind, count, rate, horizon, start=0):
        return np.array(times), np.zeros(len(times)), np.array([len(times)])

    monkeypatch.setattr(streams, "candidate_lists", drawn(times))
    monkeypatch.setattr(streams, "replica_candidates", batch)
    with pytest.raises(ConfigError) as exc:
        sample_arrivals(constant_intensity(1.0, 1.0), 0)
    assert str(exc.value) == "times must be strictly increasing in (0, horizon]"
    with pytest.raises(ConfigError) as batched:
        sample_replicas(constant_intensity(1.0, 1.0), 0, 1)
    assert str(batched.value) == str(exc.value)


def test_sample_arrivals_breach_text(monkeypatch):
    # the hazard breaches the envelope after the arrival at 0.2
    monkeypatch.setattr(streams, "candidate_lists", drawn([0.2, 0.5]))
    lying = LatpIntensity(lambda s, t: 1.0 + 4.0 * s + 0.0 * t, 1.0,
                          sup_norm=1.5, label="lying")
    with pytest.raises(EnvelopeBreach) as exc:
        sample_arrivals(lying, 0)
    envelope = ENVELOPE_MARGIN * 1.5
    assert str(exc.value) == (f"lying: hazard 1.8 above envelope {envelope} "
                              "at (s=0.2, t=0.5)")


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
    ("kmax", True), ("kmax", False), ("kmax", 2.5), ("kmax", -1),
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


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       h=st.floats(1e-3, 0.1),
       total=st.floats(0.0, 3.0).filter(lambda x: x != 1.0),
       zeros=st.sampled_from([0.0, 0.3, 1.0]))
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


@pytest.mark.parametrize("label", sorted(shipped_omegas(1.0)))
def test_series_matches_full_hazard_rows_at_limit_lattice(label):
    # the 15 lattice pairs of the benchmark's limit workload
    om = shipped_omegas(1.0)[label]
    grid = np.linspace(0.0, 1.0, 401)
    idx = np.linspace(0, 400, 5, dtype=int)
    for i in idx:
        for j in idx[idx >= i]:
            got = survival_series(om, grid[i], grid[j], kmax=25, step=1 / 400)
            want = full_survival_series(om, grid[i], grid[j], kmax=25,
                                        step=1 / 400)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
