"""Seeded counter-based RNG streams.

Every stochastic component draws from a Philox generator keyed by
``(seed, kind, index)``.  Streams with distinct keys are independent, and a
stream's output depends only on its key, never on how many other streams
exist.  That is what lets a tagged particle keep the same driving noise as
the population size N changes, and what lets the original and flow-driven
models consume identical candidate marks.

No stream function below builds a ``SeedSequence``, a ``Philox`` and a
``Generator`` per stream; ``substream`` still builds them and is the
reference that each reproduces byte for byte.  All of them derive a
stream's Philox key with ``_key_words``: the loop of 20 hashes and 12
mixes that ``numpy.random.SeedSequence`` runs on its pool of four words,
one body for a Python int index or a uint32 array of them, with no memo.
A scalar key costs about 10 us, a block of 1024 about 140 us and 10 000
keys about 500 us (2-vCPU x86-64 host, numpy 2.4).  Scalar keys are few:
a benchmark round derives 400 in the experiments workload, 5 in the
particles workload and none in the limit workload; the limit workload's
30 720 come as 30 blocks and the experiments workload's 30 000 as 3.  The
streams then draw in one of two ways:

* re-keying one module-level generator at counter 0 with an empty
  buffer, the state of a fresh ``substream``, as ``stream_candidates`` does;
* computing Philox4x64-10 counter blocks of many streams at once on uint64
  arrays (``_philox_block``), as ``replica_candidates`` does for many
  consecutive substreams of a mean count below ``POISSON_MULT_MAX``, where
  numpy's Poisson count is the number of running products of the stream's
  leading uniforms above exp(-mean); from it on, it re-keys the generator
  per stream.  Its bytes therefore depend on numpy's Philox and on its
  Poisson algorithm for small means.  Every LATP replica is drawn there,
  by ``latp.sample_replicas`` a chunk at a time, and by
  ``latp.sample_arrivals`` a cached block at a time.  It sorts each
  stream's times with one ``argsort`` of all of them and a stable radix
  regroup by stream (``_by_owner_then_value``): on a 10 000-stream block
  the sort takes about 0.45 ms against 3.6 ms for ``np.lexsort``.

``_bulk_draws`` makes one Philox pass per counter block over the streams
still counting, then one pass over every stream's later blocks, a
(stream, counter) lane each.  At mean 2.1 a block of 1024 streams takes
four passes (1024, 161, 1 and 1016 lanes at seed 7) where one pass per
block over every stream still drawing took seven over the same 2202
lanes.  A pass runs both products of a round as one (2, L) array, in
179 ufunc calls against 379, and writes all ten rounds into the same
seven arrays.  A 1024-lane pass takes about 0.25-0.29 ms, the 1024-stream
draw 1.0-1.2 ms against 2.2-2.3 ms, and a 10 000-stream
``replica_candidates`` call 7.2-7.4 ms against 8.9-9.1 ms (process time,
best of 7-20 in each of three processes a side).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, _require_int

# Stream kinds.  Values are part of the reproducibility contract: changing
# them changes every seeded output.
GLOBAL = 0   # merged candidate stream of a plain simulation
BULK = 1     # untagged particles of a tagged-mode simulation
TAGGED = 2   # one stream per tagged particle, shared with the limit path
LATP = 3     # point-process sampler replicas
ASSIGN = 4   # seeded-random population assignment

# A key word below 2**32 is one uint32 entropy word of the SeedSequence.
KEY_WORDS = 2 ** 32

# Largest mean candidate count, rate * horizon, of one Poisson draw.  Far
# beyond any stream that fits in memory, and far below the mean at which
# numpy's Poisson sampler refuses with "lam value too large".
MAX_MEAN_CANDIDATES = 1e12

# SeedSequence's mixing (numpy.random.bit_generator), pool size 4, on uint32
# words: Python ints masked to 32 bits, or uint32 arrays, which wrap.  Every
# Python int that meets a uint32 array is below 2**32, as NumPy requires.
_MASK = KEY_WORDS - 1
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(const: int, mult: int, calls: int):
    """(xor, multiplier) of each of the first ``calls`` hashes from hash
    constant ``const``: a hash xors the constant in, advances it by
    ``mult`` and multiplies by the advanced value."""
    out = []
    for _ in range(calls):
        advanced = const * mult & _MASK
        out.append((const, advanced))
        const = advanced
    return out


_HASH_MIX = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_OUT = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)
# the pool's 20 hashes in order, each as (source, destination, xor,
# multiplier): the entropy words (seed, kind, index, 0) hashed in place;
# for each (source, destination) pair of the pool mix, in loop order, a
# hash of the source mixed into the destination; the pool hashed out
_IN_PLACE = [(w, w) for w in range(4)]
_STEPS = [(src, dst, *const) for (src, dst), const in zip(
    _IN_PLACE + [(s, d) for s in range(4) for d in range(4) if s != d]
    + _IN_PLACE, _HASH_MIX + _HASH_OUT)]


def _key_words(seed: int, kind: int, index):
    """The four uint32 words of ``SeedSequence((seed, kind, index))
    .generate_state(4)``, for an int ``index`` or a uint32 array of them.

    SeedSequence's ``mix_entropy`` and ``generate_state`` as one loop over
    ``_STEPS``: each step hashes a pool word and, between two words, mixes
    the hash into the other.
    """
    pool = [seed, kind, index, 0]
    for src, dst, xor, mult in _STEPS:
        v = (pool[src] ^ xor) * mult & _MASK
        v ^= v >> 16
        if src != dst:
            # each product masked apart: no int of 2**32 or more meets an array
            v = (_MIX_L * pool[dst] & _MASK) - (_MIX_R * v & _MASK) & _MASK
            v ^= v >> 16
        pool[dst] = v
    return tuple(pool)


# One Philox re-keyed per stream by ``_rekeyed``.  No caller ever holds it
# past its own draws, so no stream sees another's state; it is not shared
# between threads (the harness runs its workers as processes).
_BITGEN = np.random.Philox(0)
_RNG = np.random.Generator(_BITGEN)
# a fresh substream's Philox state: counter 0 and an empty output buffer;
# ``_rekeyed`` writes the key
_FRESH_STATE = {"bit_generator": "Philox",
                "state": {"counter": (0, 0, 0, 0), "key": None},
                "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0}


def _rekeyed(key) -> np.random.Generator:
    """The shared generator, in the state of a fresh substream keyed ``key``."""
    _FRESH_STATE["state"]["key"] = key
    _BITGEN.state = _FRESH_STATE
    return _RNG


def check_key(name: str, value) -> int:
    """One word of a stream key: an integer in [0, 2**32), else ConfigError."""
    # a plain int, the common case, skips the general checks; a bool is no
    # plain int
    if type(value) is int and 0 <= value < KEY_WORDS:
        return value
    if (isinstance(value, bool)
            or not isinstance(value, (int, np.integer))
            or not 0 <= value < KEY_WORDS):
        raise ConfigError(f"{name}: must be an integer in [0, 2**32)")
    return int(value)


def substream(seed: int, kind: int, index: int = 0) -> np.random.Generator:
    """Independent generator for the given key."""
    ss = np.random.SeedSequence(entropy=(check_key("seed", seed),
                                         check_key("kind", kind),
                                         check_key("index", index)))
    return np.random.Generator(np.random.Philox(ss))


def _mean_count(rate: float, horizon: float) -> float:
    """rate * horizon, or ConfigError when it is not finite or above
    MAX_MEAN_CANDIDATES."""
    lam = rate * horizon
    if not lam <= MAX_MEAN_CANDIDATES:
        raise ConfigError(f"stream rate {rate} over horizon {horizon} expects "
                          f"{lam} candidates, above the {MAX_MEAN_CANDIDATES:g} "
                          "allowed")
    return lam


def candidate_batch(rng: np.random.Generator, rate: float, horizon: float):
    """Marked candidates of a homogeneous Poisson stream on [0, horizon].

    Returns ``(times, marks)`` with times sorted increasing and marks uniform
    on [0, rate).  Given the count, sorted uniforms reproduce the Poisson
    arrival law exactly.  Draw order (count, times, marks) is fixed.
    """
    if rate <= 0.0 or horizon <= 0.0:
        return np.empty(0), np.empty(0)
    n = int(rng.poisson(_mean_count(rate, horizon)))
    times = np.sort(rng.random(n)) * horizon
    marks = rng.random(n) * rate
    return times, marks


def _key(seed: int, kind: int, index: int):
    """Philox key of ``substream(seed, kind, index)``, two Python ints."""
    w0, w1, w2, w3 = _key_words(seed, kind, index)
    return [w0 | w1 << 32, w2 | w3 << 32]


def stream_candidates(seed: int, kind: int, index: int, rate: float,
                      horizon: float, picks: bool = False):
    """``candidate_batch(substream(seed, kind, index), rate, horizon)``.

    Byte-equal to it, but re-keys the shared generator with the key from
    ``_key_words``.  With ``picks`` it also returns the next n uniforms,
    which choose each candidate's particle in a merged stream.  A zero
    rate or horizon draws nothing and derives no key.
    """
    key = (check_key("seed", seed), check_key("kind", kind),
           check_key("index", index))
    if rate <= 0.0 or horizon <= 0.0:
        return tuple(np.empty(0) for _ in range(3 if picks else 2))
    rng = _rekeyed(_key(*key))
    times, marks = candidate_batch(rng, rate, horizon)
    if picks:
        return times, marks, rng.random(len(times))
    return times, marks


def tagged_candidates(seed: int, index: int, rate: float, horizon: float):
    """Candidate stream of tagged particle ``index``.

    Depends only on (seed, index, rate, horizon); in particular it is
    independent of the population size, so the same stream can drive the
    finite-N particle and its infinite-N limit path.
    """
    return stream_candidates(seed, TAGGED, index, rate, horizon)


def philox_keys(seed: int, kind: int, indices) -> np.ndarray:
    """Philox keys of ``substream(seed, kind, r)`` for every r in ``indices``.

    Row q equals ``SeedSequence((seed, kind, indices[q])).generate_state(2,
    np.uint64)``: ``_key_words`` on a uint32 array of the indices, whose
    operations wrap as SeedSequence's do, and the four words joined low
    word first.
    """
    seed = check_key("seed", seed)
    kind = check_key("kind", kind)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if len(idx) and (idx.min() < 0 or idx.max() >= KEY_WORDS):
        raise ConfigError("index: must be an integer in [0, 2**32)")
    w0, w1, w2, w3 = (w.astype(np.uint64) for w in
                      _key_words(seed, kind, idx.astype(np.uint32)))
    return np.stack([w0 | (w1 << np.uint64(32)),
                     w2 | (w3 << np.uint64(32))], axis=1)


# Philox4x64-10 (Salmon et al., SC 2011, as numpy.random.Philox runs it).
# A round multiplies counter words 0 and 2 by its two multipliers as one
# (2, L) array, and its result swaps the two: so in even rounds the rows
# hold words (0, 2) and (1, 3), in odd rounds words (2, 0) and (3, 1), and
# the multipliers, each as itself and as its 32-bit halves, come as (2, 1)
# columns in either order.  The keys are held as rows (k1, k0), bumped
# between rounds by the column _PHILOX_W
_LOW32, _SHIFT32 = np.uint64(_MASK), np.uint64(32)
_ROUND_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                    dtype=np.uint64)
_PHILOX_M = [(m, m & _LOW32, m >> _SHIFT32)
             for m in (_ROUND_M, _ROUND_M[::-1].copy())]
_PHILOX_W = np.array([[0xBB67AE8584CAA73B], [0x9E3779B97F4A7C15]],
                     dtype=np.uint64)
# a double from a word: its top 53 bits times 2**-53, as numpy's random()
_SHIFT11, _TO_DOUBLE = np.uint64(11), 2.0 ** -53

# numpy's Generator.poisson draws a mean below 10 by the multiplication
# method, whose count reads only the stream's leading uniforms; from 10 on
# it runs Hoermann's PTRS rejection sampler, which the whole-array pass
# does not reproduce
POISSON_MULT_MAX = 10.0


def _philox_block(keys: np.ndarray, counters):
    """The four words of Philox4x64-10 block ``counters[l]`` of key
    ``keys[l]``, in every lane l.

    ``keys`` holds one key per row (``philox_keys`` rows) and
    ``counters`` one counter per lane, a uint64 array, or one for all; the
    counter of lane l is (counters[l], 0, 0, 0).  A fresh generator's
    first block has counter 1: numpy bumps the counter before it draws.
    Returns four uint64 arrays, the block's words in the order numpy hands
    them out.  Every round writes into the same seven (2, L) arrays, which
    makes a 10 000-lane pass 0.94-0.98 ms against 1.00-1.05 ms with a
    fresh array per operation.  Array arithmetic on uint64 wraps without
    a warning.
    """
    a, b, lo, x_lo, hi, t, cross = np.zeros((7, 2, len(keys)), dtype=np.uint64)
    a[0] = counters
    k = keys[:, ::-1].T.copy()
    for r in range(10):
        if r:
            k += _PHILOX_W
        m, m_lo, m_hi = _PHILOX_M[r % 2]
        # the 128-bit products a * m: the low words, and the high words
        # from the 32-bit halves, summed so that no partial sum wraps
        np.multiply(a, m, out=lo)
        np.bitwise_and(a, _LOW32, out=x_lo)
        np.right_shift(a, _SHIFT32, out=hi)
        np.multiply(x_lo, m_lo, out=t)
        t >>= _SHIFT32
        np.multiply(hi, m_lo, out=cross)
        t += cross
        x_lo *= m_hi
        np.bitwise_and(t, _LOW32, out=cross)
        x_lo += cross
        t >>= _SHIFT32
        hi *= m_hi
        hi += t
        x_lo >>= _SHIFT32
        hi += x_lo
        # words 0 and 2 become hi1 ^ x1 ^ k0 and hi0 ^ x3 ^ k1, words 1
        # and 3 lo1 and lo0: the rows swap
        hi ^= b[::-1]
        hi ^= k if r % 2 == 0 else k[::-1]
        a, hi = hi, a
        b, lo = lo, b
    return a[0], b[0], a[1], b[1]


def _block_doubles(keys: np.ndarray, counters) -> np.ndarray:
    """The four doubles numpy's ``random()`` reads from ``_philox_block
    (keys, counters)``, one row per lane."""
    u = np.stack(_philox_block(keys, counters), axis=1)
    u >>= _SHIFT11
    return u * _TO_DOUBLE


def _bulk_draws(keys: np.ndarray, lam: float):
    """Poisson(lam) counts n, lam < POISSON_MULT_MAX, of fresh streams
    keyed by the rows of ``keys``, and the 2n uniforms each stream draws
    after its count: ``(n, doubles, first)``, stream q's uniforms being
    ``doubles[first[q]:first[q] + 2 * n[q]]``.  The count reads n + 1
    doubles, so a stream hands out 3n + 1 in all, in its counter blocks
    1 to ceil((3n + 1) / 4).

    Pass b draws block b of the streams still counting, those whose
    running product is still above exp(-lam); a stream's count thus ends
    in its block ceil((n + 1) / 4).  One more pass draws every stream's
    later blocks at once, one (stream, counter) lane each.  Nothing is
    padded.
    """
    count = len(keys)
    # libm's exp, which numpy's C sampler calls; np.exp may differ in the
    # last bit
    floor = math.exp(-lam)
    n = np.zeros(count, dtype=np.int64)
    prod = np.ones(count)
    rows = np.arange(count)
    drawn, owners = [], []
    block = 0
    while len(rows):
        block += 1
        u = _block_doubles(keys[rows], block)
        drawn.append(u)
        owners.append(rows)
        # the running products of numpy's loop, prod *= u in order
        run = np.multiply.accumulate(
            np.concatenate([prod[rows, None], u], axis=1), axis=1)
        n[rows] += np.count_nonzero(run[:, 1:] > floor, axis=1)
        prod[rows] = run[:, -1]
        rows = rows[run[:, -1] > floor]
    counted = (n + 4) // 4
    blocks = (3 * n + 4) // 4
    rest = blocks - counted
    lanes = np.repeat(np.arange(count), rest)
    if len(lanes):
        # each stream's lanes in a run, its blocks counted + 1 on in order
        counters = np.repeat(counted + 1 - (np.cumsum(rest) - rest), rest)
        counters += np.arange(len(lanes))
        drawn.append(_block_doubles(keys[lanes], counters))
        owners.append(lanes)
    owners = np.concatenate(owners)
    # stream-major: each stream's lanes already come in counter order
    doubles = np.concatenate(drawn)[_stable_argsort(owners, count)].ravel()
    return n, doubles, 4 * (np.cumsum(blocks) - blocks) + n + 1


def _looped_draws(keys: np.ndarray, lam: float):
    """``_bulk_draws`` for any mean: each stream re-keys the shared
    generator and draws its count, then its 2n uniforms."""
    n = np.zeros(len(keys), dtype=np.int64)
    draws = []
    for r, key in enumerate(keys.tolist()):
        rng = _rekeyed(key)
        n[r] = rng.poisson(lam)
        draws.append(rng.random(2 * n[r]))
    return n, np.concatenate(draws), 2 * (np.cumsum(n) - n)


def _stable_argsort(keys, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in [0, bound).

    Keys below 2^16 fit uint16, whose stable sort is a radix sort: O(m),
    and fast on presorted keys.  Larger keys become the unique keys
    ``key * m + position``, whose order is the stable one under any sort,
    so numpy's default (vectorized) sort gives it.  Those keys are below
    ``bound * m``.  Each caller's bound is a particle, stream or owner
    count or an owner's candidate count, lengths of arrays held in memory
    and so under 2^31 (16 GiB of int64), or, in ``positions_of``,
    2 * events + 1 <= 2m + 1.  With m under 2^31 too, the product is below
    2^63.
    """
    m = len(keys)
    if bound <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    assert bound * m < 1 << 63, "unique sort keys would overflow int64"
    unique = np.asarray(keys, dtype=np.int64) * m
    unique += np.arange(m)
    return np.argsort(unique)


def _by_owner_then_value(owners, values, n_owners: int) -> np.ndarray:
    """``np.lexsort((values, owners))`` for owners in [0, n_owners), up to
    the order of equal entries: every entry sorted by value, then regrouped
    by one stable sort on the owners, which keeps each owner's in order.
    Cheaper than ``lexsort``'s two passes, as the owner sort is a radix
    sort for n_owners up to 2^16 (``_stable_argsort``)."""
    by_value = np.argsort(values)
    return by_value[_stable_argsort(owners[by_value], n_owners)]


def replica_candidates(seed: int, kind: int, count: int, rate: float,
                       horizon: float, start: int = 0):
    """Candidates of the substreams ``start, ..., start + count - 1``.

    Returns ``(times, marks, counts)``: the slice of stream r is
    byte-equal to ``candidate_batch(substream(seed, kind, r), rate,
    horizon)``, and the streams follow each other in index order.  A
    stream starts fresh, at counter 0 with an empty buffer, and hands out
    its count n, then 2n uniforms: the same doubles as
    ``candidate_batch``'s two draws of n, its times and then its marks.
    For a mean count below POISSON_MULT_MAX, all streams are drawn in
    whole-array Philox passes (``_bulk_draws``); from it on, each re-keys
    one reused Philox.  A zero rate draws nothing and derives no key, but
    checks the key words all the same.
    """
    _require_int("count", count, 0)
    seed, kind = check_key("seed", seed), check_key("kind", kind)
    if count:
        check_key("index", start)
        check_key("index", start + count - 1)
    counts = np.zeros(count, dtype=np.int64)
    if rate <= 0.0 or horizon <= 0.0 or count == 0:
        return np.empty(0), np.empty(0), counts
    lam = _mean_count(rate, horizon)
    keys = philox_keys(seed, kind, np.arange(start, start + count))
    draws = _bulk_draws if lam < POISSON_MULT_MAX else _looped_draws
    counts, doubles, first = draws(keys, lam)
    # stream q's times are its first n_q uniforms, and its marks the next n_q
    owner = np.repeat(np.arange(count), counts)
    at = (first - (np.cumsum(counts) - counts))[owner]
    at += np.arange(len(owner))
    raw = doubles[at]
    times = raw[_by_owner_then_value(owner, raw, count)] * horizon
    marks = doubles[at + counts[owner]] * rate
    return times, marks, counts
