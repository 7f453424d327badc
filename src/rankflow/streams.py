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
  Poisson algorithm for small means.  Every LATP replica is drawn there:
  by ``latp.sample_replicas``, and a cached block at a time by
  ``latp.sample_arrivals``.
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


# Philox4x64-10 (Salmon et al., SC 2011, as numpy.random.Philox runs it):
# the round multipliers, each as itself and as its 32-bit halves, and the
# key bumps between rounds
_PHILOX_M = tuple((m, np.uint64(m), np.uint64(m & _MASK), np.uint64(m >> 32))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
_LOW32, _SHIFT32 = np.uint64(_MASK), np.uint64(32)
# a double from a word: its top 53 bits times 2**-53, as numpy's random()
_SHIFT11, _TO_DOUBLE = np.uint64(11), 2.0 ** -53

# numpy's Generator.poisson draws a mean below 10 by the multiplication
# method, whose count reads only the stream's leading uniforms; from 10 on
# it runs Hoermann's PTRS rejection sampler, which the whole-array pass
# does not reproduce
POISSON_MULT_MAX = 10.0


def _mulhilo(m, x):
    """High and low words of the 128-bit products of the multiplier ``m``,
    a ``_PHILOX_M`` entry, with each word of the uint64 array ``x``; the
    high word is built from the four 32-bit partial products."""
    _, m64, m_lo, m_hi = m
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    ll, hl = x_lo * m_lo, x_hi * m_lo
    lh, hi = x_lo * m_hi, x_hi * m_hi
    mid = ll >> _SHIFT32
    mid += hl & _LOW32
    mid += lh & _LOW32
    hi += hl >> _SHIFT32
    hi += lh >> _SHIFT32
    hi += mid >> _SHIFT32
    return hi, x * m64


def _philox_block(keys: np.ndarray, counter: int):
    """The four words of Philox4x64-10 block ``counter`` of every key.

    ``keys`` holds one key per row (``philox_keys`` rows); the counter is
    (counter, 0, 0, 0) in every lane, so the first round, whose products
    are the same in every lane, runs on Python ints.  A fresh generator's
    first block has counter 1: numpy bumps the counter before it draws.
    Returns four uint64 arrays, the block's words in the order numpy
    hands them out.  Array arithmetic on uint64 wraps without a warning.
    """
    k0, k1 = keys[:, 0], keys[:, 1]
    hi, lo = divmod(_PHILOX_M[0][0] * counter, 1 << 64)
    x0, x1, x2, x3 = k0, 0, k1 ^ np.uint64(hi), lo
    for _ in range(9):
        k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        hi1 ^= x1
        hi1 ^= k0
        hi0 ^= x3
        hi0 ^= k1
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    return x0, x1, x2, x3


def _bulk_draws(keys: np.ndarray, lam: float):
    """Poisson(lam) counts n, lam < POISSON_MULT_MAX, of fresh streams
    keyed by the rows of ``keys``, and the 2n uniforms each stream draws
    after its count: ``(n, doubles, first)``, stream q's uniforms being
    ``doubles[first[q]:first[q] + 2 * n[q]]``.  The count reads n + 1
    doubles, so a stream hands out 3n + 1 in all.

    Round b draws counter block b for each stream that still needs
    doubles: those whose running product is still above exp(-lam), and
    those whose 3n + 1 doubles reach past block b - 1.  Those streams are
    the ones that need a block at all, so nothing is padded.
    """
    count = len(keys)
    # libm's exp, which numpy's C sampler calls; np.exp may differ in the
    # last bit
    floor = math.exp(-lam)
    n = np.zeros(count, dtype=np.int64)
    prod = np.ones(count)
    rows = np.arange(count)
    open_ = np.ones(count, dtype=bool)  # still counting, along ``rows``
    drawn, owners = [], []
    block = 0
    while len(rows):
        block += 1
        words = _philox_block(keys[rows], block)
        u = np.stack([w >> _SHIFT11 for w in words], axis=1) * _TO_DOUBLE
        drawn.append(u)
        owners.append(rows)
        if open_.any():
            at = rows[open_]
            # the running products of numpy's loop, prod *= u in order
            run = np.multiply.accumulate(
                np.concatenate([prod[at, None], u[open_]], axis=1), axis=1)
            n[at] += np.count_nonzero(run[:, 1:] > floor, axis=1)
            prod[at] = run[:, -1]
            open_[open_] = run[:, -1] > floor
        more = open_ | (3 * n[rows] + 1 > 4 * block)
        rows, open_ = rows[more], open_[more]
    owners = np.concatenate(owners)
    # stream-major: each stream's blocks in counter order
    doubles = np.concatenate(drawn)[np.argsort(owners, kind="stable")].ravel()
    blocks = np.bincount(owners, minlength=count)
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
    times = raw[np.lexsort((raw, owner))] * horizon
    marks = doubles[at + counts[owner]] * rate
    return times, marks, counts
