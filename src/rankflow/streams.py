"""Seeded counter-based RNG streams.

Every stochastic component draws from a Philox generator keyed by
``(seed, kind, index)``.  Streams with distinct keys are independent, and a
stream's output depends only on its key, never on how many other streams
exist.  That is what lets a tagged particle keep the same driving noise as
the population size N changes, and what lets the original and flow-driven
models consume identical candidate marks.

``stream_candidates`` draws the candidates of one substream without building
its generator: it derives the Philox key with ``_key_words``, the mixing
that ``numpy.random.SeedSequence`` documents, on Python ints, and re-keys one
module-level generator.  ``candidate_lists`` draws the same candidates as
lists of Python floats, for the scalar sampler, which walks replicas in
index runs: it reads its key as a row of a block of 1024 consecutive keys,
derived at once and held in a small cache.  ``replica_candidates`` draws
the candidates of many consecutive substreams in one call; it derives their
Philox keys with the same ``_key_words`` on uint32 arrays.  All three
reproduce the ``substream`` bytes without building a ``SeedSequence``, a
``Philox`` and a ``Generator`` per stream; ``substream`` still builds them
and is the reference.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError

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


# the pool's 16 hashes: the four entropy words (seed, kind, index, 0), then
# one per (source, destination) pair of the pool mix, in loop order; and the
# four hashes of the pool words out
_HASH_MIX = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_OUT = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)


def _hashmix(value, call: int):
    """SeedSequence's mixing hash number ``call`` of ``value``."""
    xor, mult = _HASH_MIX[call]
    value = (value ^ xor) * mult & _MASK
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool word x with the hashed word y."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK
    return value ^ value >> 16


@lru_cache(maxsize=64)
def _pool_head(seed: int, kind: int):
    """The part of SeedSequence's pool mix that depends only on (seed, kind).

    The pool holds the hashes of seed, kind, index and 0.  Its first six
    mixes, sources 0 and 1, reach the index word only through two hashed
    values, so pool words 0, 1 and 3 after them, and those two values,
    depend on (seed, kind) alone.  Returned premultiplied as the key mix
    uses them: ``_MIX_L`` times each pool word and ``_MIX_R`` times each
    hashed value, masked to 32 bits.
    """
    p0, p1, p3 = _hashmix(seed, 0), _hashmix(kind, 1), _hashmix(0, 3)
    p1 = _mix(p1, _hashmix(p0, 4))
    h5 = _hashmix(p0, 5)  # mixed into the index word
    p3 = _mix(p3, _hashmix(p0, 6))
    p0 = _mix(p0, _hashmix(p1, 7))
    h8 = _hashmix(p1, 8)  # mixed into the index word
    p3 = _mix(p3, _hashmix(p1, 9))
    return (_MIX_L * p0 & _MASK, _MIX_L * p1 & _MASK, _MIX_L * p3 & _MASK,
            _MIX_R * h5 & _MASK, _MIX_R * h8 & _MASK)


_X2, _M2 = _HASH_MIX[2]
(_X10, _M10), (_X11, _M11), (_X12, _M12), \
    (_X13, _M13), (_X14, _M14), (_X15, _M15) = _HASH_MIX[10:]
(_Y0, _N0), (_Y1, _N1), (_Y2, _N2), (_Y3, _N3) = _HASH_OUT


def _key_words(seed: int, kind: int, index):
    """The four uint32 words of ``SeedSequence((seed, kind, index))
    .generate_state(4)``, for an int ``index`` or a uint32 array of them.

    The (seed, kind) part of the pool mix comes from ``_pool_head``; the
    rest is SeedSequence's mixing of the index word into the pool and the
    hashes out, written out in full: a call per hash costs about half as
    much again per key.
    """
    l0, l1, l3, r5, r8 = _pool_head(seed, kind)
    v = (index ^ _X2) * _M2 & _MASK
    p2 = v ^ v >> 16
    v = (_MIX_L * p2 - r5) & _MASK
    p2 = v ^ v >> 16
    v = (_MIX_L * p2 - r8) & _MASK
    p2 = v ^ v >> 16
    # source 2 into pool words 0, 1 and 3
    v = (p2 ^ _X10) * _M10 & _MASK
    v = (l0 - _MIX_R * (v ^ v >> 16)) & _MASK
    p0 = v ^ v >> 16
    v = (p2 ^ _X11) * _M11 & _MASK
    v = (l1 - _MIX_R * (v ^ v >> 16)) & _MASK
    p1 = v ^ v >> 16
    v = (p2 ^ _X12) * _M12 & _MASK
    v = (l3 - _MIX_R * (v ^ v >> 16)) & _MASK
    p3 = v ^ v >> 16
    # source 3 into pool words 0, 1 and 2
    v = (p3 ^ _X13) * _M13 & _MASK
    v = (_MIX_L * p0 - _MIX_R * (v ^ v >> 16)) & _MASK
    p0 = v ^ v >> 16
    v = (p3 ^ _X14) * _M14 & _MASK
    v = (_MIX_L * p1 - _MIX_R * (v ^ v >> 16)) & _MASK
    p1 = v ^ v >> 16
    v = (p3 ^ _X15) * _M15 & _MASK
    v = (_MIX_L * p2 - _MIX_R * (v ^ v >> 16)) & _MASK
    p2 = v ^ v >> 16
    # hashed out
    w0 = (p0 ^ _Y0) * _N0 & _MASK
    w1 = (p1 ^ _Y1) * _N1 & _MASK
    w2 = (p2 ^ _Y2) * _N2 & _MASK
    w3 = (p3 ^ _Y3) * _N3 & _MASK
    return w0 ^ w0 >> 16, w1 ^ w1 >> 16, w2 ^ w2 >> 16, w3 ^ w3 >> 16

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


def _checked_key(seed, kind, index):
    """The three words of a stream key, each checked by ``check_key``."""
    return (check_key("seed", seed), check_key("kind", kind),
            check_key("index", index))


def _key(seed: int, kind: int, index: int):
    """Philox key of ``substream(seed, kind, index)``, two Python ints."""
    w0, w1, w2, w3 = _key_words(seed, kind, index)
    return [w0 | w1 << 32, w2 | w3 << 32]


# keys per block of ``_key_block``
KEY_BLOCK = 1024


@lru_cache(maxsize=4)
def _key_block(seed: int, kind: int, block: int) -> np.ndarray:
    """``philox_keys`` of indices ``block * KEY_BLOCK`` up to the next
    block's first, or to the last index.  A block costs about as much as
    a few dozen ``_key`` calls and holds 16 KB; four of them serve a walk
    of consecutive replicas, in either direction, without holding many
    keys past it.  The words must be checked first: the cache takes True
    for 1 and 1.0 for 1.
    """
    lo = block * KEY_BLOCK
    keys = philox_keys(seed, kind, np.arange(lo, min(lo + KEY_BLOCK, KEY_WORDS)))
    keys.flags.writeable = False  # shared by every caller of the cache
    return keys


def stream_candidates(seed: int, kind: int, index: int, rate: float,
                      horizon: float, picks: bool = False):
    """``candidate_batch(substream(seed, kind, index), rate, horizon)``.

    Byte-equal to it, but re-keys the shared generator with the key from
    ``_key_words`` instead of building one.  With ``picks`` it also returns the next n uniforms of the stream,
    which choose each candidate's particle in a merged stream.  A zero rate
    or horizon draws nothing and derives no key.
    """
    key = _checked_key(seed, kind, index)
    if rate <= 0.0 or horizon <= 0.0:
        return tuple(np.empty(0) for _ in range(3 if picks else 2))
    rng = _rekeyed(_key(*key))
    times, marks = candidate_batch(rng, rate, horizon)
    if picks:
        return times, marks, rng.random(len(times))
    return times, marks


def candidate_lists(seed: int, kind: int, index: int, rate: float,
                    horizon: float):
    """``stream_candidates(seed, kind, index, rate, horizon)`` as two lists
    of Python floats, for a scalar loop over a short stream.

    One draw of 2n uniforms gives the doubles of ``candidate_batch``'s two
    draws of n, and sorting and IEEE products are exact, so the values are
    the same bits; no numpy array is built around them.  The key is a row
    of ``_key_block``.
    """
    seed, kind, index = _checked_key(seed, kind, index)
    if rate <= 0.0 or horizon <= 0.0:
        return [], []
    block, row = divmod(index, KEY_BLOCK)
    rng = _rekeyed(_key_block(seed, kind, block)[row])
    n = int(rng.poisson(_mean_count(rate, horizon)))
    draws = rng.random(2 * n).tolist()
    times = sorted(draws[:n])
    return [u * horizon for u in times], [u * rate for u in draws[n:]]


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


def replica_candidates(seed: int, kind: int, count: int, rate: float,
                       horizon: float, start: int = 0):
    """Candidates of the substreams ``start, ..., start + count - 1``.

    Returns ``(times, marks, counts)``: the slice of stream r is
    byte-equal to ``candidate_batch(substream(seed, kind, r), rate,
    horizon)``, and the streams follow each other in index order.  Each
    stream re-keys one reused Philox at counter 0 with an empty buffer,
    the state a fresh ``substream`` starts in, and draws its count n, then
    2n uniforms in one call: the same doubles as ``candidate_batch``'s two
    draws of n, its times and then its marks.  A zero rate draws nothing
    and derives no key, but checks the key words all the same.
    """
    if (isinstance(count, bool) or not isinstance(count, (int, np.integer))
            or count < 0):
        raise ConfigError("count: must be an integer >= 0")
    seed, kind = check_key("seed", seed), check_key("kind", kind)
    if count:
        check_key("index", start)
        check_key("index", start + count - 1)
    counts = np.zeros(count, dtype=np.int64)
    if rate <= 0.0 or horizon <= 0.0 or count == 0:
        return np.empty(0), np.empty(0), counts
    lam = _mean_count(rate, horizon)
    keys = philox_keys(seed, kind, np.arange(start, start + count))
    draws = []
    for r, key in enumerate(keys.tolist()):
        rng = _rekeyed(key)
        n = int(rng.poisson(lam))
        counts[r] = n
        draws.append(rng.random(2 * n))
    draws = np.concatenate(draws)
    # stream r holds its n_r times, then its n_r marks, from 2 * first_r
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(count), counts)
    at = first[owner] + np.arange(len(owner))
    raw = draws[at]
    times = raw[np.lexsort((raw, owner))] * horizon
    marks = draws[at + counts[owner]] * rate
    return times, marks, counts
