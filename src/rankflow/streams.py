"""Seeded counter-based RNG streams.

Every stochastic component draws from a Philox generator keyed by
``(seed, kind, index)``.  Streams with distinct keys are independent, and a
stream's output depends only on its key, never on how many other streams
exist.  That is what lets a tagged particle keep the same driving noise as
the population size N changes, and what lets the original and flow-driven
models consume identical candidate marks.

``stream_candidates`` draws the candidates of one substream without building
its generator: it derives the Philox key with ``SeedSequence`` and re-keys
one module-level generator.  ``replica_candidates`` draws the candidates of
many consecutive substreams in one call; it derives their Philox keys in one
vectorized pass of the mixing that ``numpy.random.SeedSequence`` documents.
Both reproduce the ``substream`` bytes without building a ``SeedSequence``,
a ``Philox`` and a ``Generator`` per stream.
"""

from __future__ import annotations

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

# SeedSequence's hash constants (numpy.random.bit_generator), pool size 4.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_SHIFT = np.uint32(16)

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


def stream_candidates(seed: int, kind: int, index: int, rate: float,
                      horizon: float, picks: bool = False):
    """``candidate_batch(substream(seed, kind, index), rate, horizon)``.

    Byte-equal to it, but re-keys the shared generator instead of building
    one.  With ``picks`` it also returns the next n uniforms of the stream,
    which choose each candidate's particle in a merged stream.  A zero rate
    or horizon draws nothing and derives no key.
    """
    seed = check_key("seed", seed)
    kind = check_key("kind", kind)
    index = check_key("index", index)
    if rate <= 0.0 or horizon <= 0.0:
        return tuple(np.empty(0) for _ in range(3 if picks else 2))
    key = np.random.SeedSequence((seed, kind, index)).generate_state(2, np.uint64)
    rng = _rekeyed(key)
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


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 arrays; its constant advances per call."""

    def hash_words(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) % KEY_WORDS
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT)

    return hash_words


def philox_keys(seed: int, kind: int, indices) -> np.ndarray:
    """Philox keys of ``substream(seed, kind, r)`` for every r in ``indices``.

    Row q equals ``SeedSequence((seed, kind, indices[q])).generate_state(2,
    np.uint64)``: three entropy words hashed into a pool of four, mixed
    pairwise, then hashed out as four uint32 words, low word first.  The
    hash constants advance identically for every stream, so each step is
    one uint32 array operation over all streams (uint32 arrays wrap).
    """
    seed = check_key("seed", seed)
    kind = check_key("kind", kind)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if len(idx) and (idx.min() < 0 or idx.max() >= KEY_WORDS):
        raise ConfigError("index: must be an integer in [0, 2**32)")
    n = len(idx)
    entropy = (np.full(n, seed, dtype=np.uint32),
               np.full(n, kind, dtype=np.uint32),
               idx.astype(np.uint32), np.zeros(n, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _SHIFT)
    hashout = _hasher(_INIT_B, _MULT_B)
    words = [hashout(value).astype(np.uint64) for value in pool]
    return np.stack([words[0] | (words[1] << np.uint64(32)),
                     words[2] | (words[3] << np.uint64(32))], axis=1)


def replica_candidates(seed: int, kind: int, count: int, rate: float,
                       horizon: float, start: int = 0):
    """Candidates of the substreams ``start, ..., start + count - 1``.

    Returns ``(times, marks, counts)``: the slice of stream r is
    byte-equal to ``candidate_batch(substream(seed, kind, r), rate,
    horizon)``, and the streams follow each other in index order.  Each
    stream re-keys one reused Philox at counter 0 with an empty buffer,
    the state a fresh ``substream`` starts in, and draws its count n, then
    2n uniforms in one call: the same doubles as ``candidate_batch``'s two
    draws of n, its times and then its marks.  A zero rate draws nothing.
    """
    if count < 0:
        raise ConfigError("count: must be >= 0")
    keys = philox_keys(seed, kind, np.arange(start, start + count))
    counts = np.zeros(count, dtype=np.int64)
    if rate <= 0.0 or horizon <= 0.0 or count == 0:
        return np.empty(0), np.empty(0), counts
    lam = _mean_count(rate, horizon)
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
