"""Deterministic random-number-generator derivation.

Every stochastic element in the reproduction (simulated measurement noise,
bootstrap samples, GA operators, configuration sampling) draws from a
``numpy.random.Generator``.  To keep experiments reproducible *and* to make
the simulated cluster behave like a real one — the same (program, datasize,
configuration) always produces the same measurement, while different
configurations perturb execution independently — generators are derived
from stable string keys rather than shared globally.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, Union

import numpy as np

_Seedable = Union[str, int, float, bool, bytes]


def stable_seed(*parts: _Seedable) -> int:
    """Derive a 64-bit seed from arbitrary hashable parts.

    Uses BLAKE2b so the mapping is stable across processes and Python
    versions (unlike the builtin ``hash``, which is salted per process).

    >>> stable_seed("kmeans", 1024) == stable_seed("kmeans", 1024)
    True
    >>> stable_seed("kmeans", 1024) != stable_seed("kmeans", 1025)
    True
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bytes):
            digest.update(part)
        elif isinstance(part, float):
            # repr() keeps full precision; format stability matters more
            # than compactness here.
            digest.update(repr(part).encode("utf-8"))
        else:
            digest.update(str(part).encode("utf-8"))
        digest.update(b"\x1f")  # separator so ("ab","c") != ("a","bc")
    return int.from_bytes(digest.digest(), "little")


def derive_rng(*parts: _Seedable) -> np.random.Generator:
    """Return a fresh ``numpy.random.Generator`` keyed by ``parts``."""
    return np.random.default_rng(stable_seed(*parts))


def spawn_rngs(base: str, keys: Iterable[_Seedable]) -> list:
    """Derive one generator per key, all rooted at ``base``."""
    return [derive_rng(base, key) for key in keys]


# NumPy 2's Generator over a 64-bit bit generator such as PCG64:
# ``integers(0, s + 1)`` for ``s < 2**32`` is 32-bit Lemire sampling on
# one half of a 64-bit word (the low half first; the high half stays
# buffered in the bit generator's ``uinteger`` until the next 32-bit
# draw), a rejection costs one more half, ``s == 0`` draws nothing, and
# ``random()`` takes a whole fresh word, ``(w >> 11) * 2**-53``, without
# touching the buffer.  DESIGN.md section 18 has the derivation.
_MASK32 = np.uint64(0xFFFFFFFF)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
_MAX_SPAN = 0xFFFFFFFF
_WINDOW = 1 << 14


def draw_rounds(
    rng: np.random.Generator, spans: Sequence[int], rounds: int
) -> np.ndarray:
    """``rounds`` rounds of scalar draws, one per slot, in one batched pass.

    Slot ``j`` of every round is ``rng.random()`` when ``spans[j]`` is
    negative and ``rng.integers(0, spans[j] + 1)`` otherwise (``0..2**32
    - 1``).  Returns the ``(rounds, len(spans))`` float64 matrix of the
    draws (integers are exact) and leaves ``rng`` in the state, buffered
    half included, that the same scalar calls made in round-major order
    would leave: the values and the stream are bit-identical.

    The raw 64-bit words come from ``bit_generator.random_raw``; which
    word and half each draw reads is worked out from running counts of
    the draws before it.  A Lemire rejection shifts every later draw by
    one half, so a window of draws is evaluated up to its first
    rejection, which is retried at the head of the next window.
    """
    spans = [int(s) for s in spans]
    if any(s > _MAX_SPAN for s in spans):
        raise ValueError(f"integer spans above {_MAX_SPAN} are not supported")
    out = np.zeros((rounds, len(spans)))
    active = [j for j, s in enumerate(spans) if s != 0]
    if rounds == 0 or not active:
        return out
    bitgen = rng.bit_generator
    state = bitgen.state
    if "has_uint32" not in state:
        raise TypeError(f"{state['bit_generator']} has no buffered 32-bit draws")
    k = len(active)
    slot_half = np.array([spans[j] > 0 for j in active])
    # Lemire: accept u32 when the low half of u32 * excl is >= thresh.
    excl = [spans[j] + 1 if spans[j] > 0 else 0 for j in active]
    slot_excl = np.array(excl, dtype=np.uint64)
    slot_thresh = np.array([2**32 % e if e else 0 for e in excl], dtype=np.uint64)

    flat = np.empty(rounds * k)
    buffered = int(state["has_uint32"])
    high = int(state["uinteger"])  # the buffered half, or the last one used
    pending = np.empty(0, dtype=np.uint64)  # words drawn, not yet consumed
    pos, total, window = 0, rounds * k, _WINDOW
    while pos < total:
        slot = np.arange(pos, min(pos + window, total)) % k
        half = slot_half[slot]
        # Halves consumed before each draw; an odd count reads the high
        # half of the word the previous even-count draw fetched.
        halves = np.cumsum(half) - half + buffered
        odd = half & (halves % 2 == 1)
        fresh = np.cumsum(~odd)  # 1-based index of each fetched word
        last_even = np.maximum.accumulate(np.where(half & ~odd, fresh, 0))
        index = np.where(odd, last_even, fresh)
        need = int(fresh[-1]) - len(pending)
        # Word 0 carries the buffered half; fetched words follow from 1.
        words = np.concatenate(
            (
                np.array([high << 32], dtype=np.uint64),
                pending,
                bitgen.random_raw(need) if need > 0 else np.empty(0, np.uint64),
            )
        )
        word = words[index]
        m = np.where(odd, word >> 32, word & _MASK32) * slot_excl[slot]
        rejected = np.flatnonzero(half & ((m & _MASK32) < slot_thresh[slot]))
        values = np.where(half, (m >> 32).astype(float), (word >> 11) * _DOUBLE_UNIT)
        if rejected.size:
            accepted = int(rejected[0])
            end = accepted + 1  # the rejected draw consumed its half
            window = min(max(2 * accepted, 64), _WINDOW)
        else:
            accepted = end = len(slot)
            window = min(2 * window, _WINDOW)
        flat[pos : pos + accepted] = values[:accepted]
        used_halves = np.flatnonzero(half[:end])
        if used_halves.size:
            high = int(word[used_halves[-1]] >> 32)
        buffered = int(halves[end - 1] + half[end - 1]) % 2
        pending = words[1 + int(fresh[end - 1]) :]
        pos += accepted
    assert not pending.size, "every fetched word is consumed"
    state = bitgen.state
    state["has_uint32"] = buffered
    state["uinteger"] = high
    bitgen.state = state
    out[:, active] = flat.reshape(rounds, k)
    return out
