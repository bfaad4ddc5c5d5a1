"""Named random substreams derived from a single root seed.

Every source of randomness in a run (demand, fleet placement, clustering,
Monte Carlo sampling) draws from its own named substream so components can be
re-seeded independently without perturbing each other.

:class:`Generator` is a pure-Python subset of ``numpy.random.Generator``
covering only the draws fairpool makes. Each draw returns, bit for bit, what
``numpy.random.default_rng(seed)`` returns for the same seed and the same
sequence of calls, so a run's bytes do not depend on numpy being installed:

- the bit generator is PCG64 (O'Neill 2014, HMC-CS-2014-0905): a 128-bit
  LCG whose state is stepped before each 64-bit XSL-RR output, seeded
  through numpy's ``SeedSequence`` (NEP 19) with a pool of four 32-bit words;
- a 32-bit draw uses one half of a 64-bit output and keeps the other half
  for the next 32-bit draw, across any 64-bit draws in between;
- bounded integers use Lemire's multiply-and-reject method on 32-bit draws
  (Lemire 2019, ACM TOMACS 29(1));
- ``poisson`` multiplies uniforms below a rate of 10 and uses Hörmann's
  PTRS with numpy's own log-gamma series at 10 and above;
- ``permutation`` is Fisher-Yates with numpy's masked rejection interval.
"""

import math

# CPython's built-in BLAKE2 is hashlib.blake2b, without hashlib's load of OpenSSL
from _blake2 import blake2b

__all__ = ["Generator", "subseed", "substream"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence hashing constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# numpy's random_loggam coefficients (Stirling series, highest term last)
_LOGGAM_A = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e00,
)


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """PCG64's (state, increment) after numpy seeds it from
    ``SeedSequence(seed)``."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    s0, s1, i0, i1 = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = (inc + (s0 << 64 | s1)) & _MASK128  # one step from state 0 leaves inc
    return (state * _PCG_MULT + inc) & _MASK128, inc


def _loggam(x: float) -> float:
    """numpy's ``random_loggam``: log Gamma(x), summed in its order."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[9]
    for k in range(8, -1, -1):
        gl0 *= x2
        gl0 += _LOGGAM_A[k]
    gl = gl0 / x0 + 0.5 * 1.8378770664093453e00 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


class Generator:
    """``numpy.random.default_rng(seed)``, for the calls fairpool makes.

    Array draws (``size=``) return lists; scalar draws return Python ints
    and floats.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, seed: int) -> None:
        self._state, self._inc = _pcg64_seed(seed)
        self._has_uint32 = False
        self._uinteger = 0

    def _next64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        value = self._next64()
        self._has_uint32 = True
        self._uinteger = value >> 32
        return value & _MASK32

    def _next_double(self) -> float:
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def _bounded(self, top: int) -> int:
        """A draw in [0, top], top < 2**32, by Lemire's method."""
        if top == 0:
            return 0  # numpy draws nothing for a one-value range
        span = top + 1
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (_MASK32 - top) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return m >> 32

    def integers(self, low: int, high: int | None = None, size: int | None = None):
        """Uniform integers in [low, high), or [0, low) when high is omitted."""
        if high is None:
            low, high = 0, low
        if high <= low:
            raise ValueError(f"integers: empty range [{low}, {high})")
        top = high - 1 - low
        if top > _MASK32:
            raise ValueError(f"integers: ranges wider than 2**32 are not supported, got {top + 1}")
        if size is None:
            return low + self._bounded(top)
        return [low + self._bounded(top) for _ in range(size)]

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """Uniform floats in [low, high)."""
        low = float(low)
        span = float(high) - low
        if size is None:
            return low + span * self._next_double()
        return [low + span * self._next_double() for _ in range(size)]

    def poisson(self, lam: float) -> int:
        """A Poisson count with mean lam."""
        if not lam >= 0.0:
            raise ValueError(f"poisson: rate must be non-negative, got {lam}")
        if lam >= 10.0:
            return self._poisson_ptrs(lam)
        if lam == 0.0:
            return 0
        enlam = math.exp(-lam)
        count = 0
        prod = 1.0
        while True:
            prod *= self._next_double()
            if prod <= enlam:
                return count
            count += 1

    def _poisson_ptrs(self, lam: float) -> int:
        """Hörmann's transformed rejection with squeeze, as numpy runs it."""
        slam = math.sqrt(lam)
        loglam = math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self._next_double() - 0.5
            v = self._next_double()
            us = 0.5 - abs(u)
            if us == 0.0:
                continue  # C computes k from -inf here and rejects it as negative
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            if v == 0.0:
                return k  # log(0) is -inf in C, which always accepts
            if (math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)) <= (
                -lam + k * loglam - _loggam(float(k + 1))
            ):
                return k

    def permutation(self, n: int) -> list[int]:
        """A shuffled ``list(range(n))``."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out


def subseed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for the named substream."""
    digest = blake2b(f"{root_seed}:{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def substream(root_seed: int, name: str) -> Generator:
    """A generator seeded by (root_seed, name), deterministic across processes."""
    return Generator(subseed(root_seed, name))
