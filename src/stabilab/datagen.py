"""Synthetic data generation under almost-sure boundedness assumptions.

Every feature family is constructed so the Euclidean bound ||X||_2 <= b_x
holds by construction (never by rejection), which keeps sampling
deterministic given a seed:

* ``uniform_ball``      -- uniform on the radius-b_x ball.
* ``uniform_cube``      -- coordinates uniform on [-b_x/sqrt(d), b_x/sqrt(d)].
* ``rademacher_coords`` -- coordinates are +-b_x/sqrt(d), so ||X||_2 == b_x.

Label models:

* ``linear_clipped``   -- Y = clip(<beta_star, X> + noise, [-b_y, b_y]) with
  Gaussian noise of scale ``noise_scale``; requires b_y >= ||beta_star|| b_x
  so the clip is a projection of noise excursions only.
* ``linear_gaussian``  -- Y = <beta_star, X> + Gaussian noise (unbounded Y,
  sub-Gaussian with the derived proxy v = noise_scale^2 + ||beta_star||^2
  b_x^2); a label bound b_y is rejected.
* ``bernoulli_label``  -- Y in {0, 1} with P(Y=1 | X) = clip(p0 + <beta_star,
  X>, 0, 1) where p0 is taken from ``noise_scale``.  For the symmetric
  feature families the marginal P(Y=1) equals p0 exactly whenever
  ||beta_star|| b_x <= min(p0, 1-p0).

Seeding uses a splitmix64-style avalanche of (base_seed, stream_index), so
distinct streams are reproducible regardless of evaluation order.  A
stream's derived seed s seeds ``np.random.PCG64(s)``: numpy's
``SeedSequence(s)`` hashes s into four 64-bit words, and PCG64 sets its
128-bit state and increment from them with PCG's ``srandom`` step.
``sample_stack`` repeats that hash on a whole array of seeds at once and
sets each stream's state on one reused PCG64, with the same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

X_FAMILIES = ("uniform_ball", "uniform_cube", "rademacher_coords")
Y_MODELS = ("linear_clipped", "linear_gaussian", "bernoulli_label")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(base_seed, stream_index):
    """Splitmix64 avalanche of (base_seed, stream_index) into one 64-bit seed.

    Takes Python ints, or uint64 arrays (broadcast together), on which
    numpy wraps modulo 2**64 as the masks do for ints.
    """
    x = (base_seed ^ ((stream_index * _GOLDEN) & _MASK64)) & _MASK64
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _as_integer(value, name: str) -> int:
    """int(value) of an int, a numpy integer or an integral float; a bool, a
    string or a fractional number is a ValueError, not converted."""
    if type(value) is int:  # the common case, kept cheap for SeedSpec.child
        return value
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, (bool, np.bool_)) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, name: str) -> float:
    """float(value) of an int, a float or a numpy real; a bool, a string or
    any other value is a ValueError, not converted."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, (bool, np.bool_)) or not real:
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_tuple(values, convert, name: str) -> tuple:
    """convert(v, name) of each entry of a list, tuple or array; any other
    value is taken as a single entry."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        values = (values,)
    return tuple(convert(v, name) for v in values)


@dataclass(frozen=True)
class SeedSpec:
    """A reproducible random stream: (base_seed, stream_index)."""

    base_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= _as_integer(self.base_seed, "base_seed") <= _MASK64:
            raise ValueError("base_seed must be a 64-bit unsigned integer")
        if _as_integer(self.stream_index, "stream_index") < 0:
            raise ValueError("stream_index must be nonnegative")

    def derived_seed(self) -> int:
        return _mix64(int(self.base_seed), int(self.stream_index))

    def child(self, stream_index: int) -> "SeedSpec":
        """Sub-stream rooted at this stream's derived seed."""
        return SeedSpec(self.derived_seed(), stream_index)

    def child_seeds(self, start: int, stop: int) -> np.ndarray:
        """child(r).derived_seed() for r in range(start, stop), as a uint64
        array, without building the SeedSpecs."""
        if not 0 <= start <= stop:
            raise ValueError("child_seeds needs 0 <= start <= stop")
        return _mix64(self.derived_seed(), np.arange(start, stop, dtype=np.uint64))

    def grandchild_seeds(self, start: int, stop: int, stream_index: int) -> np.ndarray:
        """child(r).child(stream_index).derived_seed() for r in range(start,
        stop), as a uint64 array, without building the SeedSpecs."""
        if not 0 <= start <= stop or stream_index < 0:
            raise ValueError("grandchild_seeds needs 0 <= start <= stop and stream_index >= 0")
        return _mix64(self.child_seeds(start, stop), stream_index)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.derived_seed()))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4,
# and PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns (count, 1) of the xor and the multiplier of count successive
    hashes: the hash constant before and after it is multiplied by mult,
    modulo 2**32."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


# Pool size 4 and at most two entropy words (a 64-bit seed): hashes 0-3
# fill the pool, and hashes 4-15 mix every ordered pair of its words.  The
# output hashes 8 words, 4 uint64, from the pool in turn.
_POOL_XOR, _POOL_MULT = _hash_consts(_INIT_A, _MULT_A, 16)
_OUT_XOR, _OUT_MULT = _hash_consts(_INIT_B, _MULT_B, 8)
_OTHER_WORDS = [np.array([i for i in range(4) if i != src]) for src in range(4)]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of np.random.PCG64(int(s)).state for each uint64 seed s.

    SeedSequence(s).generate_state(4, np.uint64) vectorised over the seeds
    in uint32, then PCG64's srandom step on each stream's 128-bit words.
    """
    # The pool starts as the seed's 32-bit words, low first; a seed below
    # 2**32 has one word, and the pool hashes a missing word as 0.
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds.astype(np.uint32)
    pool[1] = (seeds >> 32).astype(np.uint32)
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    # Word src is mixed into each other word in turn; it does not change
    # while it is the source, so its three hashes are taken at once.
    for src, dst in enumerate(_OTHER_WORDS):
        k = slice(4 + 3 * src, 7 + 3 * src)
        hashed = _hashmix(pool[src], _POOL_XOR[k], _POOL_MULT[k])
        mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> 16)
    out = _hashmix(np.concatenate([pool, pool]), _OUT_XOR, _OUT_MULT).astype(np.uint64)
    # Words 2k and 2k+1 are the low and high halves of uint64 k.
    words = (out[0::2] | (out[1::2] << 32)).T.tolist()
    states = []
    for s0, s1, i0, i1 in words:
        # PCG64 takes initstate from words 0 (high half) and 1, initseq from
        # words 2 and 3, then srandom: inc = initseq << 1 | 1; step from 0;
        # add initstate; step.  A step is state * MULT + inc mod 2**128.
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


@functools.cache
def _stream_generator() -> np.random.Generator:
    """The Generator on the one PCG64 that sample_stack re-seeds per stream.

    Made on first use, so that importing stabilab does not import
    numpy.random.
    """
    return np.random.Generator(np.random.PCG64(0))


@dataclass(frozen=True)
class DataSpec:
    """Distribution family plus the assumption parameters it satisfies."""

    d: int
    x_family: str
    b_x: float
    y_model: str
    beta_star: tuple[float, ...]
    noise_scale: float = 0.0
    b_y: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _as_integer(self.d, "d"))
        object.__setattr__(self, "b_x", _as_float(self.b_x, "b_x"))
        object.__setattr__(self, "beta_star", _as_tuple(self.beta_star, _as_float, "beta_star"))
        object.__setattr__(self, "noise_scale", _as_float(self.noise_scale, "noise_scale"))
        if self.b_y is not None:
            object.__setattr__(self, "b_y", _as_float(self.b_y, "b_y"))
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.x_family not in X_FAMILIES:
            raise ValueError(f"unknown x_family {self.x_family!r}")
        if self.y_model not in Y_MODELS:
            raise ValueError(f"unknown y_model {self.y_model!r}")
        if not (math.isfinite(self.b_x) and self.b_x > 0):
            raise ValueError("b_x must be a positive real")
        if len(self.beta_star) != self.d:
            raise ValueError("beta_star must have length d")
        if not all(math.isfinite(t) for t in self.beta_star):
            raise ValueError("beta_star entries must be finite")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError("noise_scale must be nonnegative")

        if self.y_model in ("linear_clipped", "bernoulli_label"):
            if self.b_y is None:
                raise ValueError(f"{self.y_model} requires b_y")
            if not (math.isfinite(self.b_y) and self.b_y > 0):
                raise ValueError("b_y must be a positive real")
        elif self.b_y is not None:
            raise ValueError("linear_gaussian labels are unbounded; b_y is not allowed")
        elif not self.noise_scale * self.noise_scale + (
            self.beta_norm() * self.beta_norm() * (self.b_x * self.b_x)
        ) > 0:  # subgaussian_v(), multiplied so that it cannot overflow
            raise ValueError("linear_gaussian derives the proxy v = noise_scale^2 + "
                             "||beta_star||^2 b_x^2, which must be positive")
        if self.y_model == "linear_clipped" and self.b_y < self.beta_norm() * self.b_x:
            raise ValueError(
                "linear_clipped requires b_y >= ||beta_star||_2 * b_x "
                "(clipping must only project noise)"
            )
        if self.y_model == "bernoulli_label":
            if not 0.0 <= self.noise_scale <= 1.0:
                raise ValueError(
                    "bernoulli_label uses noise_scale as the base label "
                    "probability; it must lie in [0, 1]"
                )
            if self.b_y < 1.0:
                raise ValueError("bernoulli_label labels lie in {0,1}; b_y must be >= 1")

    def beta_norm(self) -> float:
        return float(np.linalg.norm(self.beta_star))

    def subgaussian_v(self) -> float | None:
        """Sub-Gaussian proxy v for Y under the Gaussian label model: the
        noise variance plus the signal range ||beta||^2 b_x^2.  None for the
        bounded label models, whose bounds use b_y."""
        if self.y_model == "linear_gaussian":
            return self.noise_scale**2 + self.beta_norm() ** 2 * self.b_x**2
        return None

    def bernoulli_p(self) -> float:
        """Exact marginal P(Y=1) for the Bernoulli label model.

        Valid whenever the conditional probability never clips, i.e.
        ||beta_star|| b_x <= min(p0, 1-p0); raises otherwise.
        """
        if self.y_model != "bernoulli_label":
            raise ValueError("bernoulli_p only applies to bernoulli_label specs")
        p0 = self.noise_scale
        if self.beta_norm() * self.b_x > min(p0, 1.0 - p0) + 1e-12:
            raise ValueError(
                "bernoulli marginal is closed-form only when "
                "||beta_star|| * b_x <= min(p0, 1-p0)"
            )
        return p0


@dataclass(eq=False)
class Dataset:
    """A labeled sample: xs has shape (n, d), ys shape (n,)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.ys = np.asarray(self.ys, dtype=np.float64)
        if self.xs.ndim != 2 or self.ys.ndim != 1:
            raise ValueError("xs must be (n, d) and ys (n,)")
        if self.xs.shape[0] != self.ys.shape[0]:
            raise ValueError("xs and ys disagree on n")
        if self.xs.shape[0] < 1 or self.xs.shape[1] < 1:
            raise ValueError("dataset needs n >= 1 and d >= 1")
        if not (np.isfinite(self.xs).all() and np.isfinite(self.ys).all()):
            raise ValueError("dataset contains non-finite entries")

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]


def _row_norms(g: np.ndarray) -> np.ndarray:
    """np.linalg.norm(g, axis=1) bit for bit, without the per-row reduce; 1 on a zero row.

    numpy reduces a row of fewer than 8 entries left to right, which the
    column-by-column sum repeats; from 8 entries on its pairwise reduce
    uses 8 accumulators, so wider rows go to np.linalg.norm itself.
    """
    d = g.shape[1]
    if d >= 8:
        norms = np.linalg.norm(g, axis=1)
    else:
        norms = g[:, 0] * g[:, 0]
        for c in range(1, d):
            norms += g[:, c] * g[:, c]
        np.sqrt(norms, out=norms)
    norms[norms == 0.0] = 1.0
    return norms


def _scale_to_ball(g: np.ndarray, norms: np.ndarray, radii: np.ndarray, spec: DataSpec) -> None:
    """g / norms * (b_x * radii ** (1/d)) in place: normal rows onto the ball."""
    radii **= 1.0 / spec.d
    radii *= spec.b_x
    # Per column and in place, divide then multiply, as g / norms * radii
    # rounds; g * (radii / norms) would round differently.
    for c in range(spec.d):
        col = g[:, c]
        col /= norms
        col *= radii


def _sample_features(spec: DataSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    d = spec.d
    if spec.x_family == "uniform_ball":
        g = rng.standard_normal((n, d))
        # The norms before the radii draw: in the other order a 20,000-row
        # draw takes ~125 more minor page faults and runs ~20% slower.
        _scale_to_ball(g, _row_norms(g), rng.random(n), spec)
        return g
    if spec.x_family == "uniform_cube":
        half = spec.b_x / math.sqrt(d)
        return rng.uniform(-half, half, size=(n, d))
    # rademacher_coords: signs scaled so the norm is exactly b_x
    signs = rng.integers(0, 2, size=(n, d)) * 2 - 1
    return signs * (spec.b_x / math.sqrt(d))


def _clip_inplace(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """np.clip(a, lo, hi) into a itself; bitwise equal for finite a."""
    np.maximum(a, lo, out=a)
    return np.minimum(a, hi, out=a)


def _labels(spec: DataSpec, signal: np.ndarray, draws: np.ndarray) -> np.ndarray:
    # Labels from <beta_star, x> and the label draws, in place on both. Each
    # label model does the operations of its plain expression, such as
    # np.clip(signal + noise_scale * noise, -b_y, b_y), in the same order.
    if spec.y_model == "bernoulli_label":
        signal += spec.noise_scale
        p = _clip_inplace(signal, 0.0, 1.0)
        return (draws < p).astype(np.float64)
    draws *= spec.noise_scale
    signal += draws
    if spec.y_model == "linear_clipped":
        return _clip_inplace(signal, -spec.b_y, spec.b_y)
    return signal


def sample_dataset(spec: DataSpec, n: int, seed: SeedSpec) -> Dataset:
    """Draw n i.i.d. points; deterministic given (spec, n, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = seed.generator()
    xs = _sample_features(spec, n, rng)
    signal = xs @ np.asarray(spec.beta_star)
    draws = rng.random(n) if spec.y_model == "bernoulli_label" else rng.standard_normal(n)
    return Dataset(xs, _labels(spec, signal, draws))


# Bytes of one chunk's stacked training features: enough replications to
# amortise the per-chunk numpy calls, few enough that the stacks and the
# kernels' temporaries stay small.
_CHUNK_BYTES = 1 << 16


def _chunk_reps(n: int, d: int) -> int:
    """Replications per sample_stack chunk of n-point samples in d dimensions."""
    return max(1, _CHUNK_BYTES // (8 * n * d))


def sample_stack(spec: DataSpec, n: int, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One n-point sample per derived seed, stacked: xs (m, n, d) and ys (m, n).

    seeds holds m uint64 derived seeds (SeedSpec.derived_seed()), and
    sample i is bit for bit sample_dataset(spec, n, seed) for the SeedSpec
    whose derived seed is seeds[i].  Each stream's PCG64 state is set on
    one reused generator, which makes the same calls, in the same order
    and with the same sizes, into preallocated stacks; the arithmetic
    after the draws runs once.  The generator is shared by every call, so
    sample_stack must not run in two threads at once.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if n < 1:
        raise ValueError("n must be >= 1")
    if seeds.ndim != 1 or len(seeds) == 0:
        raise ValueError("sample_stack needs at least one seed, in a 1-d array")
    m, d = len(seeds), spec.d
    xs, radii, draws = np.empty((m, n, d)), np.empty((m, n)), np.empty((m, n))
    half = spec.b_x / math.sqrt(d)
    rng = _stream_generator()
    bit_generator = rng.bit_generator
    label_draw = rng.random if spec.y_model == "bernoulli_label" else rng.standard_normal
    for i, (state, inc) in enumerate(_pcg64_states(seeds)):
        # has_uint32 = 0 drops a 32-bit half-word that integers() may have
        # buffered from the previous stream, as a fresh PCG64 has none.
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        if spec.x_family == "uniform_ball":
            rng.standard_normal(out=xs[i])
            rng.random(out=radii[i])
        elif spec.x_family == "uniform_cube":
            xs[i] = rng.uniform(-half, half, size=(n, d))
        else:
            xs[i] = rng.integers(0, 2, size=(n, d))
        label_draw(out=draws[i])
    if spec.x_family == "uniform_ball":
        flat = xs.reshape(m * n, d)
        _scale_to_ball(flat, _row_norms(flat), radii.reshape(m * n), spec)
    elif spec.x_family == "rademacher_coords":
        np.copysign(half, xs - 0.5, out=xs)  # bits 0/1 to -half/+half, as signs * half
    # The stacked matmul runs one product per (n, d) sample, so it rounds as
    # sample_dataset's does; the flat (m*n, d) @ beta rounds differently.
    ys = _labels(spec, xs @ np.asarray(spec.beta_star), draws)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("sampled stack contains non-finite entries")
    return xs, ys


def _unchecked_dataset(xs: np.ndarray, ys: np.ndarray) -> Dataset:
    """A Dataset of float64 arrays xs (n, d) and ys (n,) whose shapes and
    finite values are already known, without Dataset.__post_init__'s pass
    over every entry."""
    data = object.__new__(Dataset)
    data.xs, data.ys = xs, ys
    return data


def leave_one_out(data: Dataset, j: int) -> Dataset:
    """Remove the j-th point (1-based), preserving the order of the rest."""
    if data.n < 2:
        raise ValueError("leave_one_out needs n >= 2")
    if not 1 <= j <= data.n:
        raise ValueError(f"index j={j} out of range 1..{data.n}")
    keep = np.arange(data.n) != (j - 1)
    return Dataset(data.xs[keep], data.ys[keep])


def replace_point(data: Dataset, j: int, z_new: tuple[np.ndarray, float]) -> Dataset:
    """Swap the j-th point (1-based) for z_new = (x, y), all others untouched."""
    if not 1 <= j <= data.n:
        raise ValueError(f"index j={j} out of range 1..{data.n}")
    x_new, y_new = z_new
    x_new = np.asarray(x_new, dtype=np.float64)
    y_new = float(y_new)
    if x_new.shape != (data.d,):
        raise ValueError(f"replacement x must have shape ({data.d},)")
    # A list of d Python floats checks faster than an np.isfinite pass at
    # the small d of a swap, and rejects the same values.
    if not (all(map(math.isfinite, x_new.tolist())) and math.isfinite(y_new)):
        raise ValueError("replacement point contains non-finite entries")
    xs = data.xs.copy()
    ys = data.ys.copy()
    xs[j - 1] = x_new
    ys[j - 1] = y_new
    # The other rows were validated when data was built (no code writes into
    # a Dataset's arrays) and the new point just now.
    return _unchecked_dataset(xs, ys)

