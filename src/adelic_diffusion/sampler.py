"""Exact path sampling for one prime.

Three samplers:

* skeleton sampling: independent radial increments at given epochs;
* event-driven sampling: the process observed at spatial resolution p^r_min
  is a jump chain with exponential holding times (rate sigma alpha p^{-r b})
  and geometric overshoot radii, so any functional that only depends on
  ball occupancy at that resolution has exactly the right law;
* bridge sampling: recursive conditional draws where the conditional law of
  a midpoint given two pinned endpoints is sampled exactly by enumerating
  the ultrametric joint-radius classes of (|z-x|, |z-y|).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BridgeUnderflowError, ResolutionError, TruncationError
from .heat_kernel import (
    KernelParams,
    cached_radial_law,
    density,
    density_center,
    exit_rate,
)
from .padic import DEFAULT_PRECISION, PAdicScalar, uniform_sphere
from .rng import as_generator

# Largest expected event count rate * T an event path may be asked for.
MAX_EXPECTED_EVENTS = 10**7
# Digits drawn beyond an event jump's overshoot level.
EVENT_DIGIT_MARGIN = 12
# Equal-sphere rejection accepts with probability >= (p - 2)/(p - 1) >= 1/2,
# so this many straight rejections has probability <= 2**-64.
MAX_EQUAL_SPHERE_TRIES = 64


@dataclass(frozen=True)
class PathSkeleton:
    """Path observed at finitely many epochs; times[0] = 0, values[0] = start."""

    params: KernelParams
    times: tuple[float, ...]
    values: tuple[PAdicScalar, ...]

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must align")
        if not self.times or self.times[0] != 0.0:
            raise ValueError("skeleton must start at time 0")
        if any(t1 >= t2 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")

    @property
    def start(self) -> PAdicScalar:
        return self.values[0]

    def end_position(self) -> PAdicScalar:
        return self.values[-1]


@dataclass(frozen=True)
class EventPath:
    """First-exit event record at spatial resolution p^resolution.

    events[k] = (time, position after the k-th exit); between events the
    process stays inside the ball of radius p^resolution around the current
    position, so ball-occupancy functionals at this resolution are exact.
    """

    params: KernelParams
    resolution: int
    start: PAdicScalar
    events: tuple[tuple[float, PAdicScalar], ...]
    horizon: float

    def end_position(self) -> PAdicScalar:
        return self.events[-1][1] if self.events else self.start

    def position_at(self, s: float) -> PAdicScalar:
        """Holding-ball representative at time s in [0, horizon]."""
        pos = self.start
        for tk, xk in self.events:
            if tk > s:
                break
            pos = xk
        return pos

    def segments(self, upto: float | None = None):
        """Yield (duration, position) holding segments covering [0, upto]."""
        end = self.horizon if upto is None else upto
        t_prev, pos = 0.0, self.start
        for tk, xk in self.events:
            if tk >= end:
                break
            yield (tk - t_prev, pos)
            t_prev, pos = tk, xk
        yield (end - t_prev, pos)


@dataclass(frozen=True)
class BridgeSpec:
    """Conditioning data for the bridge measure from x at 0 to y at t."""

    params: KernelParams
    t: float
    x: PAdicScalar
    y: PAdicScalar

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("bridge horizon must be positive")
        if self.x.prime != self.y.prime or self.x.prime != self.params.p:
            raise ValueError("bridge endpoints must share the kernel prime")


# Radius window of the time-dt increment, covering >= 1 - 1e-12 of its mass.
increment_law = cached_radial_law


def sample_increment(params: KernelParams, dt: float, rng,
                     precision: int = DEFAULT_PRECISION) -> PAdicScalar:
    """One increment of the process over time dt (radial inverse CDF)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    gen = as_generator(rng)
    law = increment_law(params, dt)
    m = int(law.sample_exponents(gen, 1)[0])
    return uniform_sphere(gen, params.p, m, precision)


def sample_skeleton(params: KernelParams, epochs, start: PAdicScalar, rng,
                    precision: int = DEFAULT_PRECISION) -> PathSkeleton:
    """Skeleton at the given epochs (strictly increasing, all positive)."""
    epochs = [float(t) for t in epochs]
    if any(t2 <= t1 for t1, t2 in zip(epochs, epochs[1:])) or (epochs and epochs[0] <= 0):
        raise ValueError("epochs must be strictly increasing and positive")
    gen = as_generator(rng)
    times = [0.0]
    values = [start]
    prev_t, pos = 0.0, start
    for t in epochs:
        pos = pos + sample_increment(params, t - prev_t, gen, precision)
        times.append(t)
        values.append(pos)
        prev_t = t
    return PathSkeleton(params, tuple(times), tuple(values))


def sample_overshoot(params: KernelParams, gen: np.random.Generator) -> int:
    """Number of radius levels jumped past the current ball (k >= 1)."""
    return int(gen.geometric(1.0 - params.p ** (-params.b)))


def sample_event_path(params: KernelParams, start: PAdicScalar, T: float,
                      r_min: int, rng) -> EventPath:
    """Simulate first-exit events from balls of radius p^r_min up to time T."""
    if not T > 0:
        raise ValueError("horizon T must be positive")
    lam = exit_rate(params, r_min)
    if lam * T > MAX_EXPECTED_EVENTS:
        raise TruncationError(f"event path expects {lam * T:.3g} exits (limit "
                              f"{MAX_EXPECTED_EVENTS:.0e}); coarsen r_min or shorten T")
    gen = as_generator(rng)
    events: list[tuple[float, PAdicScalar]] = []
    t, pos = 0.0, start
    while True:
        t += gen.exponential(1.0 / lam)
        if t > T:
            break
        k = sample_overshoot(params, gen)
        jump = uniform_sphere(gen, params.p, r_min + k, precision=k + EVENT_DIGIT_MARGIN)
        pos = pos + jump
        events.append((t, pos))
    return EventPath(params, r_min, start, tuple(events), T)


def sup_norm_exceeds(path: EventPath, r: int) -> bool:
    """Whether sup_{s <= horizon} |X_s - start| > p^r (requires r >= resolution)."""
    if r < path.resolution:
        raise ResolutionError(
            f"radius p^{r} below path resolution p^{path.resolution}"
        )
    for _, pos in path.events:
        d = pos - path.start
        if not d.is_zero() and d.abs_exp() > r:
            return True
    return False


# -- bridge sampling -------------------------------------------------------

_AROUND_X0, _AROUND_X1, _EQUAL_SPHERES, _DIAGONAL = 0, 1, 2, 3


@lru_cache(maxsize=1 << 16)
def _bridge_classes(params: KernelParams, tau0: float, tau1: float,
                    delta: int | None):
    """Class labels and cumulative masses for the conditional midpoint law.

    Classes are ordered by (|z-x0| exponent, |z-x1| exponent) ascending so
    the inverse CDF is deterministic.
    """
    p = params.p
    law0 = increment_law(params, tau0)
    law1 = increment_law(params, tau1)
    labels: list[tuple[int, int]] = []
    weights: list[float] = []
    if delta is None:
        lo = min(law0.m_lo, law1.m_lo)
        hi = max(law0.m_hi, law1.m_hi)
        for j in range(lo, hi + 1):
            w = law0.mass(j) * law1.mass(j)
            if w > 0.0:
                mu = (p ** float(j)) * (1.0 - 1.0 / p)
                labels.append((_AROUND_X0, j))
                weights.append(w / mu)
    else:
        d0_delta = density(params, tau0, delta)
        d1_delta = density(params, tau1, delta)
        for j in range(law0.m_lo, delta):
            labels.append((_AROUND_X0, j))
            weights.append(law0.mass(j) * d1_delta)
        for k in range(law1.m_lo, delta):
            labels.append((_AROUND_X1, k))
            weights.append(law1.mass(k) * d0_delta)
        if p > 2:
            mu_free = (p ** float(delta)) * (1.0 - 2.0 / p)
            labels.append((_EQUAL_SPHERES, delta))
            weights.append(d0_delta * d1_delta * mu_free)
        hi = max(law0.m_hi, law1.m_hi)
        for j in range(delta + 1, hi + 1):
            w0 = law0.mass(j)
            if w0 > 0.0:
                labels.append((_DIAGONAL, j))
                weights.append(w0 * density(params, tau1, j))
    cum = np.cumsum(weights)
    return tuple(labels), cum


def _bridge_point(params: KernelParams, s0: float, x0: PAdicScalar,
                  s1: float, x1: PAdicScalar, s: float, gen,
                  precision: int) -> PAdicScalar:
    """Exact draw of X_s given X_{s0} = x0 and X_{s1} = x1."""
    p = params.p
    diff = x1 - x0
    labels, cum = _bridge_classes(params, s - s0, s1 - s, diff.abs_exp())
    if len(cum) == 0 or not cum[-1] > 0.0:
        raise BridgeUnderflowError(
            "conditional bridge mass underflows; endpoints too far for horizon"
        )
    idx = int(np.searchsorted(cum, gen.random() * cum[-1], side="right"))
    idx = min(idx, len(labels) - 1)
    kind, level = labels[idx]
    if kind == _AROUND_X0 or kind == _DIAGONAL:
        return x0 + uniform_sphere(gen, p, level, precision)
    if kind == _AROUND_X1:
        return x1 + (-uniform_sphere(gen, p, level, precision))
    # equal spheres: uniform on S_delta(x0) conditioned on |z - x1| = p^delta
    for _ in range(MAX_EQUAL_SPHERE_TRIES):
        z = x0 + uniform_sphere(gen, p, level, precision)
        d = z - x1
        if not d.is_zero() and d.abs_exp() == level:
            return z
    raise TruncationError(f"equal-sphere bridge draw rejected {MAX_EQUAL_SPHERE_TRIES} times")


def sample_bridge(params: KernelParams, spec: BridgeSpec, epochs, rng,
                  precision: int = DEFAULT_PRECISION) -> PathSkeleton:
    """Bridge skeleton at the given epochs inside (0, t), endpoints pinned.

    The returned skeleton includes (0, x) and (t, y).
    """
    epochs = sorted(float(t) for t in epochs)
    if epochs and not (0.0 < epochs[0] and epochs[-1] < spec.t):
        raise ValueError("epochs must lie strictly inside (0, t)")
    if len(set(epochs)) != len(epochs):
        raise ValueError("epochs must be distinct")
    d = spec.y - spec.x
    d_exp = d.abs_exp()
    rho = (
        density(params, spec.t, d_exp)
        if d_exp is not None
        else density_center(params, spec.t)
    )
    if not rho > 0.0:
        raise BridgeUnderflowError(
            f"endpoint density underflows at separation exponent {d_exp}"
        )
    gen = as_generator(rng)
    filled: dict[float, PAdicScalar] = {}

    def fill(left_t, left_x, right_t, right_x, eps):
        if not eps:
            return
        mid = len(eps) // 2
        s = eps[mid]
        z = _bridge_point(params, left_t, left_x, right_t, right_x, s, gen, precision)
        filled[s] = z
        fill(left_t, left_x, s, z, eps[:mid])
        fill(s, z, right_t, right_x, eps[mid + 1 :])

    fill(0.0, spec.x, spec.t, spec.y, epochs)
    times = (0.0, *epochs, spec.t)
    values = (spec.x, *(filled[s] for s in epochs), spec.y)
    return PathSkeleton(params, times, values)


def bridge_class_total(params: KernelParams, tau0: float, tau1: float,
                       delta: int | None) -> float:
    """Total mass of the midpoint class table `_bridge_point` draws from;
    equals density(tau0+tau1, delta) by Chapman-Kolmogorov, up to the mass
    below the increment laws' windows."""
    _, cum = _bridge_classes(params, tau0, tau1, delta)
    return float(cum[-1])
