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

`sample_bridge` draws one bridge skeleton as `PAdicScalar`s.  `fk_kernel`'s
`event_bridge_visits` runs the event chain at the potential's scale to the
ball around y, paths together as integers in a p-adic window, and counts
their visits to each potential region.  Likewise `event_path_sums` makes
`sample_event_path`'s draws as integers modulo B_{r_min}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import BridgeUnderflowError, ConfigError, ResolutionError, TruncationError
from .heat_kernel import (
    KernelParams,
    _frozen,
    _pow,
    ball_mass,
    cached_radial_law,
    density,
    density_center,
    exit_rate,
    sphere_mass,
)
from .lumped import return_probabilities
from .padic import (
    DEFAULT_PRECISION,
    Ball,
    PAdicScalar,
    uniform_ball,
    uniform_digits,
    uniform_sphere,
    window_ball,
)
from .rng import as_generator

# Largest expected event count rate * T an event path or bridge may be asked for.
MAX_EXPECTED_EVENTS = 10**7
# Digits drawn beyond an event jump's overshoot level.  No position modulo B_{r_min}
# reads them: they keep the seeded streams until a deliberate re-baseline.
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
            raise ConfigError("bridge horizon must be positive")
        if self.x.prime != self.y.prime or self.x.prime != self.params.p:
            raise ValueError("bridge endpoints must share the kernel prime")


# Radius window of the time-dt increment, covering >= 1 - 1e-12 of its mass.
increment_law = cached_radial_law


def sample_increment(params: KernelParams, dt: float, rng,
                     precision: int = DEFAULT_PRECISION) -> PAdicScalar:
    """One increment of the process over time dt (radial inverse CDF)."""
    if not dt > 0:
        raise ConfigError("dt must be positive")
    gen = as_generator(rng)
    m = int(increment_law(params, dt).sample_exponents(gen, 1)[0])
    return uniform_sphere(gen, params.p, m, precision)


def sample_skeleton(params: KernelParams, epochs, start: PAdicScalar, rng,
                    precision: int = DEFAULT_PRECISION) -> PathSkeleton:
    """Skeleton at the given epochs (strictly increasing, all positive)."""
    epochs = [float(t) for t in epochs]
    if any(t2 <= t1 for t1, t2 in zip(epochs, epochs[1:])) or (epochs and epochs[0] <= 0):
        raise ConfigError("epochs must be strictly increasing and positive")
    gen, values = as_generator(rng), [start]
    for prev_t, t in zip([0.0, *epochs], epochs):
        values.append(values[-1] + sample_increment(params, t - prev_t, gen, precision))
    return PathSkeleton(params, (0.0, *epochs), tuple(values))


def skeleton_stays(params: KernelParams, T: float, r: int, steps: int, count: int,
                   rng) -> np.ndarray:
    """Whether each of count skeletons from 0 on the grid T k/steps,
    k = 1..steps, stays in the ball of radius p^r.

    By the ultrametric inequality every position stays in the ball exactly
    when every increment does, so only the increment radii are drawn.
    """
    m = increment_law(params, T / steps).sample_exponents(as_generator(rng), count * steps)
    return (m.reshape(count, steps) <= r).all(axis=1)


def sample_overshoot(params: KernelParams, gen: np.random.Generator) -> int:
    """Number of radius levels jumped past the current ball (k >= 1)."""
    return int(gen.geometric(1.0 - params.p ** (-params.b)))


def _event_rate(params: KernelParams, r_min: int, T: float) -> float:
    """Exit rate at p^r_min, for a horizon expecting few enough exits."""
    if not T > 0:
        raise ConfigError("horizon T must be positive")
    lam = exit_rate(params, r_min)
    if lam * T > MAX_EXPECTED_EVENTS:
        raise TruncationError(f"event path expects {lam * T:.3g} exits (limit "
                              f"{MAX_EXPECTED_EVENTS:.0e}); coarsen r_min or shorten T")
    return lam


def sample_event_path(params: KernelParams, start: PAdicScalar, T: float,
                      r_min: int, rng) -> EventPath:
    """Simulate first-exit events from balls of radius p^r_min up to time T."""
    lam = _event_rate(params, r_min, T)
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


def event_path_sums(params: KernelParams, start: PAdicScalar, T: float, r_min: int,
                    rng, count: int, action_terms, end_terms) -> tuple[np.ndarray, np.ndarray]:
    """For each of count event paths drawn in turn: int_0^T Re f(X_s) ds, f the
    sum of action_terms, and the sum of end_terms at X_T ((ball, coeff) pairs,
    radii >= p^r_min).  Draws, sums and their order are sample_event_path's,
    _path_action's and eval_sb's, so the results are theirs to the bit.  X is
    held as M = (X - start) p^H mod p^(H - r_min), H widening exactly from r_min."""
    lam = _event_rate(params, r_min, T)
    gen, p = as_generator(rng), params.p
    terms = [(c, ball.center - start, ball.radius_exp) for ball, c in (*action_terms, *end_terms)]
    rules: dict[int, tuple[list, list]] = {}

    def at(H: int) -> tuple[list, list]:  # (coeff, m, key) rows; a bool rule as (1, 0) or (1, 1)
        if H not in rules:
            rows = [(c, *((1, 1 - rule) if isinstance(rule := window_ball(d, r, H), bool)
                          else rule)) for c, d, r in terms]
            rules[H] = rows[:len(action_terms)], rows[len(action_terms):]
        return rules[H]

    integrals, ends = np.empty(count), np.empty(count, dtype=complex)
    for j in range(count):
        t = t_prev = total = 0.0
        H, M, mod = r_min, 0, 1
        val = sum((c for c, m, key in at(H)[0] if M % m == key), 0j).real
        while True:
            t += gen.exponential(1.0 / lam)
            if t > T:
                break
            total += (t - t_prev) * val
            t_prev = t
            k = sample_overshoot(params, gen)
            lead = int(gen.integers(1, p))
            # all drawn to keep the stream; digits past the k - 1st lie in B_{r_min}
            digits = gen.integers(0, p, size=k + EVENT_DIGIT_MARGIN - 1)[:k - 1].tolist()
            e = r_min + k
            if e > H:
                M, mod, H = M * p ** (e - H), mod * p ** (e - H), e
            unit = lead + p * sum(d * p**i for i, d in enumerate(digits))
            M = (M + unit * p ** (H - e)) % mod
            val = sum((c for c, m, key in at(H)[0] if M % m == key), 0j).real
        # after an event at exactly T this adds 0, as EventPath.segments ends there
        integrals[j] = total + (T - t_prev) * val
        ends[j] = sum((c for c, m, key in at(H)[1] if M % m == key), 0j)
    return integrals, ends


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

_AROUND_X0, _AROUND_X1, _EQUAL_SPHERES, _DIAGONAL, _DEEP_X0, _DEEP_X1 = range(6)


@lru_cache(maxsize=1 << 16)
def _bridge_classes(params: KernelParams, tau0: float, tau1: float,
                    delta: int | None):
    """Class labels, an (n, 2) array of (kind, level) rows, and cumulative
    masses for the conditional midpoint law.

    A class is a sphere around x0 or x1 (or both), weighted by the product
    of the two analytic densities over the union of the increment laws'
    windows; below the windows one deep class holds the whole ball around
    x0 (or x1), where the kernel is flat, so its point is Haar-uniform.
    The total is then the Chapman-Kolmogorov density(tau0 + tau1, delta) up
    to the mass outside both windows.  Classes are ordered by kind, then
    level, so the inverse CDF is deterministic.
    """
    p = params.p
    law0 = increment_law(params, tau0)
    law1 = increment_law(params, tau1)
    lo, hi = min(law0.m_lo, law1.m_lo), max(law0.m_hi, law1.m_hi)
    labels: list[tuple[int, int]] = []
    weights: list[float] = []

    def add(kind: int, level: int, w: float):
        if w > 0.0:
            labels.append((kind, level))
            weights.append(w)

    def both(j: int) -> float:  # both legs land on the sphere p^j
        mu = (p ** float(j)) * (1.0 - 1.0 / p)
        return density(params, tau0, j) * density(params, tau1, j) * mu

    if delta is None:
        for j in range(lo, hi + 1):
            add(_AROUND_X0, j, both(j))
    else:
        d0_delta = density(params, tau0, delta)
        d1_delta = density(params, tau1, delta)
        deep = min(lo, delta) - 1
        add(_DEEP_X0, deep, ball_mass(params, tau0, deep) * d1_delta)
        for j in range(lo, delta):
            add(_AROUND_X0, j, sphere_mass(params, tau0, j) * d1_delta)
        add(_DEEP_X1, deep, ball_mass(params, tau1, deep) * d0_delta)
        for k in range(lo, delta):
            add(_AROUND_X1, k, sphere_mass(params, tau1, k) * d0_delta)
        if p > 2:
            mu_free = (p ** float(delta)) * (1.0 - 2.0 / p)
            add(_EQUAL_SPHERES, delta, d0_delta * d1_delta * mu_free)
        for j in range(delta + 1, hi + 1):
            add(_DIAGONAL, j, both(j))
    table = np.array(labels, dtype=np.int64).reshape(-1, 2)
    return _frozen(table), _frozen(np.cumsum(weights))


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
    kind, level = map(int, labels[idx])
    if kind == _DEEP_X0 or kind == _DEEP_X1:
        return uniform_ball(gen, p, Ball(x0 if kind == _DEEP_X0 else x1, level), precision)
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


def _endpoint_density(params: KernelParams, t: float, e: int | None) -> float:
    rho = density(params, t, e) if e is not None else density_center(params, t)
    if not rho > 0.0:
        raise BridgeUnderflowError(f"endpoint density underflows at separation exponent {e}")
    return rho


def sample_bridge(spec: BridgeSpec, epochs, rng,
                  precision: int = DEFAULT_PRECISION) -> PathSkeleton:
    """Bridge skeleton at the given epochs inside (0, t), endpoints pinned.

    The returned skeleton includes (0, x) and (t, y).
    """
    epochs = sorted(float(t) for t in epochs)
    if epochs and not (0.0 < epochs[0] and epochs[-1] < spec.t):
        raise ValueError("epochs must lie strictly inside (0, t)")
    if len(set(epochs)) != len(epochs):
        raise ValueError("epochs must be distinct")
    _endpoint_density(spec.params, spec.t, (spec.y - spec.x).abs_exp())
    params, gen, filled = spec.params, as_generator(rng), {}

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
    return PathSkeleton(params, (0.0, *epochs, spec.t), (spec.x, *map(filled.get, epochs), spec.y))


# -- event-chain bridges ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class BridgeLaw:
    """The event chain at p^r from x conditioned to end in B_r(y) at t, over classes
    i of |Y - y| = p^{r+i} (0: in B_r(y)): n jumps, lo <= n < lo + len(n_cum), from n_cum;
    with m left, a jump from i lands in j with weight step[i, j] h_{m-1}[j] (Doob's
    h-transform; h_n = rows([n])[0], h holds n < len(h), a walk takes later n in blocks of
    len(h)), and keeps i with its overshoot from stay_cum[i]; share: rho_t's no-jump part."""

    p: int
    start: int
    lo: int
    n_cum: np.ndarray
    h: np.ndarray
    rows: partial  # return_probabilities at the law's chain, of the given n
    step: np.ndarray
    stay_cum: np.ndarray
    share: float


@lru_cache(maxsize=256)
def bridge_law(params: KernelParams, t: float, r: int, e: int | None) -> BridgeLaw:
    rho = _endpoint_density(params, t, e)
    lam = _event_rate(params, r, t)
    p, q, mean, sd = params.p, params.p ** -params.b, lam * t, math.sqrt(lam * t)
    start = 0 if e is None or e <= r else e - r
    # no path reaching a class this far above the start's comes back but by ~2^-64
    classes = start + 1 + math.ceil(64 * math.log(2) / math.log(p / q))
    # Poisson weights are below e^-70 past hi and e^-200 under lo (h_n may be larger
    # there); h holds hi - lo + 2 rows, so a walk's rows at a step lie in two blocks
    lo, hi = max(1, math.floor(mean - 20 * sd - 40)), math.ceil(mean + 12 * sd + 40)
    rows = partial(return_probabilities, params, lam, r, classes)
    h = rows(np.arange(hi - lo + 2))
    window = h[lo:, start] if lo == 1 else rows(np.arange(lo, hi + 1))[:, start]
    weights = window * np.exp([n * math.log(mean) - mean - math.lgamma(n + 1)
                               for n in range(lo, hi + 1)])
    # no exit from B_r by t: the jumps within B_r decay a wavelet at level l <= r at
    # sigma p^{-(l-1)b} - lam, so rho_t(y-x) - rho_t(p^r) + (e^{-lam t} - e^{-level_r}) p^-r
    level_r = t * params.sigma * _pow(p, -(r - 1) * params.b)
    free = (rho - density(params, t, r) - math.exp(-mean) * math.expm1(mean - level_r)
            * _pow(p, -r)) if start == 0 else 0.0
    total = free + math.fsum(weights) * _pow(p, -r)
    if not total > 0.0:
        raise BridgeUnderflowError(f"endpoint density underflows at separation exponent {e}")
    # overshoot kappa ~ (1 - q) q^{kappa-1}: to class kappa > i; kept if kappa < i or if
    # its lead misses the one that cancels, else to j < i, uniform in B_{r+i-1}
    i, j = np.arange(classes)[:, None], np.arange(classes)
    over = (1.0 - q) * q ** (j - 1.0)
    cancel = over[i] / (p - 1) * np.where(j > 0, (1 - 1 / p) * float(p) ** (j - i + 1.0),
                                           float(p) ** (1.0 - i))
    keep = np.where((j > 0) & (j <= i), over[j], 0.0) * np.where(j == i, (p - 2) / (p - 1), 1.0)
    step = np.where(j > i, over[j], np.where(j < i, cancel, keep.sum(axis=1)[:, None]))
    return BridgeLaw(p, start, lo, _frozen(np.cumsum(weights)), _frozen(h), rows, _frozen(step),
                     _frozen(np.cumsum(keep, axis=1)), free / total)


@dataclass(frozen=True, eq=False)
class EventBridge:
    """A BridgeLaw from x to y under tau v, v a sum of (ball, coeff) terms of finest
    radius p^r: W = (Y - y) p^C mod p^width, width = C - r, up to p^C, the coarsest of
    the radii, |c - y| (centres c) and |y - x|, then the class alone; W is in the ball of
    rule (m, key) iff W % m == key, finest last; values: -t tau Re v by region, x's: home."""

    law: BridgeLaw
    width: int
    start: int
    rules: tuple[tuple[int, int], ...]
    values: tuple[float, ...]
    home: float


def event_bridge(params: KernelParams, t: float, x: PAdicScalar, y: PAdicScalar, tau: float,
                 terms) -> EventBridge:
    terms = sorted(terms, key=lambda term: -term[0].radius_exp)
    p, r, d = params.p, min((ball.radius_exp for ball, _ in terms), default=0), x - y
    law = bridge_law(params, t, r, d.abs_exp())  # first: it raises where rho_t underflows
    top = max([r, *(ball.radius_exp for ball, _ in terms)] + [e for e in (
        d.abs_exp(), *((ball.center - y).abs_exp() for ball, _ in terms)) if e is not None])
    rules = tuple(window_ball(ball.center - y, ball.radius_exp, top) for ball, _ in terms)
    # a ball's region sums the terms of every ball that holds it
    values = tuple(-t * tau * sum(coeff.real for (outer, coeff), (m, key) in zip(terms, rules)
                                  if outer.radius_exp >= ball.radius_exp and inner % m == key)
                   for (ball, _), (_, inner) in zip(terms, rules)) + (0.0,)
    if not -min(values) <= MAX_EXPECTED_EVENTS:  # about the terms a dirichlet_average takes
        raise TruncationError(f"bridge action spread t tau sup v = {-min(values):.3g} (limit "
                              f"{MAX_EXPECTED_EVENTS:.0e}); lower tau or shorten t")
    start = 0 if d.is_zero() else d.significand * p ** (d.valuation + top) % p ** (top - r)
    home = max((col for col, (m, key) in enumerate(rules) if start % m == key), default=-1)
    return EventBridge(law, top - r, start, rules, values, values[home])


def event_bridge_visits(bridge: EventBridge, rng, count: int) -> np.ndarray:
    """Visits of Y_0 .. Y_n of count bridges (rows, by decreasing n) to each rule's
    ball where it is the finest, then to none.  Paths jump together; W is int64 up
    to p^width = 2^62, Python ints above; a dropped class lands Haar-uniformly."""
    law, width, rules = bridge.law, bridge.width, bridge.rules
    p, gen, size, blocks = law.p, as_generator(rng), len(law.h), {0: law.h}
    dtype = np.int64 if p**width <= 2**62 else object
    pw = np.array([p**k for k in range(width + 1)], dtype=dtype)
    n = law.lo + np.searchsorted(law.n_cum, gen.random(count) * law.n_cum[-1], side="right")
    n = np.sort(np.minimum(n, law.lo + len(law.n_cum) - 1))[::-1]
    cls, W = np.full(count, law.start), np.full(count, bridge.start, dtype=dtype)
    counts = np.zeros((count, len(rules) + 1), dtype=np.int64)

    def rows(m: np.ndarray) -> np.ndarray:  # h_m, m descending, from the blocks the walk is in
        nonlocal blocks
        lo, hi = m[-1] // size, m[0] // size
        blocks = {b: blocks[b] if b in blocks else law.rows(np.arange(b * size, (b + 1) * size))
                  for b in {0, lo, hi}}
        return blocks[hi][m - hi * size] if lo == hi else np.where(
            (m >= hi * size)[:, None], blocks[hi][np.maximum(m - hi * size, 0)],
            blocks[lo][np.minimum(m - lo * size, size - 1)])

    def visit(k: int) -> None:
        region = np.full(k, len(rules))
        for col, (m, key) in enumerate(rules):
            region[(cls[:k] <= width) & (W[:k] % m == key)] = col
        counts[np.arange(k), region] += 1

    visit(count)
    for s in range(int(n[0]) if count else 0):
        k = int(np.count_nonzero(n > s))
        i, u = cls[:k], gen.random((3, k))
        cum = np.cumsum(law.step[i] * rows(n[:k] - s - 1), axis=1)
        j = np.minimum((cum <= u[0, :, None] * cum[:, -1:]).sum(axis=1), len(law.step) - 1)
        stay = law.stay_cum[i]
        kappa = np.where(j == i, (stay <= u[1, :, None] * stay[:, -1:]).sum(axis=1), j)
        kappa = np.clip(kappa, 1, max(width, 1))
        # jump p^(width - kappa) (lead + p rest); keeping i, it skips the lead that cancels
        keep = (j == i) & (kappa == i)
        lead = 1 + (u[2] * np.where(keep, p - 2, p - 1)).astype(np.int64)
        lead += keep & (lead >= (-(W[:k] // pw[width - np.minimum(i, width)])) % p)
        rest = (0 if width < 2 else gen.integers(0, pw[width - 1], size=k) if dtype != object
                else uniform_digits(gen, p, k, width - 1))
        unit = (lead + p * (rest % pw[kappa - 1])) * pw[width - kappa]
        W[:k] = np.where(j == 0, 0, (np.where(j < i, 0, W[:k]) + unit) % pw[-1])
        cls[:k] = j
        visit(k)
    return counts
