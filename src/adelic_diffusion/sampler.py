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

Bridges come two ways, both under the law their `BridgeSpec` names.
`sample_bridges` fills a whole batch of paths at once, one level of the
midpoint recursion at a time, with every position an integer in a p-adic
window (see `padic.window_int`); `fk_kernel` runs on it.  `sample_bridge`
draws one path as `PAdicScalar`s and is the digit-exact oracle the batched
engine is tested against in law.
Likewise `event_path_sums` makes `sample_event_path`'s draws with each
position one integer modulo B_{r_min}, for the exact estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BridgeUnderflowError, ConfigError, ResolutionError, TruncationError
from .heat_kernel import (
    KernelParams,
    _frozen,
    ball_mass,
    cached_radial_law,
    density,
    density_center,
    exit_rate,
    sphere_mass,
)
from .padic import (
    DEFAULT_PRECISION,
    Ball,
    PAdicScalar,
    uniform_ball,
    uniform_digits,
    uniform_sphere,
    window_ball,
    window_int,
)
from .rng import as_generator

# Largest expected event count rate * T an event path may be asked for.
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
    law = increment_law(params, dt)
    m = int(law.sample_exponents(gen, 1)[0])
    return uniform_sphere(gen, params.p, m, precision)


def sample_skeleton(params: KernelParams, epochs, start: PAdicScalar, rng,
                    precision: int = DEFAULT_PRECISION) -> PathSkeleton:
    """Skeleton at the given epochs (strictly increasing, all positive)."""
    epochs = [float(t) for t in epochs]
    if any(t2 <= t1 for t1, t2 in zip(epochs, epochs[1:])) or (epochs and epochs[0] <= 0):
        raise ConfigError("epochs must be strictly increasing and positive")
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


def _check_endpoint_density(spec: BridgeSpec) -> None:
    d_exp = (spec.y - spec.x).abs_exp()
    rho = (density(spec.params, spec.t, d_exp) if d_exp is not None
           else density_center(spec.params, spec.t))
    if not rho > 0.0:
        raise BridgeUnderflowError(f"endpoint density underflows at separation exponent {d_exp}")


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
    _check_endpoint_density(spec)
    params, gen = spec.params, as_generator(rng)
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


# -- batched bridges in a p-adic window ---------------------------------------

_NO_GAP = np.iinfo(np.int64).min  # |x1 - x0| exponent of equal endpoints


def _bridge_tree(steps: int) -> list[list[tuple[int, int, int]]]:
    """(left, mid, right) grid indices of sample_bridge's recursion over the
    epochs 1 .. steps-1, one list per recursion depth."""
    levels, spans = [], [(0, steps)]
    while spans:
        nodes = [(a, a + 1 + (b - a - 1) // 2, b) for a, b in spans if b - a >= 2]
        if nodes:
            levels.append(nodes)
        spans = [span for a, m, b in nodes for span in ((a, m), (m, b))]
    return levels


@dataclass(frozen=True, eq=False)
class BridgeWindow:
    """A batch of bridges on a time grid, as integers in a p-adic window.

    offsets[i, k] = (X_k - x) * p^coarse mod p^width for path i at
    times[k]: the digits of X_k - x at valuations -coarse .. width-coarse-1.
    """

    params: KernelParams
    x: PAdicScalar
    times: np.ndarray
    coarse: int
    width: int
    offsets: np.ndarray  # object array of Python ints, (paths, len(times))

    def in_ball(self, ball: Ball) -> np.ndarray:
        """Whether each position lies in the ball (bool, shape of offsets)."""
        if (self.coarse - ball.radius_exp > self.width
                or isinstance(rule := window_ball(ball.center - self.x, ball.radius_exp,
                                                  self.coarse), bool)):
            raise ResolutionError(f"window (coarse end p^{self.coarse}, {self.width} digits) "
                                  f"does not resolve the ball of radius p^{ball.radius_exp}")
        mod, key = rule
        return (self.offsets % mod) == key


def sample_bridges(spec: BridgeSpec, steps: int, count: int, rng, precision: int,
                   cover=()) -> BridgeWindow:
    """count bridges of spec on the grid t*k/steps, k = 0..steps, drawn together.

    The law is sample_bridge's at the same epochs: each level of its
    midpoint recursion is one batch.  The gap exponent |x1 - x0| of every
    interval follows from the class drawn for its midpoint, so paths are
    grouped by gap with one searchsorted per `_bridge_classes` row; digits
    enter only in equal-sphere rejections and in ball memberships.  Each
    jump carries at least `precision` digits, counting its leading one.
    The window covers |y - x|, every known digit of x and y and the balls
    in `cover` (radius and centre), and widens exactly whenever a level
    drawn needs it.
    """
    if steps < 2 or count < 1:
        raise ValueError("a bridge batch needs steps >= 2 and count >= 1")
    _check_endpoint_density(spec)
    params = spec.params
    p = params.p
    d = spec.y - spec.x
    gap = d.abs_exp()
    ends = [z for z in (spec.x, spec.y) if not z.is_zero()]
    separations = [(b.center - spec.x).abs_exp() for b in cover] + [gap]
    coarse = max([b.radius_exp for b in cover] + [z.abs_exp() for z in ends]
                 + [e for e in separations if e is not None], default=0)
    fine = max([-b.radius_exp for b in cover] + [z.known_mod_exp() for z in ends], default=0)
    times = np.array([0.0, *(spec.t * k / steps for k in range(1, steps)), spec.t])
    offsets = np.zeros((count, steps + 1), dtype=object)
    offsets[:, steps] = window_int(d, coarse, coarse + fine)
    gaps = {(0, steps): np.full(count, _NO_GAP if gap is None else gap, dtype=np.int64)}
    gen = as_generator(rng)
    for nodes in _bridge_tree(steps):
        left, mid, right = (np.array(col) for col in zip(*nodes))
        delta = np.stack([gaps.pop((a, b)) for a, _, b in nodes])
        kind, level = _bridge_class_draws(params, times, nodes, delta, gen)
        # widen: coarse end above every level, fine end `precision` digits below
        top = int(level.max())
        if top > coarse:
            offsets *= p ** (top - coarse)
            coarse = top
        fine = max(fine, precision - int(level.min()))
        width = coarse + fine
        x0, x1 = offsets[:, left].T, offsets[:, right].T
        lead = gen.integers(1, p, size=kind.shape)
        _redraw_equal_sphere_leads(p, coarse, kind, delta, x0, x1, lead, gen)
        unit = lead + p * uniform_digits(gen, p, lead.size, width - 1).reshape(kind.shape)
        shift = np.array([p**k for k in range(coarse - int(level.min()) + 1)], dtype=object)
        base = np.where(kind == _AROUND_X1, x1, x0)
        offsets[:, mid] = ((base + unit * shift[coarse - level]) % p**width).T
        # the class fixes |z - x0| and |z - x1| exactly (ultrametric)
        keep = (kind == _AROUND_X1) | (kind == _EQUAL_SPHERES)
        to_x1 = ((kind == _AROUND_X0) & (delta != _NO_GAP)) | (kind == _EQUAL_SPHERES)
        for k, (a, m, b) in enumerate(nodes):
            gaps[(a, m)] = np.where(keep[k], delta[k], level[k])
            gaps[(m, b)] = np.where(to_x1[k], delta[k], level[k])
    return BridgeWindow(params, spec.x, times, coarse, coarse + fine, offsets)


def _bridge_class_draws(params: KernelParams, times: np.ndarray, nodes, delta: np.ndarray,
                        gen) -> tuple[np.ndarray, np.ndarray]:
    """(kind, level) of every midpoint of one recursion level: one uniform
    per midpoint, one searchsorted per (time split, gap) class row."""
    u = gen.random(delta.size)
    splits: dict[tuple[float, float], int] = {}
    split = np.repeat([splits.setdefault((float(times[m] - times[a]), float(times[b] - times[m])),
                                         len(splits)) for a, m, b in nodes], delta.shape[1])
    gap = delta.ravel()
    order = np.lexsort((gap, split))
    cuts = np.flatnonzero(np.diff(gap[order]) | np.diff(split[order])) + 1
    kind = np.empty(delta.size, dtype=np.int64)
    level = np.empty(delta.size, dtype=np.int64)
    taus = list(splits)
    for group in np.split(order, cuts):
        g = int(gap[group[0]])
        labels, cum = _bridge_classes(params, *taus[split[group[0]]], None if g == _NO_GAP else g)
        if len(cum) == 0 or not cum[-1] > 0.0:
            raise BridgeUnderflowError(
                "conditional bridge mass underflows; endpoints too far for horizon"
            )
        idx = np.searchsorted(cum, u[group] * cum[-1], side="right")
        table = labels[np.minimum(idx, len(labels) - 1)]
        kind[group], level[group] = table[:, 0], table[:, 1]
    # a deep class is a Haar-uniform point of its ball: a sphere a geometric
    # number of levels down
    deep = np.flatnonzero(kind >= _DEEP_X0)
    if deep.size:
        level[deep] -= gen.geometric(1.0 - 1.0 / params.p, size=deep.size) - 1
        kind[deep] = np.where(kind[deep] == _DEEP_X0, _AROUND_X0, _AROUND_X1)
    return kind.reshape(delta.shape), level.reshape(delta.shape)


def _redraw_equal_sphere_leads(p: int, coarse: int, kind, delta, x0, x1, lead, gen) -> None:
    """Equal-sphere midpoints z = x0 + jump need |z - x1| = |x1 - x0|, that is
    a leading jump digit other than minus the digit of x0 - x1 there; redraw
    the failing leads, MAX_EQUAL_SPHERE_TRIES draws per midpoint at most."""
    r, c = np.nonzero(kind == _EQUAL_SPHERES)
    if r.size == 0:
        return
    shift = np.array([p ** int(coarse - g) for g in delta[r, c]], dtype=object)
    banned = ((p - ((x0[r, c] - x1[r, c]) // shift) % p) % p).astype(np.int64)
    for _ in range(MAX_EQUAL_SPHERE_TRIES - 1):
        bad = lead[r, c] == banned
        if not bad.any():
            return
        lead[r[bad], c[bad]] = gen.integers(1, p, size=int(bad.sum()))
    if (lead[r, c] == banned).any():
        raise TruncationError(
            f"equal-sphere bridge draw rejected {MAX_EQUAL_SPHERE_TRIES} times")
