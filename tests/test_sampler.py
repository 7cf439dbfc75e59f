"""Path samplers: increment laws, skeletons, event chains, bridges."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adelic_diffusion import (
    BridgeSpec,
    BridgeUnderflowError,
    KernelParams,
    PAdicScalar,
    ResolutionError,
    RngStream,
    TruncationError,
    density,
    density_center,
    exit_prob,
    exit_rate,
    increment_law,
    overshoot_law,
    sample_bridge,
    sample_event_path,
    sample_increment,
    sample_skeleton,
    sup_norm_exceeds,
)
from adelic_diffusion.feynman_kac import _bridge_action, _path_action
from adelic_diffusion.padic import Ball, _normalised
from adelic_diffusion.sampler import (
    _bridge_tree,
    bridge_class_total,
    event_path_sums,
    sample_bridges,
    skeleton_stays,
)
from adelic_diffusion.schwartz import SBFunction, eval_sb
from conftest import fine_skeleton_exit_landings, trapezoid_action, tv_distance

KP = KernelParams(2, 1.0, 1.0)
ZERO = PAdicScalar.zero(2)


def radial_class(x, floor=-3):
    e = x.abs_exp()
    return "deep" if e is None or e < floor else e


class TestIncrement:
    def test_radial_histogram_tv(self):
        law = increment_law(KP, 1.0)
        gen = RngStream(101).generator()
        n = 100_000
        exps = law.sample_exponents(gen, n)
        tv = 0.0
        for m in range(law.m_lo, law.m_hi + 1):
            tv += abs(np.mean(exps == m) - law.mass(m) / law.coverage())
        assert tv / 2 < 0.01

    def test_small_dt_stays_local(self):
        dt = 1e-3
        gen = RngStream(102).generator()
        n = 4000
        stay = sum(
            1
            for _ in range(n)
            if sample_increment(KP, dt, gen, 8).abs_exp() <= 0
        )
        assert stay / n >= math.exp(-KP.sigma * dt) - 3 * math.sqrt(0.25 / n)

    def test_disjoint_interval_independence(self):
        gen = RngStream(103).generator()
        n = 20_000
        a = np.array([sample_increment(KP, 0.5, gen, 6).abs_exp() <= 0 for _ in range(n)])
        b = np.array([sample_increment(KP, 0.5, gen, 6).abs_exp() <= 0 for _ in range(n)])
        cov = np.mean(a * b) - np.mean(a) * np.mean(b)
        se = 1.0 / math.sqrt(n)
        assert abs(cov) < 3 * se * 0.25 + 1e-3


class TestSkeleton:
    def test_single_epoch_marginal(self):
        law = increment_law(KP, 1.0)
        gen = RngStream(104).generator()
        n = 30_000
        counts = Counter()
        for _ in range(n):
            sk = sample_skeleton(KP, [1.0], ZERO, gen, 12)
            counts[radial_class(sk.end_position())] += 1
        ref = Counter()
        for m in range(law.m_lo, law.m_hi + 1):
            ref[("deep" if m < -3 else m)] += law.mass(m)
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / n - ref.get(k, 0.0))
            for k in set(counts) | set(ref)
        )
        assert tv < 0.02

    def test_translation_equivariance(self):
        start = PAdicScalar.from_int(21, 2, 24)
        sk0 = sample_skeleton(KP, [0.5, 1.0], ZERO, RngStream(105), 16)
        sk1 = sample_skeleton(KP, [0.5, 1.0], start, RngStream(105), 16)
        for a, b in zip(sk0.values, sk1.values):
            d = b - a
            assert d.is_zero() or (d - start).is_zero()

    def test_two_epoch_chapman_kolmogorov(self):
        # radial law at 2t from two independent t-steps vs direct law
        t = 0.5
        gen = RngStream(106).generator()
        n = 30_000
        counts = Counter()
        for _ in range(n):
            sk = sample_skeleton(KP, [t, 2 * t], ZERO, gen, 12)
            counts[radial_class(sk.end_position())] += 1
        law = increment_law(KP, 2 * t)
        ref = Counter()
        for m in range(law.m_lo, law.m_hi + 1):
            ref[("deep" if m < -3 else m)] += law.mass(m)
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / n - ref.get(k, 0.0))
            for k in set(counts) | set(ref)
        )
        assert tv < 0.02

    def test_radius_only_stays_match_skeletons_in_law(self):
        # 400 paths x 16 epochs each way, at pre-registered seeds
        for params, T, r, seed in ((KP, 1.0, 0, 133), (KernelParams(3, 1.0, 1.0), 0.7, 1, 134)):
            fast = skeleton_stays(params, T, r, 16, 400, RngStream(seed).child(1)).mean()
            gen = RngStream(seed).child(2).generator()
            epochs = [T * k / 16 for k in range(1, 17)]
            zero = PAdicScalar.zero(params.p)
            slow = np.mean([
                all(v.is_zero() or v.abs_exp() <= r
                    for v in sample_skeleton(params, epochs, zero, gen, 12).values)
                for _ in range(400)
            ])
            se = math.sqrt((fast * (1 - fast) + slow * (1 - slow)) / 400)
            assert 0 < se and abs(fast - slow) <= 3 * se

    def test_epoch_validation(self):
        with pytest.raises(ValueError):
            sample_skeleton(KP, [0.5, 0.5], ZERO, RngStream(1))
        with pytest.raises(ValueError):
            sample_skeleton(KP, [-0.5], ZERO, RngStream(1))


class TestEventPath:
    def test_no_event_probability(self):
        n = 20_000
        gen = RngStream(107).generator()
        stay = sum(
            1 for _ in range(n) if not sample_event_path(KP, ZERO, 1.0, 0, gen).events
        )
        q = exit_prob(KP, 1.0, 0)
        se = math.sqrt(q * (1 - q) / n)
        assert abs(stay / n - q) <= 3 * se

    def test_jump_radius_distribution(self):
        gen = RngStream(108).generator()
        n = 20_000
        counts = Counter()
        total = 0
        while total < n:
            path = sample_event_path(KP, ZERO, 1.0, 0, gen)
            prev = ZERO
            for _, pos in path.events:
                k = (pos - prev).abs_exp() - 0
                counts[min(k, 12)] += 1
                total += 1
                prev = pos
                break  # first landing only: uniform law, radius = r_min + k
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / total - overshoot_law(KP, 0, k))
            for k in range(1, 13)
        )
        assert tv < 0.02

    def test_expected_event_count_is_bounded(self):
        from adelic_diffusion.sampler import MAX_EXPECTED_EVENTS

        with pytest.raises(TruncationError, match="coarsen r_min"):
            sample_event_path(KP, ZERO, 1.0, -30, RngStream(121))
        assert exit_rate(KP, -30) > MAX_EXPECTED_EVENTS

    def test_event_times_increasing_and_bounded(self):
        gen = RngStream(109).generator()
        for _ in range(200):
            path = sample_event_path(KP, ZERO, 2.0, -1, gen)
            times = [t for t, _ in path.events]
            assert all(a < b for a, b in zip(times, times[1:]))
            assert all(0 < t <= 2.0 for t in times)

    def test_jumps_leave_resolution_ball(self):
        gen = RngStream(110).generator()
        for _ in range(100):
            path = sample_event_path(KP, ZERO, 1.0, -2, gen)
            prev = ZERO
            for _, pos in path.events:
                assert (pos - prev).abs_exp() >= -1
                prev = pos

    def test_sup_norm(self):
        quiet = sample_event_path(KP, ZERO, 0.001, 0, RngStream(111))
        if not quiet.events:
            assert not sup_norm_exceeds(quiet, 0)
        with pytest.raises(ResolutionError):
            sup_norm_exceeds(quiet, -1)

    def test_sup_norm_mc_matches_exit_prob_coarser_radius(self):
        # events at resolution 0, queried at radius 2
        n = 8000
        gen = RngStream(112).generator()
        stay = sum(
            1
            for _ in range(n)
            if not sup_norm_exceeds(sample_event_path(KP, ZERO, 1.0, 0, gen), 2)
        )
        q = exit_prob(KP, 1.0, 2)
        se = math.sqrt(q * (1 - q) / n)
        assert abs(stay / n - q) <= 3 * se


def _event_identity_case(p: int, r: int, events: float):
    """Kernel, start, horizon and (potential, observable) terms at prime p and
    resolution p^r: a start other than 0; a two-term potential with
    coefficients 1 and 0.25; an observable with complex coefficients; a ball
    p^2 levels above the resolution away from the start, so the window
    reaches it only by widening; and a ball coarser than the start window."""
    params = KernelParams(p, 0.7 if p == 3 else 1.0, 1.3)
    start = PAdicScalar.from_rational(Fraction(1 + p, p), p, precision=12)
    far = start + PAdicScalar(p, -(r + 2), 1, 12)
    coarse = Ball(PAdicScalar.zero(p), r + 4)
    action = ((Ball(start, r), 1.0 + 0j), (Ball(far, r + 1), 0.25 + 0j))
    end = ((Ball(start, r), 0.5 - 0.25j), (Ball(far, r), 1.0 + 2.0j), (coarse, -0.75j))
    return params, start, events / exit_rate(params, r), action, end


class TestEventPathSums:
    """event_path_sums makes sample_event_path's draws and returns exactly
    what _path_action and eval_sb read off its paths (seeds fixed in advance)."""

    CASES = [(p, r, 3.0, 1800 + 10 * p - r) for p in (2, 3, 5) for r in (-2, -1, 0, 1)]

    @pytest.mark.parametrize("p, r, events, seed", CASES + [(3, -1, 1e-9, 1899)])
    def test_path_by_path_identical_to_oracle(self, p, r, events, seed):
        params, start, T, action, end = _event_identity_case(p, r, events)
        n = 150
        gen, oracle_gen = RngStream(seed).generator(), RngStream(seed).generator()
        integrals, values = event_path_sums(params, start, T, r, gen, n, action, end)
        paths = [sample_event_path(params, start, T, r, oracle_gen) for _ in range(n)]
        f, g = SBFunction(p, action), SBFunction(p, end)
        for j, path in enumerate(paths):
            assert integrals[j] == _path_action(path, 1.0, f, T)
            assert values[j] == eval_sb(g, path.end_position())
        assert repr(gen.bit_generator.state) == repr(oracle_gen.bit_generator.state)
        if events < 1:  # a horizon with no events
            assert not any(path.events for path in paths)
        else:  # some path widens to the far ball and ends inside it
            assert any(end[1][0].contains(path.end_position()) for path in paths)
            assert len({values[j] for j in range(n)}) > 2

    def test_event_at_the_horizon_moves_only_the_end(self):
        # holds 0.25 + 0.75 land an event at exactly T = 1: it ends the
        # action's last segment at the old position but still moves X_T
        class Holds(np.random.Generator):
            def __init__(self, seed):
                super().__init__(np.random.Philox(seed))
                self.holds = [0.25, 0.75, 0.0, 9.0]

            def exponential(self, scale=1.0, size=None):
                return self.holds.pop(0)

        params, start, _, action, end = _event_identity_case(3, -1, 1.0)
        gen, oracle_gen = Holds(1898), Holds(1898)
        integral, value = event_path_sums(params, start, 1.0, -1, gen, 1, action, end)
        path = sample_event_path(params, start, 1.0, -1, oracle_gen)
        assert [t for t, _ in path.events] == [0.25, 1.0, 1.0]
        assert repr(gen.bit_generator.state) == repr(oracle_gen.bit_generator.state)
        assert integral[0] == _path_action(path, 1.0, SBFunction(3, action), 1.0)
        assert value[0] == eval_sb(SBFunction(3, end), path.end_position())


class TestCrossSampler:
    def test_end_position_laws_match(self):
        n = 40_000
        gen_e = RngStream(113).generator()
        gen_s = RngStream(114).generator()
        law = increment_law(KP, 1.0)
        ev = Counter()
        sk = Counter()
        for _ in range(n):
            path = sample_event_path(KP, ZERO, 1.0, 0, gen_e)
            e = path.end_position().abs_exp() if path.events else None
            ev[(e if e is not None and e >= 1 else "<=0")] += 1
        exps = law.sample_exponents(gen_s, n)
        for m in exps:
            sk[(int(m) if m >= 1 else "<=0")] += 1
        keys = set(ev) | set(sk)
        tv = 0.5 * sum(abs(ev.get(k, 0) / n - sk.get(k, 0) / n) for k in keys)
        assert tv < 0.01


class TestBridge:
    @given(p=st.sampled_from((2, 3, 5, 7, 11)), b=st.floats(0.25, 2.0),
           tau0=st.floats(0.01, 10.0), tau1=st.floats(0.01, 10.0),
           delta=st.none() | st.integers(-8, 8))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_class_total_is_chapman_kolmogorov_density(self, p, b, tau0, tau1, delta):
        kp = KernelParams(p, b, 1.0)
        total = bridge_class_total(kp, tau0, tau1, delta)
        t = tau0 + tau1
        direct = density(kp, t, delta) if delta is not None else density_center(kp, t)
        assert total == pytest.approx(direct, rel=1e-10)

    def test_class_total_equals_chapman_kolmogorov(self):
        for kp in (KP, KernelParams(3, 0.5, 0.7)):
            for delta in (None, 0, 1, 2, -3):
                total = bridge_class_total(kp, 0.4, 0.6, delta)
                direct = (
                    density(kp, 1.0, delta) if delta is not None else density_center(kp, 1.0)
                )
                assert total == pytest.approx(direct, rel=1e-10)

    def test_endpoints_pinned(self):
        y = PAdicScalar.from_int(3, 2, 24)
        sk = sample_bridge(BridgeSpec(KP, 1.0, ZERO, y), [0.25, 0.5, 0.75], RngStream(115), 24)
        assert sk.times == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert sk.values[0] == ZERO and sk.values[-1] == y

    def test_concentration_near_terminal_time(self):
        from adelic_diffusion.sampler import _bridge_classes, _AROUND_X1

        y = PAdicScalar.from_int(1, 2, 24)
        s = 1.0 - 1e-6
        labels, cum = _bridge_classes(KP, s, 1.0 - s, (y - ZERO).abs_exp())
        total = cum[-1]
        near = sum(
            (cum[i] - (cum[i - 1] if i else 0.0))
            for i, (kind, lvl) in enumerate(labels)
            if kind == _AROUND_X1 and lvl <= -5
        )
        assert near / total > 0.99

    def test_time_reversal_symmetry_equal_endpoints(self):
        from adelic_diffusion.sampler import _bridge_classes

        l1, c1 = _bridge_classes(KP, 0.3, 0.7, None)
        l2, c2 = _bridge_classes(KP, 0.7, 0.3, None)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_allclose(np.diff(c1, prepend=0), np.diff(c2, prepend=0),
                                   rtol=1e-12)

    def test_marginal_vs_rejection_oracle(self):
        # accept free skeletons whose endpoint lands in a small ball around y
        y = PAdicScalar.from_int(3, 2, 24)  # |y| = 1
        t, s = 1.0, 0.5
        n_bridge = 12_000
        gen = RngStream(116).generator()
        spec = BridgeSpec(KP, t, ZERO, y)
        cls_b = Counter()
        for _ in range(n_bridge):
            z = sample_bridge(spec, [s], gen, 20).values[1]
            cls_b[radial_class(z)] += 1
        gen2 = RngStream(117).generator()
        cls_r = Counter()
        accepted = 0
        target = 6000
        while accepted < target:
            sk = sample_skeleton(KP, [s, t], ZERO, gen2, 20)
            d = sk.values[2] - y
            if d.is_zero() or d.abs_exp() <= -4:
                accepted += 1
                cls_r[radial_class(sk.values[1])] += 1
        keys = set(cls_b) | set(cls_r)
        tv = 0.5 * sum(
            abs(cls_b.get(k, 0) / n_bridge - cls_r.get(k, 0) / accepted) for k in keys
        )
        assert tv < 0.02

    def test_underflow_error(self):
        far = PAdicScalar(2, -(2**17), 1, 8)
        with pytest.raises(BridgeUnderflowError):
            sample_bridge(BridgeSpec(KP, 1e-3, ZERO, far), [5e-4], RngStream(118))

    def test_determinism(self):
        y = PAdicScalar.from_int(5, 2, 24)
        spec = BridgeSpec(KP, 1.0, ZERO, y)
        a = sample_bridge(spec, [0.5], RngStream(119).child(1), 16)
        b = sample_bridge(spec, [0.5], RngStream(119).child(1), 16)
        assert a == b

    def test_equal_sphere_rejection_is_capped(self):
        from adelic_diffusion.sampler import (
            MAX_EQUAL_SPHERE_TRIES, _EQUAL_SPHERES, _bridge_classes, _bridge_point,
        )

        kp3 = KernelParams(3, 1.0, 1.0)
        x1 = PAdicScalar.from_int(1, 3, 8)
        labels, cum = _bridge_classes(kp3, 0.5, 0.5, 0)
        idx = labels.tolist().index([_EQUAL_SPHERES, 0])
        u = 0.5 * ((cum[idx - 1] if idx else 0.0) + cum[idx]) / cum[-1]

        class StuckGenerator(np.random.Generator):
            """Picks the equal-sphere class, then draws z = x1 every time."""

            draws = 0

            def random(self):
                return u

            def integers(self, low, high=None, size=None):
                if size is not None:
                    return np.zeros(size, dtype=np.int64)
                self.draws += 1
                return 1

        gen = StuckGenerator(np.random.Philox(0))
        with pytest.raises(TruncationError, match="equal-sphere"):
            _bridge_point(kp3, 0.0, PAdicScalar.zero(3), 1.0, x1, 0.5, gen, 8)
        assert gen.draws == MAX_EQUAL_SPHERE_TRIES


def window_point(paths, i, k):
    """Position of path i at paths.times[k] as a scalar, known to the
    window's fine end."""
    p = paths.params.p
    n = paths.offsets[i, k] % p**paths.width
    if n == 0:
        return paths.x + PAdicScalar.zero(p, paths.width - paths.coarse)
    return paths.x + _normalised(p, -paths.coarse, n, paths.width)


def midpoint_class(z, x0, x1):
    return radial_class(z - x0, -4), radial_class(z - x1, -4)


def _pinned_pairs(p):
    """test_09's three endpoint pairs, carried over to the prime p."""
    zero = PAdicScalar.zero(p)
    return [(zero, PAdicScalar.from_int(1, p)),
            (zero, PAdicScalar.from_rational(Fraction(1, p), p)),
            (PAdicScalar.from_int(1, p), PAdicScalar.from_int(1 + p, p))]


# (name, p, x, y, tau, potential factor f); pre-registered, seed 12_100 + 10 * index
ENGINE_CASES = [
    *((f"test09-p{p}-pair{k}", p, x, y, 0.7, SBFunction.vacuum(p))
      for p in (2, 3) for k, (x, y) in enumerate(_pinned_pairs(p))),
    ("off-centre-ball", 3, PAdicScalar.zero(3), PAdicScalar.from_int(2, 3), 1.0,
     SBFunction.indicator(Ball(PAdicScalar.from_int(1, 3), -1))),
    ("wide-window", 5, PAdicScalar.zero(5), PAdicScalar.from_rational(Fraction(2, 125), 5),
     1.0, SBFunction.indicator(Ball(PAdicScalar.zero(5), -2))),
]


class TestBridgeEngine:
    """The batched engine against the digit-exact oracle sample_bridge, in law."""

    STEPS, N_ENGINE, N_ORACLE, TV_MAX = 32, 8000, 1200, 0.08

    @pytest.mark.parametrize("k", range(len(ENGINE_CASES)),
                             ids=[c[0] for c in ENGINE_CASES])
    def test_matches_oracle_in_law(self, k):
        name, p, x, y, tau, f = ENGINE_CASES[k]
        kp = KernelParams(p, 1.0, 1.0)
        spec = BridgeSpec(kp, 1.0, x, y)
        mid = self.STEPS // 2
        paths = sample_bridges(spec, self.STEPS, self.N_ENGINE, RngStream(12_100 + 10 * k), 24,
                               cover=tuple(b for b, _ in f.terms))
        engine_cls = Counter(midpoint_class(window_point(paths, i, mid), x, y)
                             for i in range(self.N_ENGINE))
        engine_w = np.exp(-_bridge_action(paths, tau, f))
        gen = RngStream(12_101 + 10 * k).generator()
        epochs = [j / self.STEPS for j in range(1, self.STEPS)]
        oracle_cls, oracle_w = Counter(), []
        for _ in range(self.N_ORACLE):
            sk = sample_bridge(spec, epochs, gen, 24)
            oracle_cls[midpoint_class(sk.values[mid], x, y)] += 1
            oracle_w.append(math.exp(-trapezoid_action(sk, tau, f)))
        tv = tv_distance({c: m / self.N_ENGINE for c, m in engine_cls.items()},
                         {c: m / self.N_ORACLE for c, m in oracle_cls.items()})
        assert tv < self.TV_MAX, (name, tv)
        se = math.hypot(np.std(engine_w, ddof=1) / math.sqrt(self.N_ENGINE),
                        np.std(oracle_w, ddof=1) / math.sqrt(self.N_ORACLE))
        assert abs(np.mean(engine_w) - np.mean(oracle_w)) <= 3 * se, name
        if name == "wide-window":
            assert paths.width * math.log2(p) > 64

    def test_endpoints_pinned_through_widening(self):
        # no cover and x = y: the window starts empty and every level widens it
        kp3 = KernelParams(3, 1.0, 1.0)
        x = PAdicScalar.from_int(5, 3, 24)
        paths = sample_bridges(BridgeSpec(kp3, 1.0, x, x), 16, 50, RngStream(12_200), 24)
        assert paths.width >= 24
        y = PAdicScalar.from_rational(Fraction(7, 9), 3, 24)
        paths = sample_bridges(BridgeSpec(kp3, 1.0, x, y), 16, 50, RngStream(12_201), 24)
        for i in range(50):
            pts = [window_point(paths, i, k) for k in range(17)]
            assert pts[0] == x + PAdicScalar.zero(3, paths.width - paths.coarse)
            assert (pts[16] - y).known_mod_exp() >= y.known_mod_exp()
            assert (pts[16] - y).is_zero()
            for d in (z - x for z in pts):
                assert d.is_zero() or d.abs_exp() <= paths.coarse
            # each jump keeps 24 digits counting its leading one; a midpoint's
            # jump is as long as its distance to the nearer neighbour
            for a, m, b in (node for nodes in _bridge_tree(16) for node in nodes):
                level = min(e for e in ((pts[m] - pts[a]).abs_exp(), (pts[m] - pts[b]).abs_exp())
                            if e is not None)
                assert paths.width - paths.coarse + level >= 24

    def test_batch_is_deterministic(self):
        y = PAdicScalar.from_int(5, 2, 24)
        spec = BridgeSpec(KP, 1.0, ZERO, y)
        a = sample_bridges(spec, 8, 20, RngStream(12_202).child(1), 24)
        b = sample_bridges(spec, 8, 20, RngStream(12_202).child(1), 24)
        assert (a.coarse, a.width) == (b.coarse, b.width)
        assert (a.offsets == b.offsets).all()

    def test_underflow_error(self):
        far = PAdicScalar(2, -(2**17), 1, 8)
        with pytest.raises(BridgeUnderflowError):
            sample_bridges(BridgeSpec(KP, 1e-3, ZERO, far), 2, 4, RngStream(12_203), 24)

    def test_equal_sphere_rejection_is_capped(self):
        from adelic_diffusion.sampler import (
            MAX_EQUAL_SPHERE_TRIES, _EQUAL_SPHERES, _bridge_classes,
        )

        kp3 = KernelParams(3, 1.0, 1.0)
        x1 = PAdicScalar.from_int(1, 3, 8)
        labels, cum = _bridge_classes(kp3, 0.5, 0.5, 0)
        idx = labels.tolist().index([_EQUAL_SPHERES, 0])
        u = 0.5 * ((cum[idx - 1] if idx else 0.0) + cum[idx]) / cum[-1]

        class StuckGenerator(np.random.Generator):
            """Picks the equal-sphere class, then the one leading digit that
            puts z on the sphere |z - x1| < 1, every time."""

            leads = 0

            def random(self, size=None):
                return np.full(size, u)

            def integers(self, low, high=None, size=None, dtype=np.int64):
                if low == 1:
                    self.leads += 1
                    return np.ones(size, dtype=np.int64)
                return np.zeros(size, dtype=dtype)

        gen = StuckGenerator(np.random.Philox(0))
        with pytest.raises(TruncationError, match="equal-sphere"):
            sample_bridges(BridgeSpec(kp3, 1.0, PAdicScalar.zero(3), x1), 2, 1, gen, 24)
        assert gen.leads == MAX_EQUAL_SPHERE_TRIES


class TestOvershootConditioningOracle:
    def test_fine_skeleton_first_exit_landing(self):
        landings = fine_skeleton_exit_landings(KP, 1.0, 256, 60_000, seed=120)
        count = len(landings)
        freqs = Counter(int(k) for k in landings)
        tv = 0.5 * sum(
            abs(freqs.get(k, 0) / count - overshoot_law(KP, 0, k)) for k in range(1, 15)
        )
        assert tv < 0.02
