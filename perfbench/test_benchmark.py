"""Tests of the benchmark's oracles, checks and tracer.

The oracles are tested against closed forms; each workload's check is
shown to fail when the output it checks is perturbed.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import layers
import oracles
import workloads as W
from adelic_diffusion import heat_kernel as hk
from adelic_diffusion import feynman_kac as fk
from spans import Tracer

GRID = [(2, 1.0, 3.0, 1.0), (3, 1.0, 4.0, 0.5), (5, 1.5, 0.04, 2.0), (7, 0.7, 1 / 49, 1.0)]


# -- radial series ------------------------------------------------------------


@pytest.mark.parametrize("p,b,sigma,t", GRID)
def test_ball_mass_increases_to_one(p, b, sigma, t):
    masses = [oracles.ball_mass(p, b, sigma, t, nu) for nu in range(-6, 60)]
    assert all(m0 <= m1 for m0, m1 in zip(masses, masses[1:]))
    assert masses[0] < masses[6] < masses[12] < 1.0
    assert abs(1.0 - masses[-1]) < 1e-12


@pytest.mark.parametrize("p,b,sigma,t", GRID)
def test_sphere_masses_are_ball_mass_steps(p, b, sigma, t):
    """Two independent series: density on a sphere times its measure is the
    difference of neighbouring ball masses."""
    for m in range(-4, 5):
        sphere = oracles.density(p, b, sigma, t, m) * float(p) ** m * (1 - 1 / p)
        step = oracles.ball_mass(p, b, sigma, t, m) - oracles.ball_mass(p, b, sigma, t, m - 1)
        assert sphere == pytest.approx(step, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("p,b,sigma,t", GRID)
def test_ball_off_centre_splits_its_sphere(p, b, sigma, t):
    """The p^(d-r)(1 - 1/p) balls of radius p^r on the sphere p^d share its mass."""
    d, r = 2, -1
    count = float(p) ** (d - r) * (1 - 1 / p)
    share = oracles.ball_mass_at(p, b, sigma, t, d, r)
    sphere = oracles.ball_mass(p, b, sigma, t, d) - oracles.ball_mass(p, b, sigma, t, d - 1)
    assert share * count == pytest.approx(sphere, rel=1e-9)
    assert oracles.ball_mass_at(p, b, sigma, t, r, r) == oracles.ball_mass(p, b, sigma, t, r)


@pytest.mark.parametrize("p,b,sigma,t", GRID)
def test_library_series_match_oracles(p, b, sigma, t):
    params = hk.KernelParams(p, b, sigma)
    for m in range(-3, 4):
        assert W.check_close("density", hk.density(params, t, m),
                             oracles.density(p, b, sigma, t, m)) == []
        assert W.check_close("ball_mass", hk.ball_mass(params, t, m),
                             oracles.ball_mass(p, b, sigma, t, m)) == []


# -- exponent chain -----------------------------------------------------------

CHAIN = [(2, 1.0, 1.5, 1.0), (3, 1.0, 1.0, 2.0), (5, 1.0, 0.5, 1.5)]


def _within(value, se, reference, k=4.0):
    return abs(value - reference) <= k * se


@pytest.mark.parametrize("p,b,sigma,T", CHAIN)
def test_chain_without_potential_gives_ball_mass(p, b, sigma, T):
    gen = np.random.default_rng(11)
    for r_obs in (-1, 0, 1):
        mean, se = oracles.damped_ball_expectation(p, b, sigma, T, 0.0, -1, r_obs, 100_000, gen)
        assert _within(mean, se, oracles.ball_mass(p, b, sigma, T, r_obs))


@pytest.mark.parametrize("p,b,sigma,T", CHAIN)
def test_chain_stays_in_ball_with_exit_law(p, b, sigma, T):
    gen = np.random.default_rng(12)
    n, r0 = 100_000, -1
    occupied, _, top = oracles.exponent_chain(p, b, sigma, T, r0, r0, n, gen)
    for r in (r0, r0 + 1, r0 + 2):
        exact = math.exp(-sigma * oracles.alpha(p, b) * T * float(p) ** (-r * b))
        stay = (top <= r).mean()
        assert _within(stay, math.sqrt(exact * (1 - exact) / n), exact)
    # a path that never leaves B_r0 is damped over the whole horizon
    tau = 0.7
    w = np.exp(-tau * occupied) * (top <= r0)
    exact = math.exp(-(tau + sigma * oracles.alpha(p, b) * float(p) ** (-r0 * b)) * T)
    assert _within(w.mean(), w.std() / math.sqrt(n), exact)


def test_chain_rejects_unresolved_potential():
    with pytest.raises(ValueError):
        oracles.exponent_chain(2, 1.0, 1.0, 1.0, 0, -1, 10, np.random.default_rng(0))


# -- checks fail on perturbed outputs ------------------------------------------


@pytest.fixture(scope="module")
def kernel_pair(tmp_path_factory):
    wl = W.KernelBridge(5, tmp_path_factory.mktemp("kb"))
    forward, backward = (W._request(fk.fk_kernel, replace(req, n_paths=40))
                         for req in wl._inputs(0))
    return wl, forward, backward


def test_kernel_check_passes_and_catches_perturbations(kernel_pair):
    wl, a, b = kernel_pair
    assert W.check_kernel_pair(a, b, wl.density, wl.bridge_lower) == []
    shifted = replace(b, value=a.value + 6 * math.hypot(a.se, b.se))
    assert W.check_kernel_pair(a, shifted, wl.density, wl.bridge_lower)
    bad_density = replace(a, info={**a.info, "density_factor": a.info["density_factor"] * (1 + 1e-9)})
    assert W.check_kernel_pair(bad_density, b, wl.density, wl.bridge_lower)
    for bf in (1.01, wl.bridge_lower * 0.99):
        assert W.check_kernel_pair(a, replace(b, info={**b.info, "bridge_factor": bf}),
                                   wl.density, wl.bridge_lower)


def test_schrodinger_check_catches_alpha_bug(tmp_path, monkeypatch):
    """The exit-rate constant scaled by 1.15, as `validate --inject-alpha-bug`
    does, moves a 16,000-path estimate well outside the oracle band."""
    wl = W.SchrodingerEvents(7, tmp_path)
    req = replace(wl.request(0, 0, workers=1), n_paths=16_000, chunk_size=4000)
    ref, ref_se = wl.oracle(req.t)
    good = fk.fk_expectation(req)
    assert W.check_band("t", good.value.real, good.std_error, ref, ref_se) == []
    alpha = hk.alpha
    monkeypatch.setattr(hk, "alpha", lambda params: 1.15 * alpha(params))
    bad = fk.fk_expectation(req)
    assert W.check_band("t", bad.value.real, bad.std_error, ref, ref_se)
    moved = good.value.real + 6 * math.hypot(good.std_error, ref_se)
    assert W.check_band("t", moved, good.std_error, ref, ref_se)


def test_cli_check_passes_and_catches_perturbations(tmp_path):
    wl = W.AdelicCli(3, tmp_path, in_process=W.run_cli_in_process)
    wl.PATHS = 4000
    rec = wl.request(0, 0)
    assert rec.ok
    n = rec.info["truncation"]
    rows, manifest = rec.info["rows"], rec.info["manifest"]
    floor = 1.0 - wl.EPS
    assert n == 666
    assert W.check_cli_rows(rows, manifest, wl.oracle(n), floor) == []
    value, se = rows["expectation"]
    assert W.check_cli_rows({**rows, "expectation": (value + 6 * se, se)},
                            manifest, wl.oracle(n), floor)
    free = rows["free_truncated"]
    assert W.check_cli_rows({**rows, "free_truncated": (free[0] * (1 + 1e-9), 0.0)},
                            manifest, wl.oracle(n), floor)
    low = {**manifest, "derived": {**manifest["derived"], "tail_certificate": floor - 1e-9}}
    assert W.check_cli_rows(rows, low, wl.oracle(n), floor)


# -- tracer -------------------------------------------------------------------


def test_self_time_excludes_children():
    tr = Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    traced_leaf = tr.span("leaf", leaf)
    tr.span("outer", outer)()
    own, calls = tr.self_times(), tr.calls()
    assert calls == {"leaf": 2, "outer": 1}
    assert 0.01 <= own["outer"] < 0.02
    assert own["leaf"] >= 0.04
    assert tr.calls_under("leaf", "outer") == 2


def test_traced_counts_repeat_and_patches_come_off(tmp_path, monkeypatch):
    monkeypatch.setattr(W.KernelBridge, "PATHS", 6)
    original = fk.fk_kernel
    counts = []
    for _ in range(2):
        wl = W.KernelBridge(9, tmp_path)
        tracer, meter = Tracer(), layers.CacheMeter()
        meter.clear(layers.PROCESS_CACHES)
        wl.warm_up()
        layers.install(tracer, meter)
        meter.start()
        try:
            wl.run_round(0)
        finally:
            meter.read()
            tracer.uninstall()
        counts.append({k: v for k, v in layers.report(tracer, meter).items()
                       if not k.endswith("self_s")})
    assert fk.fk_kernel is original
    assert counts[0] == counts[1]
    assert counts[0]["sampler.sample_bridge.calls"] == 2 * 6 * len(W.KernelBridge.POTENTIAL)
    assert counts[0]["sampler.bridge_points"] == counts[0]["sampler.sample_bridge.calls"] * 31
