"""Experiment command line: density tables, exit-law and exit-count
comparisons, operator checks, Feynman-Kac runs, and the validation suite.

Every command reads an optional JSON config plus flag overrides, writes
RFC-4180 CSV (or JSON lines) with a schema_id column, and always writes a
manifest alongside with the exact config echo and derived quantities, so a
run can be reproduced bit-exactly from its manifest.

Flags and config keys are one namespace: a flag is stored under its key
on top of the config (-T is "T", -N "truncation", --n-paths "n_paths",
--k-max "k_max", --full "full", --inject-alpha-bug "inject_alpha_bug").
A few keys have no flag: the sigma_* keys (fk and exit-count) and epochs
(sample).  A key the command does not read is a
config error.  Only exit, sample, exit-count and fk draw random numbers, so
only they take --seed.  fk's kernel mode (--endpoint) takes no observable.

Exit codes: 0 ok, 1 check failure, 2 config error, 3 numeric failure,
4 unresolved input, 70 internal error (see `_command`).
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
import traceback
from dataclasses import replace
from functools import partial
from pathlib import Path

import click
import numpy as np

from . import __version__
from .adelic import (
    AdelicPoint,
    SigmaSequence,
    exit_count_factorial_bound,
    exit_count_moment,
    exit_count_pmf,
    exit_count_samples,
    tail_certificate,
)
from .errors import (
    AdelicDiffusionError,
    BridgeUnderflowError,
    ConfigError,
    PrecisionError,
    PrimeMismatchError,
    ResolutionError,
    SummabilityError,
    TruncationError,
    ValuationRangeError,
)
from .feynman_kac import FKRequest, _min_truncation, fk_expectation, fk_kernel, free_propagate
from .heat_kernel import (
    KernelParams,
    alpha,
    ball_mass,
    density,
    exit_prob,
    radial_law,
)
from .io import observable_from_json, point_from_json, potential_from_json
from .padic import PAdicScalar
from .rng import RngStream
from .sampler import sample_event_path, sample_skeleton, skeleton_stays, sup_norm_exceeds
from .schwartz import SimpleAdelicSB, SimplePotential, vacuum_multiplier_norm_sq, vladimirov_apply

TOLERANCES = {
    "kernel_normalization": 1e-10,
    "chapman_kolmogorov": 1e-8,
    "sphere_density_consistency": 1e-12,
    "vacuum_norm_quadrature": 1e-12,
    "statistical_bands": "3 standard errors",
    "tv_radial_histograms": 0.01,
    "tv_overshoot": 0.02,
    "chisquare_pvalue_floor": 1e-6,
}

SEED_SCHEME = (
    "Philox streams via SeedSequence(entropy=seed, spawn_key=path); "
    "paths chunked by fixed index blocks, per-prime sub-streams, so outputs "
    "do not depend on worker count"
)


class RunConfig(dict):
    """Config dict with typed access and precondition errors."""

    def need(self, key, cast, default=None):
        if key not in self and default is None:
            raise ConfigError(f"config key '{key}' is required")
        try:
            return cast(self.get(key, default))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key '{key}': {exc}") from exc


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc


def _load_config(path: str | None, overrides: dict) -> RunConfig:
    data: dict = {}
    if path:
        doc = _read_json(path)
        data = doc.get("config", doc)  # accept a manifest as a config source
    for k, v in overrides.items():
        if v is not None:
            data[k] = v
    return RunConfig(data)


def _doc(cfg: RunConfig, key: str, parse):
    """The config's document under `key`, inline or a JSON file's path,
    parsed by `parse`, or None if it is absent or empty.  The document is
    echoed into the config so the manifest stands alone; a malformed one is
    a config error."""
    src = cfg.get(key)
    if src is None:
        return None
    if not isinstance(src, dict):
        src = _read_json(src)
    cfg[key] = src
    if not src:
        return None
    try:
        return parse(src)
    except AdelicDiffusionError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config key '{key}': malformed document ({exc!r})") from exc


_SIGMA_KEYS = ("sigma_explicit", "sigma_tail_coeff", "sigma_tail_power")


def _sigma_from_config(cfg: RunConfig) -> SigmaSequence:
    explicit = cfg.need("sigma_explicit", lambda v: tuple(float(s) for s in v), ())
    coeff = cfg.need("sigma_tail_coeff", float, 0.0 if explicit else 1.0)
    power = cfg.need("sigma_tail_power", float, 2.0)
    return SigmaSequence(explicit=explicit, tail_coeff=coeff, tail_power=power)


def _write_rows(out_path: Path, fmt: str, schema: str, header: list[str], rows) -> None:
    if fmt == "csv":
        with open(out_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["schema_id"] + header)
            for row in rows:
                w.writerow([schema] + [_cell(v) for v in row])
    else:
        with open(out_path, "w") as fh:
            for row in rows:
                doc = {"schema_id": schema}
                doc.update(dict(zip(header, row)))
                fh.write(json.dumps(doc, default=_cell) + "\n")


def _cell(v):
    if isinstance(v, (np.floating, np.integer)):  # before float: np.float64 is one
        return repr(v.item())
    if isinstance(v, float):
        return repr(v)
    return v


def _write_manifest(out_path: Path, command: str, cfg: RunConfig, derived: dict,
                    wall: float, fmt: str) -> None:
    manifest = {
        "schema_id": "manifest_v1",
        "command": command,
        "artifact_version": __version__,
        # a config's "output" is not echoed: a re-run must not write over it
        "config": {k: v for k, v in cfg.items() if k != "output"},
        "derived": derived,
        "tolerances": TOLERANCES,
        "seed_scheme": SEED_SCHEME,
        "wall_time_s": wall,
        "output": str(out_path),
        "format": fmt,
    }
    mpath = Path(str(out_path) + ".manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _finish(command, cfg, schema, header, rows, derived, t0):
    """Write the data file and its manifest; an -o flag wins over a config "output"."""
    fmt = cfg.get("format", "csv")
    default = f"{command.replace('-', '_')}.{'csv' if fmt == 'csv' else 'jsonl'}"
    out_path = Path(cfg.get("output") or default)
    _write_rows(out_path, fmt, schema, header, rows)
    _write_manifest(out_path, command, cfg, derived, time.time() - t0, fmt)
    click.echo(f"wrote {out_path} (+ manifest)")


@click.group()
@click.version_option(__version__)
def main():
    """p-adic and adelic diffusion experiments."""


_SEED = click.option("--seed", type=int, default=None)
_B = click.option("--b", type=float, default=None)
_T = click.option("--t", type=float, default=None)
_HORIZON = click.option("--horizon", "-T", "T", type=float, default=None)
_N_PATHS = click.option("--n-paths", type=int, default=None)
_TRUNCATION = click.option("--truncation", "-N", type=int, default=None)
_KERNEL = (click.option("--prime", "-p", type=int, default=None), _B,
           click.option("--sigma", type=float, default=None))


def _command(name: str, schema: str, header: list[str], *options, config_keys=()):
    """Register `body(cfg, write)` as the command `name`.

    Besides `options` the command takes --config, -o and --format.  Every
    flag given is stored under its config key on top of the --config
    document, so the manifest echoes flags and config keys alike and a
    re-run from it needs no flag.  The config may hold only flag keys and
    the flagless `config_keys` the body reads.  `write(rows, derived)`
    writes the data file and its manifest.  Exit codes follow the error
    class: 2 ConfigError, SummabilityError (and click usage errors); 3
    TruncationError, BridgeUnderflowError, ValuationRangeError; 4 (unresolved
    input) PrecisionError, ResolutionError, PrimeMismatchError; 70 (internal
    error) any other exception, with its traceback on stderr.
    """

    def register(body):
        def callback(config, **flags):
            t0 = time.time()
            try:
                cfg = _load_config(config, flags)
                unknown = sorted(set(cfg) - set(flags) - set(config_keys))
                if unknown:
                    raise ConfigError(f"unknown config keys for {name}: {', '.join(unknown)}")
                body(cfg, partial(_finish, name, cfg, schema, header, t0=t0))
            except (ConfigError, SummabilityError) as exc:
                click.echo(f"config error: {exc}", err=True)
                sys.exit(2)
            except (TruncationError, BridgeUnderflowError, ValuationRangeError) as exc:
                click.echo(f"numeric failure: {exc}", err=True)
                sys.exit(3)
            except (PrecisionError, ResolutionError, PrimeMismatchError) as exc:
                click.echo(f"unresolved input: {exc}", err=True)
                sys.exit(4)
            except Exception:
                click.echo(f"internal error:\n{traceback.format_exc()}", err=True)
                sys.exit(70)

        common = (
            click.option("--config", type=click.Path(exists=True), default=None,
                         help="JSON config (a manifest file also works)"),
            click.option("--output", "-o", default=None, help="output data file"),
            click.option("--format", type=click.Choice(["csv", "json"]), default=None),
        )
        for opt in reversed((*common, *options)):
            callback = opt(callback)
        return main.command(name, help=body.__doc__)(callback)

    return register


def _params(cfg: RunConfig) -> KernelParams:
    return KernelParams(cfg.need("prime", int, 2), cfg.need("b", float, 1.0),
                        cfg.need("sigma", float, 1.0))


def _n_paths(cfg: RunConfig, default: int) -> int:
    n = cfg.need("n_paths", int, default)
    if n < 1:
        raise ConfigError("n_paths must be positive")
    return n


@_command("density", "density_v1", ["m", "density", "sphere_mass", "ball_mass"],
          *_KERNEL, _T)
def density_cmd(cfg, write):
    """Radial density, sphere and ball masses over a radius window."""
    params = _params(cfg)
    tt = cfg.need("t", float, 1.0)
    law = radial_law(params, tt)
    rows = []
    total = 0.0
    for m in range(law.m_lo, law.m_hi + 1):
        sm = law.mass(m)
        total += sm
        rows.append([m, density(params, tt, m), sm, ball_mass(params, tt, m)])
    rows.append(["TOTAL", "", total + law.bottom_mass, ""])
    write(rows, {
        "alpha": alpha(params), "window": [law.m_lo, law.m_hi],
        "normalization_defect": abs(total + law.bottom_mass + law.top_loss - 1.0),
    })


@_command("exit", "exit_v1", ["estimator", "T", "r", "value", "std_error", "n"],
          _SEED, *_KERNEL, _HORIZON, click.option("--r", type=int, default=None), _N_PATHS)
def exit_cmd(cfg, write):
    """Analytic exit law versus event and skeleton Monte Carlo."""
    params = _params(cfg)
    T = cfg.need("T", float, 1.0)
    rr = cfg.need("r", int, 0)
    n = _n_paths(cfg, 20_000)
    sd = cfg.need("seed", int, 1)
    analytic = exit_prob(params, T, rr)
    se = math.sqrt(analytic * (1 - analytic) / n)
    zero = PAdicScalar.zero(params.p)

    gen = RngStream(sd).child(1).generator()
    stay_event = 0
    for _ in range(n):
        path = sample_event_path(params, zero, T, min(rr, 0), gen)
        if not sup_norm_exceeds(path, rr):
            stay_event += 1
    n_sk = min(n, 5000)  # the increment radii of 10^5 skeletons would take ~400 MB
    stay_sk = int(skeleton_stays(params, T, rr, 256, n_sk, RngStream(sd).child(2)).sum())
    rows = [
        ["analytic", T, rr, analytic, 0.0, 0],
        ["event_mc", T, rr, stay_event / n, se, n],
        ["skeleton_mc", T, rr, stay_sk / n_sk,
         math.sqrt(analytic * (1 - analytic) / n_sk), n_sk],
    ]
    write(rows, {"alpha": alpha(params), "exit_rate": params.sigma * alpha(params)})


@_command("sample", "sample_v1",
          ["path_id", "kind", "time", "prime", "valuation", "digits", "abs_exp"],
          _SEED, *_KERNEL, _HORIZON, _N_PATHS,
          click.option("--resolution", type=int, default=None), config_keys=("epochs",))
def sample_cmd(cfg, write):
    """Emit sampled paths (event records, or skeletons when epochs given)."""
    params = _params(cfg)
    T = cfg.need("T", float, 1.0)
    n = _n_paths(cfg, 10)
    sd = cfg.need("seed", int, 1)
    epochs = cfg.need("epochs", lambda v: [float(e) for e in v or ()], ())
    rows = []
    zero = PAdicScalar.zero(params.p)
    for j in range(n):
        stream = RngStream(sd).child(j)
        if epochs:
            sk = sample_skeleton(params, epochs, zero, stream, 24)
            for tt, v in zip(sk.times, sk.values):
                rows.append([j, "skeleton", tt, params.p,
                             "" if v.is_zero() else v.valuation,
                             "" if v.is_zero() else "".join(map(str, v.digits[:12])),
                             "" if v.is_zero() else v.abs_exp()])
        else:
            res = cfg.need("resolution", int, 0)
            path = sample_event_path(params, zero, T, res, stream)
            rows.append([j, "start", 0.0, params.p, "", "", ""])
            for tt, v in path.events:
                rows.append([j, "event", tt, params.p, v.valuation,
                             "".join(map(str, v.digits[:12])), v.abs_exp()])
    write(rows, {"mode": "skeleton" if epochs else "event"})


@_command("exit-count", "exit_count_v1",
          ["kind", "k", "value", "lo", "hi", "bound", "mc", "below_bound"],
          _SEED, _B, _HORIZON, _TRUNCATION, click.option("--k-max", type=int, default=None),
          _N_PATHS, config_keys=_SIGMA_KEYS)
def exit_count_cmd(cfg, write):
    """Exit-count pmf with factorial bounds, moments, and Monte Carlo."""
    sigma = _sigma_from_config(cfg)
    bb = cfg.need("b", float, 1.0)
    T = cfg.need("T", float, 1.0)
    N = cfg.need("truncation", int, 15)
    km = cfg.need("k_max", int, 10)
    n = _n_paths(cfg, 10_000)
    sd = cfg.need("seed", int, 1)
    dist = exit_count_pmf(sigma, bb, T, N, km)
    counts = np.bincount(exit_count_samples(sigma, bb, T, N, n, sd),
                         minlength=km + 1)[:km + 1]
    rows = []
    for k in range(km + 1):
        # a bound on the full count, whose pmf is >= lo; at k = 0 an equality
        bound = exit_count_factorial_bound(sigma, bb, T, k)
        slack = 1 + 1e-12 if k == 0 else 1.0
        rows.append(["pmf", k, dist.pmf[k], dist.lo[k], dist.hi[k], bound,
                     counts[k] / n, bool(dist.lo[k] <= bound * slack)])
    for m in (1, 2):
        exact, bound = exit_count_moment(sigma, bb, T, N, m)
        rows.append(["moment", m, exact, "", "", bound, "", bool(exact < bound)])
    tv = 0.5 * float(np.sum(np.abs(counts / n - np.asarray(dist.pmf))))
    write(rows, {
        "betas": [sigma.beta(i, bb) for i in range(1, N + 1)],
        "tail_exit_bound": dist.tail_exit_bound,
        "mc_tv_distance": tv,
    })


@_command("operator", "operator_v1", ["kind", "prime", "b", "m", "value_a", "value_b", "diff"],
          _B, click.option("--primes", default=None, help="comma list, default 2,3,5,7"),
          click.option("--observable", type=click.Path(exists=True), default=None,
                       help="JSON observable; emits operator values at radius ladder"))
def operator_cmd(cfg, write):
    """Vacuum multiplier norms and operator applications."""
    bb = cfg.need("b", float, 1.0)
    plist = cfg.need("primes", lambda v: [int(q) for q in str(v).split(",")], "2,3,5,7")
    for p in plist:
        KernelParams(p, bb, 1.0)  # a ConfigError for a non-prime or b <= 0, before any row
    rows = []
    for p in plist:
        closed = vacuum_multiplier_norm_sq(p, bb)
        quad, k, term = 0.0, 0, 1.0
        while term > 1e-20:
            term = p ** (-2 * bb * k) * p ** (-k) * (1 - 1 / p)
            quad += term
            k += 1
        rows.append(["norm", p, bb, "", closed, quad, abs(closed - quad)])
    obs = _doc(cfg, "observable", observable_from_json)
    if obs:
        for p, f in obs.factors:
            params = KernelParams(p, bb, 1.0)
            for m in range(-3, 4):
                x = PAdicScalar(p, -m, 1, 24)
                val = vladimirov_apply(params, f, x)
                rows.append(["apply", p, bb, m, val.real, val.imag, ""])
    write(rows, {"moment_identity": "norm_sq(p, b) = unit_ball_abs_moment(p, 2b)"})


@_command("fk", "fk_v1", ["quantity", "value_re", "value_im", "std_error", "n_paths",
                          "tail_certificate", "density_factor", "bridge_factor"],
          _SEED, _B, _T, _N_PATHS, _TRUNCATION,
          click.option("--observable", type=click.Path(exists=True), default=None),
          click.option("--potential", type=click.Path(exists=True), default=None),
          click.option("--point", type=click.Path(exists=True), default=None),
          click.option("--endpoint", type=click.Path(exists=True), default=None,
                       help="kernel mode: estimate K_t(x, y) for this y"),
          click.option("--workers", type=int, default=None),
          config_keys=_SIGMA_KEYS)
def fk_cmd(cfg, write):
    """Feynman-Kac expectation (and kernels, with --endpoint)."""
    sigma = _sigma_from_config(cfg)
    bb = cfg.need("b", float, 1.0)
    tt = cfg.need("t", float, 1.0)
    n = cfg.need("n_paths", int, 20_000)
    sd = cfg.need("seed", int, 1)

    alpha_f = _doc(cfg, "observable", observable_from_json) or SimpleAdelicSB.vacuum()
    pot = _doc(cfg, "potential", potential_from_json) or SimplePotential.zero()
    given_x = _doc(cfg, "point", point_from_json)
    x = given_x or AdelicPoint.zero()
    y = _doc(cfg, "endpoint", point_from_json)

    N = cfg.need("truncation", int, max(4, _min_truncation(x, y, alpha_f, pot)))
    req = FKRequest(sigma, bb, tt, x, alpha_f, pot, n, N, seed=sd, y=y,
                    workers=cfg.need("workers", int, 1))
    rows = []
    try:
        if y is None:
            est = fk_expectation(req)
            rows.append(["expectation", est.value.real, est.value.imag,
                         est.std_error, est.n_paths, est.tail_certificate, "", ""])
            if not pot.components:
                fp = free_propagate(sigma, bb, tt, alpha_f, x, N)
                rows.append(["free_truncated", fp.value.real, fp.value.imag, 0.0, 0,
                             fp.tail_lo_mult, "", ""])
        else:
            kernels = [("kernel", fk_kernel(req))]
            if pot.components:
                kernels.append(("kernel_reversed", fk_kernel(replace(req, x=y, y=x, seed=sd + 1))))
            for name, k in kernels:
                rows.append([name, k.value.real, k.value.imag, k.std_error, k.n_paths,
                             k.tail_certificate, k.density_factor, k.bridge_factor])
    except PrecisionError as exc:
        if given_x:
            raise
        # with no point every component is unresolved: an input is missing
        raise ConfigError(f"{exc} (no --point given)") from exc
    write(rows, {
        "truncation": N,
        "tail_certificate": tail_certificate(sigma, bb, tt, N),
        "alphas": [alpha(sigma.kernel_params(i, bb)) for i in range(1, N + 1)],
        "betas": [sigma.beta(i, bb) for i in range(1, N + 1)],
        "sigma_partial": sum(sigma.sigma(i) for i in range(1, N + 1)),
    })


@_command("validate", "validate_v1", ["module", "check", "passed", "detail", "tolerance"],
          click.option("--full", is_flag=True, default=None, help="full-size sample counts"),
          click.option("--inject-alpha-bug", is_flag=True, default=None,
                       help="self-test: corrupt the exit-law reference and expect detection"))
def validate_cmd(cfg, write):
    """Run every module's invariant suite with pre-registered seeds."""
    from .validate import run_checks  # scipy loads only for this command

    inject = bool(cfg.get("inject_alpha_bug"))
    results = run_checks(fast=not cfg.get("full"), inject_alpha_bug=inject)
    write([[r.module, r.name, r.passed, r.detail, r.tolerance] for r in results],
          {"n_checks": len(results), "n_failed": sum(not r.passed for r in results)})
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        click.echo(f"[{mark}] {r.module}.{r.name}: {r.detail} ({r.tolerance})")
    if inject:
        hit = any(not r.passed and r.name == "exit_law_event_mc" for r in results)
        click.echo("injected-bug detected" if hit else "injected-bug NOT detected")
        sys.exit(0 if hit else 1)
    if any(not r.passed for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
