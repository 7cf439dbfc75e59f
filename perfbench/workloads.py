"""The benchmark's three workloads: inputs from the seed, one round of
requests, and the checks on every output.

Each workload runs as a closed loop from one client: a round is a fixed
list of operations, and the runner starts a new round only after the last
one returned.  The library sees only the inputs generated here, and every
output is checked against the independent oracles in `oracles.py` or
against properties the output must have; no stored copy of an earlier
output is used.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import oracles
from adelic_diffusion import adelic, feynman_kac as fk
from adelic_diffusion.adelic import AdelicPoint, SigmaSequence
from adelic_diffusion.errors import AdelicDiffusionError
from adelic_diffusion.padic import Ball, PAdicScalar
from adelic_diffusion.primes import prime_at
from adelic_diffusion.schwartz import SBFunction, SimpleAdelicSB, SimplePotential

SE_BAND = 4.0
REL_TOL = 1e-10
DIGITS = 24
WARM_UP_ROUND = 10**6    # a round index the timed loop never reaches


@dataclass
class Record:
    """One operation of a round: an estimation request, or a CLI re-run."""

    kind: str
    seconds: float
    paths: int = 0
    value: float = math.nan
    se: float = math.nan
    ok: bool = True
    info: dict = field(default_factory=dict)


# -- checks (pure functions, so tests can feed them perturbed outputs) -------


def check_close(name: str, value: float, reference: float, rel: float = REL_TOL) -> list[str]:
    if abs(value - reference) <= rel * abs(reference):
        return []
    return [f"{name}: {value!r} differs from oracle {reference!r} by more than {rel:g} relative"]


def check_band(name: str, value: float, se: float, reference: float,
               reference_se: float = 0.0) -> list[str]:
    band = SE_BAND * math.hypot(se, reference_se)
    if abs(value - reference) <= band:
        return []
    return [f"{name}: {value!r} is {abs(value - reference) / band * SE_BAND:.2f} SE "
            f"from {reference!r} (band {SE_BAND:g} SE)"]


def check_kernel_pair(forward: Record, backward: Record, density: float,
                      lower: float) -> list[str]:
    """Density factors against the oracle, bridge factors inside
    [e^{-t sum tau sup v}, 1], and the reversed estimate in the SE band."""
    out = []
    for rec in (forward, backward):
        out += check_close("density_factor", rec.info["density_factor"], density)
        bf = rec.info["bridge_factor"]
        if not lower - 1e-12 <= bf <= 1.0 + 1e-12:
            out.append(f"bridge_factor {bf!r} outside [{lower!r}, 1]")
    out += check_band("reversed kernel", backward.value, backward.se, forward.value, forward.se)
    return out


def check_cli_rows(rows: dict, manifest: dict, oracle: float, cert_floor: float) -> list[str]:
    """The `fk` data file and manifest of one expectation run."""
    out = check_close("free_truncated", rows["free_truncated"][0], oracle)
    value, se = rows["expectation"]
    out += check_band("expectation", value, se, oracle)
    cert = manifest["derived"]["tail_certificate"]
    if not cert >= cert_floor:
        out.append(f"tail certificate {cert!r} below {cert_floor!r}")
    return out


# -- helpers ----------------------------------------------------------------


def _unit(gen: np.random.Generator, p: int, valuation: int = 0) -> PAdicScalar:
    digits = [int(gen.integers(1, p))] + [int(d) for d in gen.integers(0, p, DIGITS - 1)]
    return PAdicScalar.from_digits(p, valuation, digits)


def _ball_fn(center: PAdicScalar, balls) -> SBFunction:
    """Nested ball indicators around one centre: [(radius_exp, coeff), ...]."""
    return SBFunction(center.prime, tuple((Ball(center, r), complex(c)) for r, c in balls))


def _request(fn, req) -> Record:
    t0 = time.perf_counter()
    try:
        est = fn(req)
    except AdelicDiffusionError as exc:
        return Record("request", 0.0, ok=False, info={"error": repr(exc)})
    dt = time.perf_counter() - t0
    return Record("request", dt, req.n_paths, est.value.real, est.std_error,
                  info={"density_factor": est.density_factor,
                        "bridge_factor": est.bridge_factor})


def _scalar_json(x: PAdicScalar) -> dict:
    return {"valuation": x.valuation, "digits": list(x.digits)}


# -- kernel_bridge -------------------------------------------------------------


class KernelBridge:
    """fk_kernel at a fixed t on a 32-step bridge grid, in (x, y)/(y, x) pairs.

    x is 0 at the first N primes and each pair draws a fresh y with
    |y_i| = p_i^Y_EXPONENTS[i] and random unit digits.  The potential balls
    are centred at x, so every request has the same law and only the digits
    differ; the density and bridge-class caches stay warm after warm-up.
    """

    name = "kernel_bridge"
    RSS_CHILDREN_ONLY = False
    T, B, N, STEPS, PATHS = 1.0, 1.0, 6, 32, 160
    SIGMA = SigmaSequence(explicit=(3.0, 4.0, 6.0), tail_coeff=1.0, tail_power=2.0)
    # prime -> (tau, ((radius_exp, coeff), ...)), balls centred at x = 0
    POTENTIAL = {2: (1.0, ((0, 1.0), (-1, 0.5))), 3: (1.0, ((0, 1.0),)), 5: (2.0, ((-1, 1.0),))}
    Y_EXPONENTS = (1, 0, 0, 0, 0, 0)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.x = AdelicPoint.resolved_zeros(self.N)
        self.v = SimplePotential.of({
            p: (tau, _ball_fn(PAdicScalar.zero(p), balls))
            for p, (tau, balls) in self.POTENTIAL.items()
        })
        # sup of a nested sum at its common centre is the sum of coefficients
        sup_action = sum(tau * sum(c for _, c in balls) for tau, balls in self.POTENTIAL.values())
        self.bridge_lower = math.exp(-self.T * sup_action)
        self.density = math.prod(
            oracles.density(prime_at(i), self.B, self.SIGMA.sigma(i), self.T, e)
            for i, e in enumerate(self.Y_EXPONENTS, start=1)
        )

    def _inputs(self, r: int):
        gen = np.random.default_rng([self.seed, r])
        y = AdelicPoint.of({
            prime_at(i): _unit(gen, prime_at(i), -e)
            for i, e in enumerate(self.Y_EXPONENTS, start=1)
        })
        s1, s2 = (int(s) for s in gen.integers(1, 2**31, size=2))
        req = fk.FKRequest(self.SIGMA, self.B, self.T, self.x, SimpleAdelicSB.vacuum(), self.v,
                           self.PATHS, self.N, seed=s1, y=y, bridge_steps=self.STEPS)
        return req, replace(req, x=y, y=self.x, seed=s2)

    def warm_up(self):
        _request(fk.fk_kernel, self._inputs(WARM_UP_ROUND)[0])

    def run_round(self, r: int) -> list[Record]:
        return [_request(fk.fk_kernel, req) for req in self._inputs(r)]

    def check(self, records: list[Record]) -> list[str]:
        out = []
        for a, b in zip(records[0::2], records[1::2]):
            if a.ok and b.ok:
                out += check_kernel_pair(a, b, self.density, self.bridge_lower)
        return out


# -- schrodinger_events --------------------------------------------------------


class SchrodingerEvents:
    """Exact-mode fk_expectation over a ladder of horizons (one per request).

    The potential is a radius-p^-1 ball indicator at 2 and 3 centred on the
    start point, so those primes run event paths at resolution p^-1; the
    observable is a ball indicator at 2, 3, 5, 7 and 11.  Each request runs
    its chunks on a two-worker process pool.
    """

    name = "schrodinger_events"
    RSS_CHILDREN_ONLY = False
    T_LADDER = (0.5, 1.0, 2.0)     # an odd ladder: the median request is a t = 1 one
    B, N, PATHS, CHUNK, WORKERS = 1.0, 8, 4000, 1000, 2
    SIGMA = SigmaSequence(explicit=(1.5, 1.0), tail_coeff=1.0, tail_power=2.0)
    POTENTIAL = {2: (0.5, -1), 3: (1.0, -1)}           # prime -> (tau, radius_exp)
    # prime -> (radius_exp, centred on the start x_p; else centred on 0)
    OBSERVABLE = {2: (0, True), 3: (1, True), 5: (0, False), 7: (-1, True), 11: (0, True)}
    ORACLE_PATHS = 200_000

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        gen = np.random.default_rng([seed, 0])
        self.start = {p: _unit(gen, p) for p in self.OBSERVABLE}
        self.x = AdelicPoint.of(self.start)
        self.v = SimplePotential.of({
            p: (tau, _ball_fn(self.start[p], ((r, 1.0),)))
            for p, (tau, r) in self.POTENTIAL.items()
        })
        self.alpha = SimpleAdelicSB.of({
            p: _ball_fn(self.start[p] if on_start else PAdicScalar.zero(p), ((r, 1.0),))
            for p, (r, on_start) in self.OBSERVABLE.items()
        })
        self.oracle_seed = int(gen.integers(1, 2**31))
        self._oracle: dict[float, tuple[float, float]] = {}

    def request(self, r: int, k: int, workers: int | None = None):
        seed = int(np.random.default_rng([self.seed, r, k]).integers(1, 2**31))
        return fk.FKRequest(self.SIGMA, self.B, self.T_LADDER[k], self.x, self.alpha, self.v,
                            self.PATHS, self.N, seed=seed, chunk_size=self.CHUNK,
                            workers=workers or self.WORKERS)

    def warm_up(self):
        _request(fk.fk_expectation, self.request(WARM_UP_ROUND, 0))

    def run_round(self, r: int) -> list[Record]:
        out = []
        for k, t in enumerate(self.T_LADDER):
            rec = _request(fk.fk_expectation, self.request(r, k))
            rec.info.update(t=t, round=r, k=k)
            out.append(rec)
        return out

    def oracle(self, t: float) -> tuple[float, float]:
        """Exponent chain at the potential primes times exact ball masses."""
        if t not in self._oracle:
            gen = np.random.default_rng([self.oracle_seed, int(t * 1000)])
            value, rel_var = 1.0, 0.0
            for i in range(1, self.N + 1):
                p, sigma = prime_at(i), self.SIGMA.sigma(i)
                r_obs, on_start = self.OBSERVABLE.get(p, (0, True))
                if p in self.POTENTIAL:
                    tau, r_pot = self.POTENTIAL[p]
                    m, se = oracles.damped_ball_expectation(
                        p, self.B, sigma, t, tau, r_pot, r_obs, self.ORACLE_PATHS, gen)
                    value *= m
                    rel_var += (se / m) ** 2
                else:
                    # starts are units, so a ball centred on 0 is at distance p^0;
                    # at primes without a factor the vacuum ball Z_p holds x
                    value *= oracles.ball_mass_at(p, self.B, sigma, t,
                                                  None if on_start else 0, r_obs)
            self._oracle[t] = (value, value * math.sqrt(rel_var))
        return self._oracle[t]

    def check(self, records: list[Record]) -> list[str]:
        out = []
        for rec in records:
            if rec.ok:
                ref, ref_se = self.oracle(rec.info["t"])
                out += check_band(f"expectation t={rec.info['t']}", rec.value, rec.se, ref, ref_se)
        first = next((rec for rec in records if rec.ok), None)
        if first is not None:
            serial = fk.fk_expectation(self.request(first.info["round"], first.info["k"], workers=1))
            if (serial.value.real, serial.std_error) != (first.value, first.se):
                out.append(f"workers=1 result {serial.value.real!r} +- {serial.std_error!r} "
                           f"differs from workers=2 result {first.value!r} +- {first.se!r}")
        return out


# -- adelic_cli ----------------------------------------------------------------


def read_fk_rows(path: Path) -> dict:
    with open(path, newline="") as fh:
        return {row["quantity"]: (float(row["value_re"]), float(row["std_error"]))
                for row in csv.DictReader(fh)}


def normalised_manifest_bytes(path: Path) -> int:
    """Manifest size with its wall-clock field written as 0.0, so the count repeats."""
    doc = json.loads(path.read_text())
    doc["wall_time_s"] = 0.0
    return len(json.dumps(doc, indent=2, sort_keys=True))


class AdelicCli:
    """The `fk` console command, one fresh interpreter per request.

    Expectation mode with no potential, a ball indicator at 2, 3 and 5
    centred on the resolved --point, 20,000 paths, and the truncation that
    choose_truncation gives for a tail certificate of 1 - 3e-5 (N = 666 for
    sigma_i = p_i^-2).  A round is two such requests and one re-run of a
    fixed small command from its manifest.
    """

    name = "adelic_cli"
    RSS_CHILDREN_ONLY = True       # the work runs in the command's processes
    T, B, EPS, PATHS = 1.0, 1.0, 3e-5, 20_000
    OBSERVABLE = {2: -1, 3: -1, 5: 0}                  # prime -> radius_exp around x_p
    SIGMA = SigmaSequence.inverse_square()
    # fixed inputs of the manifest re-run, independent of the seed
    REPRO_OBSERVABLE = {"factors": [{"prime": 3, "terms": [
        {"valuation": 0, "digits": [1], "radius_exp": -1, "coeff": 1.0}]}]}
    REPRO_POINT = {"components": [{"prime": 3, "valuation": 0, "digits": [1]}]}

    def __init__(self, seed: int, work_dir: Path, in_process=None):
        self.seed = seed
        self.dir = work_dir / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.in_process = in_process       # traced runs: callable(args) -> exit code
        self.bytes_written = 0
        self._oracles: dict[int, float] = {}

    # -- running the command ---------------------------------------------------

    def _fk(self, args: list[str]) -> int:
        if self.in_process is not None:
            return self.in_process(["fk", *args])
        env = dict(os.environ)
        env.pop("ADELIC_DIFFUSION_WORKERS", None)
        proc = subprocess.run([sys.executable, "-m", "adelic_diffusion.cli", "fk", *args],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        return proc.returncode

    def _write(self, name: str, doc: dict) -> str:
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def _inputs(self, r: int, slot: int):
        gen = np.random.default_rng([self.seed, r, slot])
        point = {p: _unit(gen, p) for p in self.OBSERVABLE}
        obs = {"factors": [
            {"prime": p, "terms": [{**_scalar_json(point[p]), "radius_exp": rad, "coeff": 1.0}]}
            for p, rad in self.OBSERVABLE.items()
        ]}
        pt = {"components": [{"prime": p, **_scalar_json(x)} for p, x in point.items()]}
        return (self._write(f"obs{slot}.json", obs), self._write(f"point{slot}.json", pt),
                int(gen.integers(1, 2**31)))

    def request(self, r: int, slot: int) -> Record:
        obs, pt, seed = self._inputs(r, slot)
        out = self.dir / f"fk{slot}.csv"
        t0 = time.perf_counter()
        n = adelic.choose_truncation(self.SIGMA, self.B, self.T, self.EPS)
        code = self._fk(["--observable", obs, "--point", pt, "-N", str(n),
                         "--n-paths", str(self.PATHS), "--seed", str(seed),
                         "--t", repr(self.T), "--b", repr(self.B), "-o", str(out)])
        dt = time.perf_counter() - t0
        if code != 0:
            return Record("request", dt, ok=False, info={"exit_code": code})
        manifest_path = Path(str(out) + ".manifest.json")
        rows = read_fk_rows(out)
        self.bytes_written += out.stat().st_size + normalised_manifest_bytes(manifest_path)
        value, se = rows["expectation"]
        return Record("request", dt, self.PATHS, value, se,
                      info={"truncation": n, "rows": rows,
                            "manifest": json.loads(manifest_path.read_text())})

    def reproduce(self) -> Record:
        """Run a fixed command, re-run it from its manifest, compare the data files."""
        obs = self._write("repro_obs.json", self.REPRO_OBSERVABLE)
        pt = self._write("repro_point.json", self.REPRO_POINT)
        first, again = self.dir / "repro.csv", self.dir / "repro_rerun.csv"
        t0 = time.perf_counter()
        code = self._fk(["--observable", obs, "--point", pt, "-N", "12",
                         "--n-paths", "2000", "--seed", "1", "-o", str(first)])
        if code == 0:
            code = self._fk(["--config", str(first) + ".manifest.json", "-o", str(again)])
        dt = time.perf_counter() - t0
        same = code == 0 and first.read_bytes() == again.read_bytes()
        return Record("reproduce", dt, ok=same, info={"exit_code": code})

    def warm_up(self):
        self.request(WARM_UP_ROUND, 0)

    def run_round(self, r: int) -> list[Record]:
        return [self.request(r, 0), self.request(r, 1), self.reproduce()]

    # -- checks ----------------------------------------------------------------

    def oracle(self, n: int) -> float:
        if n not in self._oracles:
            self._oracles[n] = math.prod(
                oracles.ball_mass(prime_at(i), self.B, self.SIGMA.sigma(i), self.T,
                                  self.OBSERVABLE.get(prime_at(i), 0))
                for i in range(1, n + 1)
            )
        return self._oracles[n]

    def check(self, records: list[Record]) -> list[str]:
        out = []
        for rec in records:
            if rec.kind == "request" and rec.ok:
                n = rec.info["truncation"]
                out += check_cli_rows(rec.info["rows"], rec.info["manifest"],
                                      self.oracle(n), 1.0 - self.EPS)
        return out


def run_cli_in_process(args: list[str]) -> int:
    """Run one CLI command in this process, as click's standalone mode would."""
    from adelic_diffusion import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=args, standalone_mode=False)
        except SystemExit as exc:
            return int(exc.code or 0)
    return 0


WORKLOADS = {w.name: w for w in (KernelBridge, SchrodingerEvents, AdelicCli)}
