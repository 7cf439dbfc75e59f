"""Which library functions the traced run wraps, and the per-layer report.

Each function is wrapped at the name its caller looks up: a module-level
name such as `feynman_kac.eval_sb`, or a class attribute such as
`PAdicScalar.__add__`.  Cache ratios come from `cache_info()` read when
the traced round starts and ends, and wherever a cache is cleared.
"""

from __future__ import annotations

import sys

from adelic_diffusion import adelic, feynman_kac, heat_kernel, padic, rng, sampler

from spans import Tracer

CACHES = {
    "heat_kernel.radial_law": (heat_kernel.cached_radial_law,),
    "heat_kernel.series": (heat_kernel._density_cached, heat_kernel._ball_mass_cached),
    "sampler.bridge_classes": (sampler._bridge_classes,),
}
# caches a fresh interpreter starts without, besides the metered ones
PROCESS_CACHES = (adelic._beta_suffix, adelic._sigma_suffix)

PER_LAYER = (
    ("padic.add.calls", "count", "lower"),
    ("padic.add.self_s", "s", "lower"),
    ("padic.uniform_sphere.calls", "count", "lower"),
    ("padic.uniform_sphere.self_s", "s", "lower"),
    ("rng.generator.calls", "count", "lower"),
    ("rng.generator.self_s", "s", "lower"),
    ("heat_kernel.radial_law.builds", "count", "lower"),
    ("heat_kernel.radial_law.self_s", "s", "lower"),
    ("heat_kernel.radial_law.hit_ratio", "ratio", "higher"),
    ("heat_kernel.series.hit_ratio", "ratio", "higher"),
    ("sampler.sample_bridge.calls", "count", "lower"),
    ("sampler.sample_bridge.self_s", "s", "lower"),
    ("sampler.bridge_points", "count", "lower"),
    ("sampler.bridge_point_yield", "ratio", "higher"),
    ("sampler.bridge_classes.hit_ratio", "ratio", "higher"),
    ("sampler.sample_event_path.calls", "count", "lower"),
    ("sampler.sample_event_path.self_s", "s", "lower"),
    ("sampler.events", "count", "lower"),
    ("schwartz.eval_sb.calls", "count", "lower"),
    ("schwartz.eval_sb.self_s", "s", "lower"),
    ("feynman_kac.action_integral.calls", "count", "lower"),
    ("feynman_kac.action_integral.self_s", "s", "lower"),
    ("feynman_kac.estimator.self_s", "s", "lower"),
    ("feynman_kac.pools_started", "count", "lower"),
    ("adelic.calls", "count", "lower"),
    ("adelic.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.command.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.paths_per_s", "1/s", "higher"),
    ("trace.untraced_paths_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class CacheMeter:
    """Hits and misses of lru caches, summed across clears."""

    def __init__(self):
        self.hits = dict.fromkeys(CACHES, 0)
        self.misses = dict.fromkeys(CACHES, 0)
        self.start()

    def start(self):
        self._base = {fn: fn.cache_info() for fns in CACHES.values() for fn in fns}

    def read(self):
        for key, fns in CACHES.items():
            for fn in fns:
                info, base = fn.cache_info(), self._base[fn]
                self.hits[key] += info.hits - base.hits
                self.misses[key] += info.misses - base.misses
                self._base[fn] = info

    def clear(self, extra=()):
        """Empty every cache, as in a freshly started process."""
        self.read()
        for fn in (*extra, *(f for fns in CACHES.values() for f in fns)):
            fn.cache_clear()
        self.start()

    def ratio(self, key: str) -> float:
        total = self.hits[key] + self.misses[key]
        return self.hits[key] / total if total else 0.0


def install(tracer: Tracer, meter: CacheMeter) -> None:
    """Wrap every traced function; tracer.uninstall() restores them."""
    tracer.patch(padic.PAdicScalar, "__add__", "padic.add")
    tracer.patch(sampler, "uniform_sphere", "padic.uniform_sphere")
    tracer.patch(feynman_kac, "uniform_sphere", "padic.uniform_sphere")
    tracer.patch(rng.RngStream, "generator", "rng.generator")
    tracer.patch(heat_kernel, "radial_law", "heat_kernel.radial_law")
    tracer.patch(feynman_kac, "sample_bridge", "sampler.sample_bridge")
    tracer.count(sampler, "_bridge_point", "sampler.bridge_points")
    tracer.patch(feynman_kac, "sample_event_path", "sampler.sample_event_path",
                 on_result=lambda path: tracer.add("sampler.events", len(path.events)))
    tracer.patch(feynman_kac, "eval_sb", "schwartz.eval_sb")
    tracer.patch(feynman_kac, "action_integral", "feynman_kac.action_integral")
    tracer.patch(feynman_kac, "tail_certificate", "adelic")
    tracer.patch(feynman_kac, "component_difference", "adelic")
    tracer.patch(adelic, "choose_truncation", "adelic")
    estimators = ["fk_kernel", "fk_expectation", "free_propagate"]
    for name in estimators:
        tracer.patch(feynman_kac, name, "feynman_kac.estimator")
    cli = sys.modules.get("adelic_diffusion.cli")
    if cli is not None:
        tracer.patch(cli, "tail_certificate", "adelic")
        for name in estimators:
            if name in cli.__dict__:
                tracer.patch(cli, name, "feynman_kac.estimator")

    class InlinePool:
        """Runs a request's chunks in this process, in order, so their spans
        are recorded.  Results do not depend on the worker count.  A forked
        worker starts from this process's caches, which chunk work never
        fills here, so each pool starts with empty caches."""

        def __init__(self, max_workers=None):
            tracer.add("feynman_kac.pools_started")
            meter.clear()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return list(map(fn, iterable))

    tracer.swap(feynman_kac, "ProcessPoolExecutor", InlinePool)


def report(tracer: Tracer, meter: CacheMeter) -> dict[str, float]:
    calls, own = tracer.calls(), tracer.self_times()
    bridge_draws = tracer.calls_under("padic.uniform_sphere", "sampler.sample_bridge")
    points = tracer.counts.get("sampler.bridge_points", 0)
    out = {
        "heat_kernel.radial_law.builds": calls.get("heat_kernel.radial_law", 0),
        "heat_kernel.radial_law.hit_ratio": meter.ratio("heat_kernel.radial_law"),
        "heat_kernel.series.hit_ratio": meter.ratio("heat_kernel.series"),
        "sampler.bridge_points": points,
        "sampler.bridge_point_yield": points / bridge_draws if bridge_draws else 0.0,
        "sampler.bridge_classes.hit_ratio": meter.ratio("sampler.bridge_classes"),
        "sampler.events": tracer.counts.get("sampler.events", 0),
        "feynman_kac.pools_started": tracer.counts.get("feynman_kac.pools_started", 0),
        "cli.output_bytes": tracer.counts.get("cli.output_bytes", 0),
    }
    for name, _, _ in PER_LAYER:
        if name in out or name.startswith(("trace.", "cli.import")):
            continue
        span = name.rsplit(".", 1)[0]
        if name.endswith(".calls"):
            out[name] = calls.get(span, 0)
        elif name.endswith(".self_s"):
            out[name] = own.get(span, 0.0)
    return out
