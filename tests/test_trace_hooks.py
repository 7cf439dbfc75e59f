"""The benchmark's traced runs patch library names; they must exist and come off."""

from pathlib import Path

from adelic_diffusion import adelic, cli, feynman_kac, heat_kernel, padic, rng, sampler

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings(owner) -> dict[str, int]:
    return {name: id(value) for name, value in vars(owner).items()}


def test_benchmark_hooks_install_and_come_off(monkeypatch):
    # layers.install looks every name up in owner.__dict__, so a name the
    # library drops (sample_event_path is imported in feynman_kac only for
    # it) fails here instead of in every traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    owners = (adelic, cli, feynman_kac, heat_kernel, padic, rng, sampler,
              padic.PAdicScalar, rng.RngStream)
    before = [_bindings(owner) for owner in owners]
    tracer = Tracer()
    layers.install(tracer, layers.CacheMeter())
    try:
        patched = _bindings(feynman_kac)
        assert patched["sample_event_path"] != before[2]["sample_event_path"]
        assert patched["ProcessPoolExecutor"] != before[2]["ProcessPoolExecutor"]
    finally:
        tracer.uninstall()
    assert [_bindings(owner) for owner in owners] == before
