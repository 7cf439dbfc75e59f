"""The pre-registered invariant battery must pass clean and catch sabotage."""

from adelic_diffusion.validate import check_fk_free_reduction, run_checks


def test_all_invariants_pass():
    results = run_checks(fast=True)
    failed = [f"{r.module}.{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed, "failed checks:\n" + "\n".join(failed)


def test_alpha_bug_injection_detected():
    results = run_checks(fast=True, inject_alpha_bug=True)
    assert any(not r.passed and r.name == "exit_law_event_mc" for r in results)


def test_free_reduction_check_samples(run_chunks_calls):
    result = check_fk_free_reduction(fast=True)
    assert result.passed, result.detail
    assert run_chunks_calls
