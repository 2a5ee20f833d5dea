"""Smoke tests for the benchmark modules.

Every ``bench_*.py`` module defines its timed cases once, in
``register(suite)``; ``python -m repro bench`` times them.  Under pytest
each case that ``register`` adds, in quick or in full mode, becomes one
test named after the case: it builds the case, so the factory checks its
answer, and calls what is timed once, untimed.  A case whose name both
modes register is built as quick mode registers it.  The modules' own
``test_*`` acceptance tests are collected as usual.  The databases a
module caches for its cases (its ``_cache``) are dropped once its tests
are done, so the run holds one module's large extents at a time.
"""

import pytest

from repro.obs.bench import BenchSuite


@pytest.fixture(autouse=True, scope="module")
def _drop_module_cache(request):
    yield
    getattr(request.module, "_cache", {}).clear()


def _smoke_test(case):
    def test():
        case.build()

    return test


def pytest_pycollect_makeitem(collector, name, obj):
    if name != "register" or not isinstance(collector, pytest.Module):
        return None
    cases = {}
    for quick in (True, False):
        suite = BenchSuite(collector.path.stem, quick=quick)
        obj(suite)
        for case in suite.cases:
            cases.setdefault(case.name, case)
    return [
        pytest.Function.from_parent(
            collector, name=case.name, callobj=_smoke_test(case)
        )
        for case in cases.values()
    ]
