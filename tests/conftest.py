from collections import Counter

import pytest

from qlatin import qls_core
from qlatin.algebraic import RadExt
from qlatin.claims import run_all_claims


@pytest.fixture(scope="session")
def claims_results():
    """One full claims run shared by the acceptance gate and the claims tests."""
    return run_all_claims()


@pytest.fixture(scope="session")
def claims_by_id(claims_results):
    return {r.claim_id: r for r in claims_results}


@pytest.fixture
def count_work(monkeypatch):
    """run(f, *args) calls f(*args) and returns how often that called
    RadExt.sign, RadExt.__neg__, RadExt.__mul__, RadExt.__eq__ and
    qls_core.inner_product, as {"sign", "neg", "mul", "eq", "inner_product":
    count}, zeros left out. A dict or set finds an equal RadExt by identity,
    so "eq" counts only the comparisons that ran Python code."""
    counts = Counter()

    def counting(name, f):
        def counted(*args):
            counts[name] += 1
            return f(*args)

        return counted

    for name, owner, attr in (
        ("sign", RadExt, "sign"),
        ("neg", RadExt, "__neg__"),
        ("mul", RadExt, "__mul__"),
        ("eq", RadExt, "__eq__"),
        ("inner_product", qls_core, "inner_product"),
    ):
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))

    def run(f, *args):
        counts.clear()
        f(*args)
        return dict(counts)

    return run
