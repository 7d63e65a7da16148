import numpy as np
import pytest

from ruledkit import (NumericError, RuledPatch, SampleGrid, TolerancePolicy,
                      make_builtin_patch)
from ruledkit import striction


@pytest.fixture
def tol():
    return TolerancePolicy()


def small_patch(name: str, t_samples: int = 41, **grid_kw) -> RuledPatch:
    """Builtin patch on a reduced grid for unit tests."""
    fc = make_builtin_patch(name)
    grid = SampleGrid.uniform(fc.interval, t_samples, **grid_kw)
    return RuledPatch(fc, grid)


def fail_invariance_resolve(monkeypatch, fail_at: int):
    """Make the `fail_at`-th per-offset re-solve (counted from 1) of the
    invariance stage raise a numeric error; the other re-solves run
    unchanged."""
    resolve = striction._shifted_sheet
    calls = []

    def failing(p, d, a, chol, c):
        calls.append(1)
        if len(calls) == fail_at:
            raise NumericError("injected re-solve failure")
        return resolve(p, d, a, chol, c)

    monkeypatch.setattr(striction, "_shifted_sheet", failing)


@pytest.fixture
def cone_patch():
    return small_patch("circular_cone")


@pytest.fixture
def helicoid_patch():
    return small_patch("helicoid_frame")


@pytest.fixture
def tangent_dev_patch():
    return small_patch("tangent_developable_helix")


@pytest.fixture
def cylinder_patch():
    return small_patch("cylinder_helix")


@pytest.fixture
def product_patch():
    return small_patch("tangent_developable_product")


@pytest.fixture
def two_rotation_patch():
    return small_patch("two_rotation_r5")


def unit(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v
