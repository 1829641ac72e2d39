"""The benchmark's traced run wraps library functions by name; a name that
vanishes makes every traced run fail.  These tests resolve the names the
benchmark lists and the result attributes its hooks read."""

import os
import sys

import numpy as np
import pytest

from batchprox import prox

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
    finally:
        sys.path.remove(PERFBENCH)
    return layers


def test_every_wrapped_name_is_callable(layers):
    for module, attr, label, _ in layers.WRAPS:
        assert callable(getattr(module, attr, None)), label


def test_hooked_results_keep_their_attributes():
    qp = prox.BoxQP(np.eye(2), np.ones(2), 1.0, np.zeros(2), np.full(2, 0.5))
    lam, info = prox.solve_box_qp(qp)
    assert lam.shape == (2,)
    assert isinstance(info.sweeps, int) and info.converged
    res = prox.prox_step_logistic(np.zeros(2), np.eye(2), np.ones(2), 1.0)
    assert res.inner_iterations >= 1
