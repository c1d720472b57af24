import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from f0priv.synth import _standardized_skewnorm


@pytest.mark.parametrize("shape", [-9.7, -1.0, 0.0, 0.25, 3.0, 9.9])
def test_skewnorm_draw_matches_scipy(shape):
    # scipy.stats.skewnorm is the reference: the same samples from the same
    # generator, which is left in the same state.
    from scipy.stats import skewnorm

    ours, theirs = np.random.default_rng(17), np.random.default_rng(17)
    got = _standardized_skewnorm(ours, shape, 200)
    delta = shape / np.sqrt(1.0 + shape**2)
    mean = delta * np.sqrt(2.0 / np.pi)
    std = np.sqrt(1.0 - 2.0 * delta**2 / np.pi)
    expected = (skewnorm.rvs(shape, size=200, random_state=theirs) - mean) / std
    assert np.array_equal(got, expected)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_import_loads_no_scipy_stats():
    # scipy.stats costs about half a second to import.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, f0priv.synth; print([m for m in sys.modules if m.startswith('scipy.stats')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
