"""Shared fixtures: deterministic RNG and the shipped preset groups."""

import dataclasses
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import horoflow as hf

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="session", autouse=True)
def _src_on_child_path():
    # CLI tests spawn `python -m horoflow.cli`; those processes import
    # horoflow from this checkout too, so plain `pytest` needs no PYTHONPATH.
    # They also turn warnings into errors, as pytest does in its own process,
    # so that a raw NumPy warning fails the test instead of going unseen.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        mp.setenv("PYTHONWARNINGS", "error")
        yield


@pytest.fixture
def rng():
    # Fresh generator per test so test order cannot shift sampled values.
    return np.random.default_rng(174)


@pytest.fixture(scope="session")
def parabolic_spec():
    return hf.cyclic_parabolic()


@pytest.fixture(scope="session")
def hyperbolic_spec():
    return hf.cyclic_hyperbolic()


@pytest.fixture(scope="session")
def schottky_spec():
    return hf.schottky_pair()


@pytest.fixture(scope="session")
def flute_spec():
    return hf.truncated_flute()


def sample_mobius(rng, shear=3.0):
    """Random unit-determinant matrix as a shear * dilation * rotation product."""
    x = rng.uniform(-shear, shear)
    s = rng.uniform(-2.0, 2.0)
    th = rng.uniform(0.0, np.pi)
    e = float(np.exp(s / 2.0))
    ct, st = float(np.cos(th)), float(np.sin(th))
    return (
        hf.Mobius(1.0, x, 0.0, 1.0)
        @ hf.Mobius(e, 0.0, 0.0, 1.0 / e)
        @ hf.Mobius(ct, st, -st, ct)
    )


def conjugate_spec(spec, h):
    """The same group presented with every generator conjugated by h."""
    hinv = h.inverse()
    return dataclasses.replace(spec, generators=tuple(h @ g @ hinv for g in spec.generators))


# Four maps h in PSL(2,R) to conjugate a spec by: for each, the truth at
# (G, xi) or along u is the truth at (hGh^-1, h(xi)) or along h u
CONJUGATORS = {
    "translate": hf.Mobius(1.0, 0.37, 0.0, 1.0),
    "dilate": hf.Mobius.normalized(1.3, 0.0, 0.0, 1.0),
    "general": hf.Mobius.normalized(1.1, 0.3, 0.2, 1.06 / 1.1),
    "invert": hf.Mobius(0.0, -1.0, 1.0, 0.0),
}


def stand_in(spec, certificate=None):
    """A stand-in for ``spec`` in group._build_ball, which reads only its
    generators and its certificate: None takes the dedup path and () keeps
    every reduced word, whatever certificate the spec itself carries."""
    return SimpleNamespace(generators=spec.generators, certificate=certificate)


def sample_point(rng):
    return hf.PointH(rng.uniform(-5.0, 5.0), float(np.exp(rng.uniform(-3.0, 3.0))))


@pytest.fixture
def mobius_sampler():
    return sample_mobius


@pytest.fixture
def point_sampler():
    return sample_point
