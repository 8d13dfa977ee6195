"""Tests of the benchmark's own references and span accounting.

    python3 -m pytest benchmarks -q
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import tracing  # noqa: E402
from sensefuse import analytic, optimize  # noqa: E402
from sensefuse.model import CodingPolicy, SystemModel  # noqa: E402


def _instance(rng, k):
    return np.abs(rng.normal(7.0, 1.5, k)), np.abs(rng.normal(5.0, 1.5, k))


@pytest.mark.parametrize("k", [1, 2, 5, 12, 40])
def test_blue_reference_matches_program(k):
    rng = np.random.default_rng(k)
    gob, gch = _instance(rng, k)
    model = SystemModel.from_snrs(gob, gch)
    for _ in range(5):
        rho = rng.integers(0, 2, k)
        policy = CodingPolicy(tuple(int(b) for b in rho))
        ref = reference.blue_distortion(gob, gch, rho)
        cov = analytic.hybrid_noise_covariance(model, policy)
        assert ref == pytest.approx(analytic.blue_distortion(cov), rel=1e-12)
        assert ref == pytest.approx(analytic.hybrid_distortion(model, policy).total,
                                    rel=1e-12)


def test_brute_force_matches_global_search():
    rng = np.random.default_rng(8)
    gob, gch = _instance(rng, 8)
    d_min, rho = reference.brute_force_minimum(gob, gch)
    best = optimize.global_search(SystemModel.from_snrs(gob, gch))
    assert d_min == pytest.approx(best.distortion, rel=1e-12)
    assert reference.blue_distortion(gob, gch, rho) == d_min


@pytest.mark.parametrize("k", [1, 3, 20])
@pytest.mark.parametrize("gch", [0.5, 5.0, 50.0])
def test_homogeneous_instant_matches_dense_reference(k, gch):
    dense = reference.blue_distortion([7.0] * k, [gch] * k, [1] * k)
    assert reference.coded_homo_instant(k, 7.0, gch) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 5, 30])
@pytest.mark.parametrize("nu", [0.5, 0.9, 1.5])
def test_quadrature_matches_fading_closed_form(k, nu):
    quad = reference.fading_homo_expectation(k, 7.0, 5.0, nu)
    assert quad == pytest.approx(
        analytic.fading_coded_homo_distortion(k, 7.0, 5.0, nu), rel=1e-10)


def test_laguerre_matches_quadrature_for_one_node():
    lag = reference.fading_hetero_expectation([6.0], [3.0], 0.8)
    assert lag == pytest.approx(reference.fading_homo_expectation(1, 6.0, 3.0, 0.8),
                                rel=1e-4)


class _Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


_TOY = """
def inner(clock):
    clock.now += 3

def outer(clock):
    clock.now += 5
    inner(clock)
    inner(clock)
    clock.now += 2
"""


def test_self_time_on_nested_calls(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(tracing.time, "perf_counter_ns", clock)
    toy = types.ModuleType("toy")
    exec(_TOY, toy.__dict__)
    alias = types.ModuleType("alias")  # binds inner by name, like optimize
    inner, outer = toy.inner, toy.outer
    alias.inner = inner

    tracer = tracing.Tracer()
    tracer.install([toy, alias], {"inner": inner, "outer": outer})
    assert toy.inner is not inner and alias.inner is toy.inner
    toy.outer(clock)
    tracer.uninstall()
    assert (toy.inner, alias.inner, toy.outer) == (inner, inner, outer)

    stats = tracer.stats()
    assert stats["outer"] == {"calls": 1, "self_s": 7e-9, "total_s": 13e-9}
    assert stats["inner"] == {"calls": 2, "self_s": 6e-9, "total_s": 6e-9}
    assert [(tracer.names[fid], parent) for fid, _, _, parent in tracer.spans] \
        == [("outer", -1), ("inner", 0), ("inner", 0)]


def test_classmethod_is_patched_and_restored():
    tracer = tracing.Tracer()
    tracer.install([], {}, [("from_snrs", SystemModel, "from_snrs")])
    SystemModel.from_snrs([7.0, 6.0], [5.0, 4.0])
    tracer.uninstall()
    SystemModel.from_snrs([7.0], [5.0])
    assert tracer.stats()["from_snrs"]["calls"] == 1
    assert isinstance(SystemModel.__dict__["from_snrs"], classmethod)
