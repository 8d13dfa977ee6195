"""The Monte Carlo pins hold under forced numpy and BLAS kernels.

The two fig5 fading digests and the two K = 4 validate pins are rerun in
subprocesses, once with numpy's AVX-512 loops disabled (numpy as on an
AVX2-only host) and once with OpenBLAS forced onto its Prescott kernels,
and must pass unchanged.  Left out, because their last bits still follow
the host's BLAS kernel: the K = 8 validate pin
(``test_cli_validate_json_pinned_at_eight_nodes``, through the LAPACK
Cholesky of the fusion weights) and the homogeneous global-search pins
(``test_search_results_are_pinned[homogeneous global-*]``, whose exact
ties the enumeration's matrix-vector rounding breaks).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sensefuse

_ROOT = Path(__file__).resolve().parents[1]
_PINS = [
    "tests/test_experiments_cli.py::test_cli_fig5_fading_pinned",
    "tests/test_experiments_cli.py::test_cli_validate_json_pinned",
    "tests/test_simulate.py::test_empirical_distortion_pinned_stream",
]
_SETTINGS = {
    "numpy without AVX-512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "OpenBLAS Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
}


def _environment(setting: dict) -> dict:
    # OPENBLAS_VERBOSE=2 makes a DYNAMIC_ARCH OpenBLAS name its core on load
    env = dict(os.environ, OPENBLAS_VERBOSE="2", **setting)
    source = str(Path(sensefuse.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return env


def _refusal(setting: dict, env: dict):
    """Why the host's numpy or BLAS cannot take ``setting``, or None."""
    probe = subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode:
        return f"numpy refuses {setting}: {probe.stderr.strip()[-200:]}"
    if "OPENBLAS_CORETYPE" in setting and ("Core:" not in probe.stderr
                                           or "Core not found" in probe.stderr):
        return f"no DYNAMIC_ARCH OpenBLAS takes {setting}"
    return None


@pytest.fixture(scope="module")
def pin_runs():
    """Per setting, the running pytest of the pins, or why it cannot run;
    both settings start at once, so the two cases take the time of one."""
    runs = {}
    for name, setting in _SETTINGS.items():
        env = _environment(setting)
        runs[name] = _refusal(setting, env) or subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *_PINS],
            cwd=_ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    yield runs
    for run in runs.values():
        if isinstance(run, subprocess.Popen):
            run.kill()
            run.communicate()


@pytest.mark.parametrize("setting", list(_SETTINGS))
def test_monte_carlo_pins_hold_under_forced_kernels(pin_runs, setting):
    run = pin_runs[setting]
    if isinstance(run, str):
        pytest.skip(run)
    output, _ = run.communicate(timeout=300)
    assert run.returncode == 0, output[-3000:]
    assert "4 passed" in output
