import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.internal.conjecture import providers

from sensefuse import simulate
from sensefuse.experiments import derive_seed

# property tests draw the same examples on every run, keep no example
# database on disk and have no per-example time limit
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
# hypothesis also caches the constants it finds in the tested modules, at
# collection time and whatever the database; keep that cache out of the
# checkout, in a directory removed when the session ends
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# hypothesis also mixes into its draws the float, integer and string
# literals it harvests from every imported non-test module, sensefuse's among
# them, so editing a literal in the library would change the examples; draw
# none (a hypothesis without the harvest has nothing to switch off)
if hasattr(providers, "_get_local_constants"):
    providers._get_local_constants = lambda: providers.Constants()


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


CH_SPEC = simulate.FoldedNormalSpec(target_mean=5.0, std_dev=1.5)
OB_SPEC = simulate.FoldedNormalSpec(target_mean=7.0, std_dev=1.5)


def random_instance(n_nodes: int, seed: int):
    """Heterogeneous instance with the folded-normal SNR statistics used
    throughout the numerical studies (channel mean 5, observation mean 7)."""
    return simulate.generate_instance(n_nodes, CH_SPEC, OB_SPEC, seed)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
