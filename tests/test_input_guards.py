"""The scalar input contract: every public entry point that takes a count,
SNR, power or fading mean rejects 0, -1, NaN and inf in it with
``ValidationError``, never with a wrong number or another exception."""

import math

import pytest

from sensefuse import analytic as an
from sensefuse import experiments as ex
from sensefuse import optimize as op
from sensefuse import simulate as sim
from sensefuse.model import CodingPolicy, SystemModel, ValidationError, snr_from_db

BAD_VALUES = [0, -1, math.nan, math.inf]

_MODEL = SystemModel.homogeneous(2, 7.0, 5.0)
_SPEC = sim.FoldedNormalSpec(target_mean=5.0, std_dev=1.5)
_HOMO = dict(n_nodes=3, gamma_ob=7.0, gamma_ch=5.0, sigma_theta_sq=1.0)
_HOMO_ARGS = list(_HOMO)
_TOTAL = dict(n_nodes=3, gamma_ob=7.0, gamma_total=5.0)

# (entry point, valid keyword arguments, the arguments it must guard)
GUARDED = [
    (an.quantization_cross_moments,
     dict(sigma_theta_sq=1.0, sigma_ob_sq=0.5, sigma_qu_sq=0.3),
     ["sigma_theta_sq", "sigma_ob_sq", "sigma_qu_sq"]),
    (an.coded_homo_distortion, _HOMO, _HOMO_ARGS),
    (an.uncoded_homo_distortion, _HOMO, _HOMO_ARGS),
    (an.coded_homo_distortion_limit, dict(gamma_ch=5.0, sigma_theta_sq=1.0),
     ["gamma_ch", "sigma_theta_sq"]),
    (an.limiting_distortion,
     dict(scheme="coded", ob_regime="finite", ch_regime="finite", **_HOMO), _HOMO_ARGS),
    (an.total_power_distortions, dict(_TOTAL, sigma_theta_sq=1.0),
     ["n_nodes", "gamma_ob", "gamma_total", "sigma_theta_sq"]),
    (an.total_power_distortion_limits,
     dict(gamma_ob=7.0, gamma_total=5.0, sigma_theta_sq=1.0),
     ["gamma_ob", "gamma_total", "sigma_theta_sq"]),
    (an.coded_wins_homo, dict(n_nodes=3, gamma_ob=7.0, gamma_ch=5.0),
     ["n_nodes", "gamma_ob", "gamma_ch"]),
    (an.coded_wins_total, _TOTAL, ["n_nodes", "gamma_ob", "gamma_total"]),
    (an.gamma_ob_star, dict(n_nodes=3), ["n_nodes"]),
    (an.coded_region_channel_roots, dict(n_nodes=5, gamma_ob=7.0), ["n_nodes", "gamma_ob"]),
    (an.fading_coded_homo_distortion, dict(_HOMO, nu=0.9), [*_HOMO_ARGS, "nu"]),
    (an.crossover_node_count, dict(gamma_ob=7.0, gamma_ch=5.0), ["gamma_ob", "gamma_ch"]),
    (an.crossover_node_count_total, dict(gamma_ob=7.0, gamma_total=5.0),
     ["gamma_ob", "gamma_total"]),
    (sim.folded_normal_mean, dict(mu=1.0, sigma=1.5), ["sigma"]),
    (sim.folded_normal_location, dict(target_mean=5.0, std_dev=1.5),
     ["target_mean", "std_dev"]),
    (sim.generate_instance,
     dict(n_nodes=3, ch_spec=_SPEC, ob_spec=_SPEC, seed=0, sigma_theta_sq=1.0),
     ["n_nodes", "sigma_theta_sq"]),
    (sim.empirical_distortion,
     dict(model=_MODEL, policy=CodingPolicy((1, 0)), n_trials=100, seed=0), ["n_trials"]),
    (sim.fading_empirical_distortion, dict(model=_MODEL, nu=0.9, n_blocks=100, seed=0),
     ["nu", "n_blocks"]),
    (op.group_greedy, dict(model=_MODEL, group_size=2), ["group_size"]),
    (op.group_greedy_batch, dict(models=[_MODEL], group_size=2), ["group_size"]),
    (op.exhaustive_group_size, dict(n_nodes=3), ["n_nodes"]),
    (SystemModel.homogeneous, dict(n_nodes=3, gamma_ob=7.0, gamma_ch=5.0), ["n_nodes"]),
    (CodingPolicy.all_coded, dict(n_nodes=3), ["n_nodes"]),
    (CodingPolicy.all_uncoded, dict(n_nodes=3), ["n_nodes"]),
    (ex.run_random_error_study, dict(k=3, group_sizes=[1], n_sim=2, seed=0),
     ["k", "n_sim"]),
]

# a count must also be a whole number; total_power_distortions alone takes
# a continuous node count
_COUNTS = {"n_nodes", "k", "n_trials", "n_blocks", "n_sim", "group_size"}


def _bad_values(fn, name):
    whole = name in _COUNTS and fn is not an.total_power_distortions
    return BAD_VALUES + [2.5] * whole


_CASES = [(fn, kwargs, name, bad) for fn, kwargs, names in GUARDED
          for name in names for bad in _bad_values(fn, name)]

# every entry point that takes a seed
_SEEDED = ([(fn, kwargs) for fn, kwargs, _ in GUARDED if "seed" in kwargs]
           + [(ex.derive_seed, dict(seed=0))])


@pytest.mark.parametrize("fn, kwargs", [(fn, kwargs) for fn, kwargs, _ in GUARDED],
                         ids=[fn.__name__ for fn, _, _ in GUARDED])
def test_table_arguments_are_valid(fn, kwargs):
    # so each failure below comes from the one bad value
    fn(**kwargs)


@pytest.mark.parametrize("fn, kwargs, name, bad", _CASES,
                         ids=[f"{fn.__name__}-{name}={bad}" for fn, _, name, bad in _CASES])
def test_bad_scalar_argument_raises_validation_error(fn, kwargs, name, bad):
    with pytest.raises(ValidationError):
        fn(**dict(kwargs, **{name: bad}))


@pytest.mark.parametrize("bad", [-1, 2.5, math.nan])
@pytest.mark.parametrize("fn, kwargs", _SEEDED, ids=[fn.__name__ for fn, _ in _SEEDED])
def test_bad_seed_raises_validation_error(fn, kwargs, bad):
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        fn(**dict(kwargs, seed=bad))


def test_snr_from_db_rejects_nan():
    with pytest.raises(ValidationError, match="out of range"):
        snr_from_db(math.nan)


@pytest.mark.parametrize("call, message", [
    (lambda: an.coded_homo_distortion(0, 7.0, 5.0), "node count must be >= 1, got 0"),
    (lambda: SystemModel.homogeneous(0, 7.0, 5.0), "node count must be >= 1, got 0"),
    (lambda: CodingPolicy.all_coded(math.nan), "node count must be >= 1, got nan"),
    (lambda: CodingPolicy.all_uncoded(2.5), "node count must be an integer, got 2.5"),
    (lambda: sim.empirical_distortion(_MODEL, CodingPolicy((1, 1)), 1e5, 0),
     "n_trials must be an integer, got 100000.0"),
    (lambda: op.group_greedy(_MODEL, 2.5), "group size must be an integer, got 2.5"),
    (lambda: an.gamma_ob_star(2), "node count must be >= 3, got 2"),
    (lambda: sim.empirical_distortion(_MODEL, CodingPolicy((1, 1)), 1, 0),
     "n_trials must be >= 2, got 1"),
    (lambda: an.crossover_node_count(7.0, math.inf), "gamma_ch is infinite"),
    (lambda: an.coded_wins_homo(3, math.nan, 5.0), "gamma_ob is NaN"),
    (lambda: an.total_power_distortions(-1, 7.0, 5.0), "nonpositive n_nodes: -1"),
    (lambda: sim.fading_empirical_distortion(_MODEL, math.inf, 100, 0),
     "fading mean is infinite"),
    (lambda: sim.fading_empirical_distortion(_MODEL, 0.9, 100, 0, scheme="analog"),
     "unknown scheme 'analog'"),
    (lambda: an.limiting_distortion("coded", "finite", "finite", 3, None, 5.0),
     "finite observation regime requires gamma_ob"),
    (lambda: op.policy_error_rate([], []), "empty policy batch"),
    (lambda: op.policy_error_rate([(1, 0), (1,)], [(1, 0), (0, 1)]),
     "policies in one batch must share a length"),
])
def test_guard_messages_name_the_argument(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


def test_total_power_distortions_keep_fractional_node_counts():
    # the total-power forms take a continuous K; only a nonpositive one is out
    coded, uncoded = an.total_power_distortions(0.5, 7.0, 5.0)
    assert coded > 0 and uncoded > 0
