"""Property tests over the whole valid domain: models and specs reject
invalid values when they are made, the hybrid closed form reduces to the
single-scheme ones, the heterogeneous condition agrees with the distortion
gap, the hybrid closed form matches the dense BLUE oracle, the exhaustive
optimum bounds every greedy search, and an extra node never hurts the
optimum.  SNRs and source powers are drawn on a log scale from 1e-6 to 1e6
(1e-3 to 1e3 against the oracle)."""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sensefuse import analytic, optimize, simulate
from sensefuse.model import CodingPolicy, SensorLink, SystemModel, ValidationError

positive = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e)
moderate = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e)
invalid = st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])


@st.composite
def models(draw, max_nodes=8, values=positive):
    k = draw(st.integers(1, max_nodes))
    gob = draw(st.lists(values, min_size=k, max_size=k))
    gch = draw(st.lists(values, min_size=k, max_size=k))
    return SystemModel.from_snrs(gob, gch, sigma_theta_sq=draw(values))


def _rel_err(x, y):
    return abs(x - y) / abs(y)


# ---------------------------------------------------------------------------
# valid by construction
# ---------------------------------------------------------------------------

@given(models(), st.sampled_from(["gamma_ob", "gamma_ch", "sigma_theta_sq", "bandwidth"]),
       invalid, st.data())
def test_model_rejects_invalid_value_at_construction(model, name, bad, data):
    links = list(model.links)
    sigma_theta_sq, bandwidth = model.sigma_theta_sq, model.bandwidth
    if name in ("gamma_ob", "gamma_ch"):
        k = data.draw(st.integers(0, len(links) - 1))
        links[k] = replace(links[k], **{name: bad})
    elif name == "sigma_theta_sq":
        sigma_theta_sq = bad
    else:
        bandwidth = bad
    with pytest.raises(ValidationError):
        SystemModel(sigma_theta_sq, links, bandwidth)


@pytest.mark.parametrize("links", [(), []])
def test_model_without_nodes_is_rejected_at_construction(links):
    with pytest.raises(ValidationError, match="no nodes"):
        SystemModel(1.0, links)


@given(positive, st.floats(max_value=0.0) | st.just(math.nan))
def test_folded_normal_spec_rejects_nonpositive_std_dev(target_mean, std_dev):
    with pytest.raises(ValidationError):
        simulate.FoldedNormalSpec(target_mean, std_dev)


@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=0.999))
def test_folded_normal_spec_rejects_unreachable_mean(std_dev, share):
    # the folded normal's mean is at least std_dev sqrt(2/pi)
    target_mean = share * std_dev * math.sqrt(2.0 / math.pi)
    with pytest.raises(ValidationError, match="unreachable"):
        simulate.FoldedNormalSpec(target_mean, std_dev)


@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=1e3))
def test_folded_normal_spec_holds_its_location(target_mean, std_dev):
    assume(target_mean >= std_dev * math.sqrt(2.0 / math.pi))
    spec = simulate.FoldedNormalSpec(target_mean, std_dev)
    assert spec.location == simulate.folded_normal_location(target_mean, std_dev)
    assert spec == simulate.FoldedNormalSpec(target_mean, std_dev)


# ---------------------------------------------------------------------------
# closed forms and searches
# ---------------------------------------------------------------------------

@given(models(max_nodes=40))
def test_hybrid_reduces_to_single_scheme_forms(model):
    k = model.n_nodes
    coded = analytic.hybrid_distortion(model, CodingPolicy.all_coded(k)).total
    uncoded = analytic.hybrid_distortion(model, CodingPolicy.all_uncoded(k)).total
    assert _rel_err(coded, analytic.coded_hetero_distortion(model)) <= 1e-14
    assert _rel_err(uncoded, analytic.uncoded_hetero_distortion(model)) <= 1e-14


@given(models(values=moderate), st.data())
def test_hybrid_distortion_matches_the_blue_oracle(model, data):
    k = model.n_nodes
    policy = CodingPolicy(tuple(data.draw(st.lists(st.integers(0, 1), min_size=k,
                                                   max_size=k))))
    oracle = analytic.blue_distortion(analytic.hybrid_noise_covariance(model, policy))
    assert _rel_err(analytic.hybrid_distortion(model, policy).total, oracle) <= 1e-9


@given(models(max_nodes=40))
def test_coded_wins_hetero_agrees_with_the_distortion_gap(model):
    coded = analytic.coded_hetero_distortion(model)
    uncoded = analytic.uncoded_hetero_distortion(model)
    assume(_rel_err(coded, uncoded) > 1e-6)
    assert analytic.coded_wins_hetero(model) == (uncoded > coded)


@given(models())
def test_global_search_bounds_every_greedy(model):
    best = optimize.global_search(model).distortion
    greedy = [optimize.pure_greedy(model), optimize.sorted_greedy(model, "coded"),
              optimize.sorted_greedy(model, "uncoded")]
    greedy += [optimize.group_greedy(model, size) for size in (2, 4, 16)]
    for result in greedy:
        assert best <= result.distortion * (1.0 + 1e-12)


@given(models(max_nodes=7), positive, positive)
def test_adding_a_node_never_raises_the_optimum(model, gamma_ob, gamma_ch):
    bigger = SystemModel(model.sigma_theta_sq, model.links + (SensorLink(gamma_ob, gamma_ch),))
    assert (optimize.global_search(bigger).distortion
            <= optimize.global_search(model).distortion * (1.0 + 1e-12))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the coded term A - B^2/(1+C) "
                   "cancels at low channel SNR, so searches rank policies by rounding noise")
def test_global_search_bounds_sorted_greedy_at_low_channel_snr():
    # exact optimum: 111000 at 0.3330025933379011, which global_search
    # returns; sorted greedy reports 000111 at 0.33300259333057153, whose
    # exact value is 0.3330025933383933
    model = SystemModel.from_snrs([1.0] * 6, [1, 1, 1, 1000, 0.01, 1e-6])
    best = optimize.global_search(model).distortion
    assert best <= optimize.sorted_greedy(model, "uncoded").distortion * (1.0 + 1e-12)
