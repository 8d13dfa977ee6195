import math
import tracemalloc

import numpy as np
import pytest

from sensefuse import analytic as an
from sensefuse import optimize as op
from sensefuse.model import CodingPolicy, SystemModel, ValidationError

from conftest import random_instance


def test_global_search_two_node_example():
    m = SystemModel.homogeneous(2, 1.0, 1.0)
    r = op.global_search(m)
    assert r.policy.rho == (1, 1)
    assert r.distortion == pytest.approx(0.625, rel=1e-13)
    assert r.evaluations == 4
    assert r.visit_order == ()


def test_global_search_evaluation_count():
    m = SystemModel.homogeneous(3, 2.0, 3.0)
    assert op.global_search(m).evaluations == 8


def test_global_search_single_node_prefers_coded(rng):
    for _ in range(40):
        m = SystemModel.homogeneous(1, float(rng.uniform(0.05, 50)),
                                    float(rng.uniform(0.05, 50)))
        assert op.global_search(m).policy.rho == (1,)


def test_global_search_memory_stays_within_one_block():
    # one mask pair of 4096 policies serves every block
    model = random_instance(18, seed=18)
    tracemalloc.start()
    try:
        op.global_search(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_global_search_ranks_nan_last_across_blocks():
    # SNRs of 1e200 overflow the link terms, so every policy's distortion is
    # NaN and the preference alone decides, over all blocks alike
    k = 17
    model = SystemModel.from_snrs([1e200 if j % 2 == 0 else 3.0 + j for j in range(k)],
                                  [1e200 if j % 3 == 0 else 5.0 for j in range(k)])
    with np.errstate(over="ignore", invalid="ignore"):
        r = op.global_search(model)
    assert r.policy == CodingPolicy.all_coded(k)
    assert math.isnan(r.distortion)


def test_global_search_guard():
    with pytest.raises(ValidationError, match="K <= 24"):
        op.global_search(SystemModel.homogeneous(25, 1.0, 1.0))


def test_pure_greedy_two_node_example():
    m = SystemModel.homogeneous(2, 1.0, 1.0)
    r = op.pure_greedy(m)
    assert r.policy.rho == (1, 1)
    assert r.distortion == pytest.approx(0.625, rel=1e-13)
    assert r.visit_order == (0, 1)
    assert r.evaluations == 6  # 4 first-step candidates + 2 second-step


def test_pure_greedy_single_node_codes():
    assert op.pure_greedy(SystemModel.homogeneous(1, 9.0, 0.2)).policy.rho == (1,)
    assert op.sorted_greedy(SystemModel.homogeneous(1, 9.0, 0.2)).policy.rho == (1,)


def test_greedy_never_beats_global(rng):
    for i in range(120):
        k = int(rng.integers(1, 11))
        m = random_instance(k, seed=5000 + i)
        opt = op.global_search(m).distortion
        for r in (op.pure_greedy(m), op.sorted_greedy(m),
                  op.group_greedy(m, 4)):
            assert r.distortion >= opt * (1 - 1e-12)


def test_group_size_one_is_pure_greedy(rng):
    for i in range(200):
        k = int(rng.integers(1, 11))
        m = random_instance(k, seed=6000 + i)
        p = op.pure_greedy(m)
        g = op.group_greedy(m, 1)
        assert g.policy == p.policy
        assert g.distortion == p.distortion  # bitwise, shared engine
        assert g.visit_order == p.visit_order


def test_exhaustive_group_budget_finds_optimum(rng):
    for i in range(80):
        k = int(rng.integers(1, 9))
        m = random_instance(k, seed=7000 + i)
        g = op.group_greedy(m, op.exhaustive_group_size(k))
        best = op.global_search(m)
        assert g.policy == best.policy
        assert g.distortion == best.distortion


def test_group_distortion_non_increasing_in_group_size(rng):
    for i in range(60):
        m = random_instance(10, seed=7700 + i)
        dists = [op.group_greedy(m, size).distortion for size in (1, 2, 4, 8, 16, 32)]
        assert all(b <= a * (1 + 1e-15) for a, b in zip(dists, dists[1:]))


def test_group_greedy_rejects_bad_group_size():
    with pytest.raises(ValidationError):
        op.group_greedy(SystemModel.homogeneous(2, 1.0, 1.0), 0)


def test_group_mean_quality_improves_on_pure(rng):
    pure, group, opt = [], [], []
    for i in range(250):
        m = random_instance(10, seed=8000 + i)
        pure.append(op.pure_greedy(m))
        group.append(op.group_greedy(m, 32))
        opt.append(op.global_search(m))
    nd_pure = op.normalized_distortion(pure, opt)
    nd_group = op.normalized_distortion(group, opt)
    assert nd_group <= nd_pure


def test_returned_distortion_is_recomputable(rng):
    for i in range(60):
        k = int(rng.integers(1, 11))
        m = random_instance(k, seed=9000 + i)
        for r in (op.global_search(m), op.pure_greedy(m),
                  op.sorted_greedy(m), op.group_greedy(m, 8)):
            assert r.distortion == an.hybrid_distortion(m, r.policy).total


def test_sorted_greedy_homogeneous_permutation_invariant():
    m = SystemModel.homogeneous(6, 7.0, 5.0)
    r = op.sorted_greedy(m)
    assert r.visit_order == (0, 1, 2, 3, 4, 5)  # stable tie-break
    assert r.distortion == pytest.approx(
        an.hybrid_distortion(m, r.policy).total, rel=1e-14)


def test_sorted_greedy_ranking_variants(rng):
    for i in range(40):
        m = random_instance(7, seed=9500 + i)
        prose = op.sorted_greedy(m, ranking="coded")
        listing = op.sorted_greedy(m, ranking="uncoded")
        for r in (prose, listing):
            assert r.distortion == an.hybrid_distortion(m, r.policy).total
    with pytest.raises(ValidationError):
        op.sorted_greedy(m, ranking="other")


def test_sorted_greedy_visit_order_descends_single_node_distortion():
    m = random_instance(6, seed=123)
    r = op.sorted_greedy(m)
    singles = [an.coded_hetero_distortion(
        SystemModel(m.sigma_theta_sq, (m.links[k],))) for k in r.visit_order]
    assert all(a >= b for a, b in zip(singles, singles[1:]))


def test_all_coded_when_coded_dominates(rng):
    # every observation SNR far below the always-coded bound, small K
    for i in range(100):
        k = int(rng.integers(1, 5))
        gob = rng.uniform(0.3, 2.0, k)
        gch = rng.uniform(0.1, 50.0, k)
        m = SystemModel.from_snrs(gob, gch)
        assert op.pure_greedy(m).policy.n_coded == k
        assert op.sorted_greedy(m).policy.n_coded == k


def test_normalized_distortion_basics():
    opt = [1.0, 2.0, 3.0]
    assert op.normalized_distortion(opt, opt) == 1.0
    assert op.normalized_distortion([1.1, 2.2, 3.3], opt) == pytest.approx(1.1)
    with pytest.raises(ValidationError):
        op.normalized_distortion([], [])
    with pytest.raises(ValidationError):
        op.normalized_distortion([1.0], [1.0, 2.0])


def test_policy_error_rate_counting():
    a = [CodingPolicy((1, 0, 1)), CodingPolicy((0, 0, 0))]
    b = [CodingPolicy((1, 1, 1)), CodingPolicy((0, 1, 0))]
    assert op.policy_error_rate(a, a) == 0.0
    assert op.policy_error_rate(a, b) == pytest.approx(2.0 / 6.0)
    comp = [CodingPolicy(tuple(1 - r for r in p.rho)) for p in a]
    assert op.policy_error_rate(a, comp) == 1.0
    with pytest.raises(ValidationError):
        op.policy_error_rate(a, [CodingPolicy((1, 0))])


@pytest.mark.parametrize("dist", [
    [3.0, 1.0, 2.0, 1.0, 5.0, 1.0, 4.0, 1.0],           # exact ties
    [np.inf, 2.0, np.inf, 2.0, 7.0, np.inf, 2.0, 9.0],
    [np.nan, 4.0, np.nan, 4.0, np.inf, 4.0, np.nan, 8.0],
    [np.nan, np.inf, np.nan, np.inf, np.inf, np.nan, np.nan, np.nan],
    [np.nan] * 8,
    [np.inf] * 8,
    [-np.inf, 1.0, -np.inf, np.nan, 0.0, -0.0, 0.0, np.inf],
    [1.0] * 8,
])
def test_exhaustive_pick_matches_a_full_lexsort(dist):
    k = 3
    dist = np.array(dist)
    codes = np.arange(1 << k, dtype=np.int64)
    pick, preference = op._first_best(dist, codes, k)
    want = np.lexsort((op._preference(codes, k), dist))[0]
    assert pick == want
    assert preference == op._preference(codes, k)[want]


def test_exhaustive_pick_matches_a_full_lexsort_on_random_ties(rng):
    k = 6
    codes = np.arange(1 << k, dtype=np.int64)
    full = op._preference(codes, k)
    choices = np.array([1.0, 2.0, np.inf, np.nan])
    for _ in range(300):
        dist = rng.choice(choices, size=1 << k, p=[0.2, 0.2, 0.3, 0.3])
        assert op._first_best(dist, codes, k)[0] == np.lexsort((full, dist))[0]
