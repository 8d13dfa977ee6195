"""The batch search API against per-instance calls, and the greedy-study
tables against a recomputation from per-instance public calls."""

import numpy as np
import pytest

from sensefuse import analytic as an
from sensefuse import experiments as ex
from sensefuse import optimize as op
from sensefuse import simulate as sim
from sensefuse.experiments import derive_seed
from sensefuse.model import CodingPolicy, ValidationError

from conftest import CH_SPEC, OB_SPEC, random_instance


def _fields(result):
    return result.policy, result.distortion, result.visit_order, result.evaluations


def _assert_same(batch_results, single_results):
    assert len(batch_results) == len(single_results)
    for got, want in zip(batch_results, single_results):
        assert _fields(got) == _fields(want)  # bit for bit


def test_batch_matches_single_on_criterion_07_instances():
    rng = np.random.default_rng(7)
    models = []
    for i in range(1000):
        k = int(rng.integers(1, 11))
        models.append(sim.generate_instance(k, CH_SPEC, OB_SPEC,
                                            derive_seed(7, "model", i)))
    single = {
        "global": [op.global_search(m) for m in models],
        "pure": [op.pure_greedy(m) for m in models],
        "sorted": [op.sorted_greedy(m) for m in models],
        "sorted uncoded": [op.sorted_greedy(m, "uncoded") for m in models],
    }
    batch = {
        "global": op.global_search_batch,
        "pure": lambda ms: op.group_greedy_batch(ms, 1),
        "sorted": op.sorted_greedy_batch,
        "sorted uncoded": lambda ms: op.sorted_greedy_batch(ms, "uncoded"),
    }
    for name, search in batch.items():
        for k in range(1, 11):
            idx = [i for i, m in enumerate(models) if m.n_nodes == k]
            _assert_same(search([models[i] for i in idx]),
                         [single[name][i] for i in idx])
        # a batch mixing node counts returns its results in input order
        _assert_same(search(models), single[name])


def test_batch_matches_single_on_criterion_08_slice():
    models = [sim.generate_instance(10, CH_SPEC, OB_SPEC, derive_seed(8, "inst", i))
              for i in range(200)]
    _assert_same(op.global_search_batch(models),
                 [op.global_search(m) for m in models])
    for size in (1, 2, 4, 8, 16, 32):
        _assert_same(op.group_greedy_batch(models, size),
                     [op.group_greedy(m, size) for m in models])
    for ranking in ("coded", "uncoded"):
        _assert_same(op.sorted_greedy_batch(models, ranking),
                     [op.sorted_greedy(m, ranking) for m in models])


def test_batch_matches_single_above_k_39():
    # the child-policy keys of K=45 take two 64-bit words
    models = [random_instance(45, seed=4500 + i) for i in range(3)]
    _assert_same(op.group_greedy_batch(models, 16),
                 [op.group_greedy(m, 16) for m in models])


def test_child_keys_keep_every_bit_of_a_full_word():
    # K=40: coding node 23 sets bit 63 of the first key word; children that
    # differ only in its lowest bits must stay distinct
    k = 40
    words = op._choice_words(k)
    parent = words[2 * 23]  # node 23 coded
    assert parent[0] == np.uint64(1) << np.uint64(63) | np.uint64(1) << np.uint64(23)
    children = parent + words[[2 * 0 + 1, 2 * 1 + 1]]  # node 0 or node 1 uncoded
    for n_instances in (1, 2):  # without and with the instance column
        keys = op._child_keys(children, np.zeros(2, dtype=np.int64), n_instances, 2 * k)
        assert keys.dtype == np.uint64
        assert list(op._first_distinct(keys)) == [0, 1]
    # K=10: one word holds the instance above the 20 node bits
    keys = op._child_keys(np.zeros((3, 1), dtype=np.uint64), np.array([0, 1, 1]), 2, 20)
    assert keys.ndim == 1 and list(op._first_distinct(keys)) == [0, 1]


def test_batch_of_nothing():
    assert op.global_search_batch([]) == []
    assert op.group_greedy_batch([], 3) == []
    assert op.sorted_greedy_batch([]) == []
    # the ranking is checked before any work, even on no models
    with pytest.raises(ValidationError, match="unknown ranking 'other'"):
        op.sorted_greedy_batch([], "other")


# ---------------------------------------------------------------------------
# study tables against per-instance recomputation
# ---------------------------------------------------------------------------

def _instances(k, n_sim, seed):
    return [sim.generate_instance(k, CH_SPEC, OB_SPEC, derive_seed(seed, "instance", k, i))
            for i in range(n_sim)]


def _fig6_rows(seed, ks, n_sim, group_size):
    rows = []
    for k in ks:
        sums = dict.fromkeys(("opt", "coded", "uncoded", "pure", "sorted", "group"), 0.0)
        for model in _instances(k, n_sim, seed):
            sums["opt"] += op.global_search(model).distortion
            sums["coded"] += an.coded_hetero_distortion(model)
            sums["uncoded"] += an.uncoded_hetero_distortion(model)
            sums["pure"] += op.pure_greedy(model).distortion
            sums["sorted"] += op.sorted_greedy(model).distortion
            sums["group"] += op.group_greedy(model, group_size).distortion
        rows.append({"seed": seed, "k": k, "n_sim": n_sim, "group_size": group_size,
                     **{f"nd_{name}": sums[name] / sums["opt"]
                        for name in ("coded", "uncoded", "pure", "sorted", "group")}})
    return rows


def _fig7_rows(seed, ks, n_sim, group_sizes, sweep="k"):
    rows = []
    for k in ks:
        models = _instances(k, n_sim, seed)
        opt = [op.global_search(m) for m in models]
        found = {("pure", 0): [op.pure_greedy(m) for m in models],
                 ("sorted", 0): [op.sorted_greedy(m) for m in models]}
        for size in group_sizes:
            found[("group", size)] = [op.group_greedy(m, size) for m in models]
        for (algorithm, size), results in found.items():
            rows.append({
                "seed": seed, "sweep": sweep, "k": k, "n_sim": n_sim,
                "algorithm": algorithm, "group_size": size,
                "normalized_distortion": op.normalized_distortion(results, opt),
                "policy_error_rate": op.policy_error_rate(
                    [r.policy for r in results], [r.policy for r in opt]),
            })
    return rows


def _fig8_rows(seed, k, n_sim, group_sizes):
    models = _instances(k, n_sim, seed)
    opt = [op.global_search(m) for m in models]
    mean_opt = sum(r.distortion for r in opt) / n_sim
    rows = []
    for size in group_sizes:
        group = [op.group_greedy(m, size) for m in models]
        eps = op.policy_error_rate([r.policy for r in group], [r.policy for r in opt])
        row = {"seed": seed, "k": k, "n_sim": n_sim, "group_size": size,
               "policy_error_rate": eps, "nd_group": op.normalized_distortion(group, opt)}
        for divisor, label in ((1, "full"), (2, "half"), (3, "third")):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(derive_seed(seed, "flip", size, divisor))))
            total = 0.0
            for model, result in zip(models, opt):
                flips = rng.random(k) < eps / divisor  # one draw per instance
                bits = tuple(b ^ int(f) for b, f in zip(result.policy.rho, flips))
                total += an.hybrid_distortion(model, CodingPolicy(bits)).total
            row[f"flip_prob_{label}"] = eps / divisor
            row[f"nd_flip_{label}"] = total / n_sim / mean_opt
        rows.append(row)
    return rows


@pytest.mark.parametrize("name, params, reference", [
    ("fig6_hybrid", {"k_min": "2", "k_max": "5", "n_sim": "8", "group_size": "4"},
     lambda seed: _fig6_rows(seed, range(2, 6), 8, 4)),
    ("fig7_greedy", {"sweep": "k", "k_min": "3", "k_max": "7", "n_sim": "8",
                     "group_sizes": "1,2,32"},
     lambda seed: _fig7_rows(seed, range(3, 8), 8, (1, 2, 32))),
    ("fig7_greedy", {"sweep": "l", "k": "6", "n_sim": "8", "group_sizes": "1,4,16"},
     lambda seed: _fig7_rows(seed, [6], 8, (1, 4, 16), sweep="l")),
    # a repeated group size is one fig7 row per K, and one fig8 row per listing
    ("fig7_greedy", {"sweep": "k", "k_min": "4", "k_max": "6", "n_sim": "6",
                     "group_sizes": "32,1,1,4"},
     lambda seed: _fig7_rows(seed, range(4, 7), 6, (32, 1, 1, 4))),
    ("fig8_random_errors", {"k": "7", "n_sim": "10", "group_sizes": "1,3,16"},
     lambda seed: _fig8_rows(seed, 7, 10, (1, 3, 16))),
    ("fig8_random_errors", {"k": "6", "n_sim": "8", "group_sizes": "32,1,1,4"},
     lambda seed: _fig8_rows(seed, 6, 8, (32, 1, 1, 4))),
    ("fig8_random_errors", {"k": "6", "n_sim": "8", "group_sizes": "3,2"},
     lambda seed: _fig8_rows(seed, 6, 8, (3, 2))),
])
def test_study_csv_matches_per_instance_recomputation(tmp_path, name, params, reference):
    path = ex.run_experiment(ex.ExperimentSpec(name, params), seed=5,
                             out=str(tmp_path / "batch.csv"))
    ex.write_rows_csv(tmp_path / "reference.csv", reference(5))
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
