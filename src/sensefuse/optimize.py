"""Hybrid-coding policy search: exhaustive baseline and three greedy searches.

A policy assigns each node either the coded (1) or the uncoded (0) scheme.
Because the hybrid reciprocal distortion is built from per-node running
sums, every candidate expansion is evaluated in O(1).

The exhaustive and the beam searches run over batches of instances:
:func:`global_search_batch` and :func:`group_greedy_batch` take a sequence
of models of any sizes and return one result per model, in input order,
bit for bit equal to searching each model alone.  Models with the same
node count are searched together on stacked ``(instances, nodes)`` arrays.
:func:`global_search`, :func:`pure_greedy` and :func:`group_greedy` are
batches of one, and the pure greedy search is the group search with group
size 1, so the two are bit-identical by construction.

Tie-breaking is deterministic everywhere: candidate expansions are ordered
by (distortion, node index, coded before uncoded, parent slot); the
exhaustive search prefers more coded nodes and then the lexicographically
smallest policy.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .analytic import _coded_inverse_term, _hybrid_breakdown, _link_terms_of, link_terms
from .model import (
    CodingPolicy,
    PolicySearchResult,
    SystemModel,
    ValidationError,
    validate,
)

__all__ = [
    "global_search",
    "global_search_batch",
    "pure_greedy",
    "group_greedy",
    "group_greedy_batch",
    "sorted_greedy",
    "exhaustive_group_size",
    "normalized_distortion",
    "policy_error_rate",
]

GLOBAL_SEARCH_MAX_NODES = 24
_GLOBAL_CHUNK = 1 << 16


def _refreshed_result(terms, sigma_theta_sq: float, bits: Sequence[int],
                      visit_order: Sequence[int], evaluations: int) -> PolicySearchResult:
    policy = CodingPolicy(tuple(int(b) for b in bits))
    distortion = _hybrid_breakdown(terms, sigma_theta_sq, policy.rho).total
    return PolicySearchResult(policy=policy, distortion=distortion,
                              visit_order=tuple(int(v) for v in visit_order),
                              evaluations=int(evaluations))


def _search_by_size(models: Sequence[SystemModel], search) -> list[PolicySearchResult]:
    """Run ``search(terms, sigma_theta_sq)`` once per node count on the
    stacked link terms of those models.  ``search`` yields one
    ``(bits, visit_order, evaluations)`` per instance; the results come
    back refreshed and in input order."""
    results: list = [None] * len(models)
    for k in {m.n_nodes for m in models}:
        idx = [i for i, m in enumerate(models) if m.n_nodes == k]
        terms = _link_terms_of(np.array([models[i].gamma_ob_array() for i in idx]),
                               np.array([models[i].gamma_ch_array() for i in idx]))
        st = np.array([models[i].sigma_theta_sq for i in idx])
        for j, (bits, visit, evaluations) in enumerate(search(terms, st)):
            i = idx[j]
            results[i] = _refreshed_result(tuple(t[j] for t in terms),
                                           models[i].sigma_theta_sq, bits, visit,
                                           evaluations)
    return results


def global_search_batch(models: Sequence[SystemModel]) -> list[PolicySearchResult]:
    """:func:`global_search` of every model, in input order."""
    models = [validate(m) for m in models]
    for m in models:
        if m.n_nodes > GLOBAL_SEARCH_MAX_NODES:
            raise ValidationError(
                f"global search is limited to K <= {GLOBAL_SEARCH_MAX_NODES}, "
                f"got {m.n_nodes}")
    return _search_by_size(models, _global_policies)


def global_search(model: SystemModel) -> PolicySearchResult:
    """Evaluate every one of the 2^K policies and return the minimizer.

    Guarded at K <= 24; ties go to the policy with more coded nodes, then
    to the lexicographically smallest bit tuple.
    """
    return global_search_batch([model])[0]


def _global_policies(terms, st):
    a, b, c, e = terms
    n, k = a.shape
    node_bits = np.arange(k, dtype=np.int64)
    lex_weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    total = 1 << k
    best = [None] * n  # (distortion, preference, code) per instance
    for start in range(0, total, _GLOBAL_CHUNK):
        codes = np.arange(start, min(start + _GLOBAL_CHUNK, total), dtype=np.int64)
        bits = (codes[:, None] >> node_bits[None, :]) & 1
        mask = bits.astype(float)
        # more coded nodes first, then the lexicographically smallest policy
        preference = ((k - bits.sum(axis=1)) << k) | (bits @ lex_weights)
        for i in range(n):
            # one matrix-vector product per instance: a stacked matrix product
            # sums in another order and would move the last bits
            s_a = mask @ a[i]
            s_b = mask @ b[i]
            s_c = mask @ c[i]
            s_e = (1.0 - mask) @ e[i]
            dist = st[i] / (_coded_inverse_term(s_a, s_b, s_c) + s_e)
            pick = np.lexsort((preference, dist))[0]
            key = (dist[pick], preference[pick], int(codes[pick]))
            if best[i] is None or key < best[i]:
                best[i] = key
    for _, _, code in best:
        yield [(code >> j) & 1 for j in range(k)], (), total


def group_greedy_batch(models: Sequence[SystemModel],
                       group_size: int) -> list[PolicySearchResult]:
    """:func:`group_greedy` of every model, in input order."""
    models = [validate(m) for m in models]
    if group_size < 1:
        raise ValidationError(f"group size must be >= 1, got {group_size}")
    return _search_by_size(models, lambda terms, st: _beam_policies(terms, st, group_size))


def pure_greedy(model: SystemModel) -> PolicySearchResult:
    """Grow the active set one node at a time, always taking the
    (node, scheme) pair that minimizes the sub-system hybrid distortion."""
    return group_greedy_batch([model], 1)[0]


def group_greedy(model: SystemModel, group_size: int) -> PolicySearchResult:
    """Beam-style greedy keeping the ``group_size`` best partial policies
    per iteration; degrades to the pure greedy search at group size 1 and
    covers the whole policy space once the group holds every distinct
    partial (see :func:`exhaustive_group_size`)."""
    return group_greedy_batch([model], group_size)[0]


def _rank_in_instance(inst: np.ndarray) -> np.ndarray:
    """Position of each entry among the entries of its instance; ``inst``
    is ascending."""
    return np.arange(len(inst)) - np.searchsorted(inst, inst)


def _bit_words(n_bits: int) -> np.ndarray:
    """(n_bits, words) table: row i is bit i of a packed row of 64-bit words."""
    bit = np.arange(n_bits)
    table = np.zeros((n_bits, -(-n_bits // 64)), dtype=np.uint64)
    table[bit, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
    return table


def _child_keys(assign, cand_inst, cand_row, cand_node, cand_coded, bit_words):
    """Fixed-width keys of candidate children: the instance index, then the
    child's assigned and coded node sets packed into 64-bit words."""
    k = assign.shape[1]
    planes = np.concatenate([assign >= 0, assign == 1], axis=1).astype(np.uint64)
    parents = planes @ bit_words  # the bits are disjoint, so the sum packs them
    children = (parents[cand_row] + bit_words[cand_node]
                + bit_words[cand_node + k] * cand_coded[:, None])
    # uint64 throughout: mixing in a signed column would promote to float64
    return np.column_stack([cand_inst.astype(np.uint64), children])


def _first_distinct(keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first row of each distinct key row."""
    order = np.lexsort(keys.T)  # stable: equal rows keep their index order
    ordered = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return np.sort(order[first])


def _beam_policies(terms, st, group_size: int):
    """The beam engine over (instances, beam, nodes).

    Beam rows of all instances are stacked, grouped by instance; ``inst``
    maps each row to its instance.  Each step ranks every open expansion
    by (instance, distortion, node, coded first, parent slot), drops
    expansions that repeat an earlier child policy of the same instance,
    and keeps the first ``group_size`` per instance.
    """
    terms = np.stack(terms)  # (4, instances, nodes): a, b, c, e
    _, n, k = terms.shape
    inst = np.arange(n)
    assign = np.full((n, k), -1, dtype=np.int8)
    order = np.empty((n, 0), dtype=np.int64)
    # per row: sums of a, b, c over its coded nodes and of e over its uncoded ones
    sums = np.zeros((4, n))
    fed_by_coded = np.array([True, True, True, False])[:, None]
    evaluations = np.zeros(n, dtype=np.int64)
    bit_words = _bit_words(2 * k)

    for step in range(k):
        n_rows = len(inst)
        evaluations += 2 * (k - step) * np.bincount(inst, minlength=n)
        s_a, s_b, s_c, s_e = sums
        row_terms = terms[:, inst]
        # rho = 1: coded term changes, uncoded sum unchanged
        inv1 = _coded_inverse_term(*(sums[:3, :, None] + row_terms[:3])) + s_e[:, None]
        # rho = 0: coded term unchanged, uncoded sum grows
        inv0 = (_coded_inverse_term(s_a, s_b, s_c) + s_e)[:, None] + row_terms[3]

        cand_d = st[inst][:, None] / np.stack([inv1, inv0])
        cand_d[:, assign >= 0] = np.inf
        # candidate (node, scheme, parent row) sits at index
        # (2 node + uncoded) n_rows + row, which is the tie-break order
        cand_d = cand_d.transpose(2, 0, 1).ravel()
        finite = np.flatnonzero(np.isfinite(cand_d))
        # lexsort is stable: equal (instance, distortion) keep the index order
        rank = finite[np.lexsort((cand_d[finite], inst[finite % n_rows]))]
        row = rank % n_rows
        node = rank // (2 * n_rows)
        coded = rank // n_rows % 2 == 0
        cand_inst = inst[row]
        if n_rows > n:  # an instance holds several partial policies
            # a child repeats at most once per assigned node (once per parent
            # it extends), so the first group_size * (step + 1) candidates of
            # an instance hold its first group_size distinct children
            head = _rank_in_instance(cand_inst) < group_size * (step + 1)
            row, node, coded, cand_inst = row[head], node[head], coded[head], cand_inst[head]
            first = _first_distinct(_child_keys(assign, cand_inst, row, node, coded,
                                                bit_words))
            row, node, coded, cand_inst = row[first], node[first], coded[first], cand_inst[first]
        keep = _rank_in_instance(cand_inst) < group_size
        parent, node, coded, inst = row[keep], node[keep], coded[keep], cand_inst[keep]
        assign = assign[parent]
        assign[np.arange(len(parent)), node] = coded
        order = np.concatenate([order[parent], node[:, None]], axis=1)
        sums = sums[:, parent] + np.where(fed_by_coded == coded, terms[:, inst, node], 0.0)

    if not np.bincount(inst, minlength=n).all():
        raise ValidationError("no finite candidate distortion for some instance")
    # rows of an instance are ascending in distortion; its first row wins
    for i, row in enumerate(np.searchsorted(inst, np.arange(n))):
        yield assign[row], order[row], evaluations[i]


def exhaustive_group_size(n_nodes: int) -> int:
    """Smallest group size that provably turns the group greedy search into
    an exhaustive one: max_k C(K, k) 2^k distinct partial policies."""
    return max(math.comb(n_nodes, j) * (2 ** j) for j in range(n_nodes + 1))


def sorted_greedy(model: SystemModel, ranking: str = "coded") -> PolicySearchResult:
    """Visit nodes in descending single-node distortion; code the first
    node, then pick each node's scheme by comparing the running hybrid
    distortion of both choices.

    ``ranking`` selects the single-node distortion used for the visit
    order: "coded" (default, consistent with the coded scheme being optimal
    for a single node) or "uncoded" (amplify-and-forward).
    """
    validate(model)
    if ranking not in ("coded", "uncoded"):
        raise ValidationError(f"unknown ranking {ranking!r}")
    k = model.n_nodes
    a, b, c, e = link_terms(model)
    st = model.sigma_theta_sq
    if ranking == "coded":
        single = st / _coded_inverse_term(a, b, c)
    else:
        single = st / e
    evaluations = k
    # descending distortion, ties by ascending node index
    visit = np.lexsort((np.arange(k), -single))

    rho = np.zeros(k, dtype=np.int8)
    first = int(visit[0])
    rho[first] = 1
    s_a, s_b, s_c, s_e = a[first], b[first], c[first], 0.0
    for idx in visit[1:]:
        evaluations += 2
        inv1 = _coded_inverse_term(s_a + a[idx], s_b + b[idx], s_c + c[idx]) + s_e
        inv0 = _coded_inverse_term(s_a, s_b, s_c) + s_e + e[idx]
        if st / inv1 <= st / inv0:  # tie goes to the coded scheme
            rho[idx] = 1
            s_a += a[idx]
            s_b += b[idx]
            s_c += c[idx]
        else:
            s_e += e[idx]
    return _refreshed_result((a, b, c, e), st, rho, visit, evaluations)


def _distortions(batch) -> np.ndarray:
    values = [r.distortion if isinstance(r, PolicySearchResult) else float(r)
              for r in batch]
    if not values:
        raise ValidationError("empty result batch")
    return np.array(values)


def normalized_distortion(results, optimal_results) -> float:
    """Mean distortion of an algorithm divided by the mean distortion of
    the exhaustive search over the same instances."""
    algo = _distortions(results)
    opt = _distortions(optimal_results)
    if len(algo) != len(opt):
        raise ValidationError(
            f"batch lengths differ: {len(algo)} vs {len(opt)}")
    return float(np.mean(algo) / np.mean(opt))


def _policy_matrix(policies) -> np.ndarray:
    rows = [p.rho if isinstance(p, CodingPolicy) else tuple(p) for p in policies]
    if not rows:
        raise ValidationError("empty policy batch")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError("policies in one batch must share a length")
    return np.array(rows, dtype=np.int8)


def policy_error_rate(policies, optimal_policies) -> float:
    """Fraction of per-node scheme bits that disagree with the optimum:
    sum of bitwise XORs over N_sim policies divided by N_sim * K."""
    got = _policy_matrix(policies)
    opt = _policy_matrix(optimal_policies)
    if got.shape != opt.shape:
        raise ValidationError(
            f"policy batches have different shapes: {got.shape} vs {opt.shape}")
    return float(np.mean(got ^ opt))
