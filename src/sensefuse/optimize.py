"""Hybrid-coding policy search: exhaustive baseline and three greedy searches.

A policy assigns each node either the coded (1) or the uncoded (0) scheme.
Because the hybrid reciprocal distortion is built from per-node running
sums, every candidate expansion is evaluated in O(1).

Every search runs over batches of instances: :func:`global_search_batch`,
:func:`group_greedy_batch` and :func:`sorted_greedy_batch` take a sequence
of models of any sizes and return one result per model, in input order,
bit for bit equal to searching each model alone.  Models with the same
node count are searched together on stacked ``(instances, nodes)`` arrays.
The per-instance searches are batches of one, and the pure greedy search
is the group search with group size 1, so the two are bit-identical by
construction.

Tie-breaking is deterministic everywhere: candidate expansions are ordered
by (distortion, node index, coded before uncoded, parent slot); the
exhaustive search prefers more coded nodes and then the lexicographically
smallest policy.

The exhaustive search enumerates the 2^K policy codes in blocks of 4096
on one policy mask (and its complement) per call: the low 12 bit columns
are unpacked once, and each later block rewrites only its constant high
columns, so a K=18 search peaks near 1.5 MB of traced memory.  A block's
sums are still one matrix-vector product per instance and sum, so no
distortion depends on the block size.  The pure greedy search scores all
2K (node, scheme) choices of a step in one ``(instances, 2K)`` expression
and closes a taken node by writing NaN into its increments.

The searches rank by selection, not by sorting every candidate.  The
exhaustive search takes each block's minimum distortion (finite before inf
before NaN) and computes the tie-break preference only for the policies
tied at it; the blocks' picks are ranked the same way.  At group size 1
each step is one ``argmin`` per instance.  At larger group sizes each
instance's candidates are laid out in tie-break order, cut to a head with
:func:`numpy.partition` and only the head is sorted.  The dedup head starts
at twice the group size and doubles while an instance has fewer distinct
children than the group holds, up to ``group_size * (step + 1)``, which
always suffices; when the group can hold every partial policy of the next
size, the head is every candidate.
A beam row carries its running sums, its packed (assigned, coded) node
words, which close its taken nodes and deduplicate its children, and its
choice record, from which both group engines rebuild their policies.  The
dedup key is one 64-bit word with the instance above the 2K node bits when
that fits, else the instance and the words.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .analytic import _coded_inverse_term, _hybrid_breakdown, _link_terms_of
from .model import (
    CodingPolicy,
    PolicySearchResult,
    SystemModel,
    ValidationError,
    _require_count,
)

__all__ = [
    "global_search",
    "global_search_batch",
    "pure_greedy",
    "group_greedy",
    "group_greedy_batch",
    "sorted_greedy",
    "sorted_greedy_batch",
    "exhaustive_group_size",
    "normalized_distortion",
    "policy_error_rate",
]

GLOBAL_SEARCH_MAX_NODES = 24
_GLOBAL_CHUNK = 1 << 12
_FLOAT_MAX = np.finfo(float).max


def _refreshed_result(terms, sigma_theta_sq: float, bits: Sequence[int],
                      visit_order: Sequence[int], evaluations: int) -> PolicySearchResult:
    policy = CodingPolicy(tuple(bits))
    distortion = _hybrid_breakdown(terms, sigma_theta_sq, policy.rho).total
    return PolicySearchResult(policy=policy, distortion=distortion,
                              visit_order=tuple(visit_order),
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


def _require_global_size(n_nodes: int) -> None:
    """Reject a node count beyond the exhaustive search's limit."""
    if n_nodes > GLOBAL_SEARCH_MAX_NODES:
        raise ValidationError(
            f"global search is limited to K <= {GLOBAL_SEARCH_MAX_NODES}, got {n_nodes}")


def global_search_batch(models: Sequence[SystemModel]) -> list[PolicySearchResult]:
    """:func:`global_search` of every model, in input order."""
    models = list(models)
    for m in models:
        _require_global_size(m.n_nodes)
    return _search_by_size(models, _global_policies)


def global_search(model: SystemModel) -> PolicySearchResult:
    """Evaluate every one of the 2^K policies and return the minimizer.

    Guarded at K <= 24; ties go to the policy with more coded nodes, then
    to the lexicographically smallest bit tuple.
    """
    return global_search_batch([model])[0]


def _preference(codes: np.ndarray, k: int) -> np.ndarray:
    """Exhaustive-search tie-break key of policy codes (bit j is node j):
    more coded nodes first, then the lexicographically smallest policy."""
    bits = (codes[:, None] >> np.arange(k)) & 1
    lex_weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    return ((k - bits.sum(axis=1)) << k) | (bits @ lex_weights)


def _first_best(dist: np.ndarray, codes: np.ndarray, k: int):
    """Index and preference of the policy ``np.lexsort((preference, dist))``
    ranks first (finite < inf < NaN), computing the preference only for
    the tied minima."""
    low = np.fmin.reduce(dist)  # NaN only when every value is NaN
    tied = np.flatnonzero(dist == low) if low == low else np.arange(len(dist))
    preference = _preference(codes[tied], k)
    j = preference.argmin()
    return tied[j], preference[j]


def _global_policies(terms, st):
    a, b, c, e = terms
    n, k = a.shape
    total = 1 << k
    rows = min(total, _GLOBAL_CHUNK)
    low_bits = rows.bit_length() - 1  # the bit columns that vary within a block
    # one mask pair per call: the low columns are unpacked once, the high
    # ones start at zero, and each later block rewrites its constant high
    # columns before forming their complement
    mask = np.zeros((rows, k))
    mask[:, :low_bits] = np.unpackbits(
        np.arange(rows, dtype="<i8").view(np.uint8).reshape(-1, 8), axis=1, count=low_bits,
        bitorder="little")
    unmask = 1.0 - mask
    # each block's first policy per instance; the first of those is the
    # instance's, as the order (distortion, preference) is total
    block_dist = np.empty((n, total // rows))
    block_code = np.empty((n, total // rows), dtype=np.int64)
    for block, start in enumerate(range(0, total, rows)):
        codes = np.arange(start, start + rows, dtype=np.int64)
        if start:
            mask[:, low_bits:] = (start >> np.arange(low_bits, k)) & 1
            np.subtract(1.0, mask[:, low_bits:], out=unmask[:, low_bits:])
        for i in range(n):
            # one matrix-vector product per instance: a stacked matrix product
            # sums in another order and would move the last bits
            s_a = mask @ a[i]
            s_b = mask @ b[i]
            s_c = mask @ c[i]
            s_e = unmask @ e[i]
            dist = st[i] / (_coded_inverse_term(s_a, s_b, s_c) + s_e)
            pick, _ = _first_best(dist, codes, k)
            block_dist[i, block] = dist[pick]
            block_code[i, block] = codes[pick]
    for dist, codes in zip(block_dist, block_code):
        # a single block's pick needs no second ranking
        code = int(codes[_first_best(dist, codes, k)[0] if len(codes) > 1 else 0])
        yield [(code >> j) & 1 for j in range(k)], (), total


def group_greedy_batch(models: Sequence[SystemModel],
                       group_size: int) -> list[PolicySearchResult]:
    """:func:`group_greedy` of every model, in input order."""
    models = list(models)
    _require_count(group_size, "group size")
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


def _choice_words(k: int) -> np.ndarray:
    """(2K, words) table of the packed bits that choice ``2 node + uncoded``
    adds to a partial policy: bit ``node`` marks the node assigned, bit
    ``K + node`` marks it coded.  A child's words are its parent's plus
    its choice's, since the bits are disjoint."""
    choice = np.arange(2 * k)
    bit = np.concatenate([choice // 2, choice[::2] // 2 + k])
    table = np.zeros((2 * k, -(-2 * k // 64)), dtype=np.uint64)
    np.add.at(table, (np.concatenate([choice, choice[::2]]), bit // 64),
              np.uint64(1) << (bit % 64).astype(np.uint64))
    return table


def _child_keys(children, cand_inst, n_instances: int, n_bits: int):
    """Fixed-width keys of candidate children from their packed words: one
    64-bit word with the instance above the ``n_bits`` node bits when that
    fits, else the instance column followed by the words."""
    if n_instances == 1:
        return children[:, 0] if children.shape[1] == 1 else children
    if n_bits < 64 and (n_instances - 1) >> (64 - n_bits) == 0:
        return children[:, 0] | (cand_inst.astype(np.uint64) << np.uint64(n_bits))
    # uint64 throughout: mixing in a signed column would promote to float64
    return np.column_stack([cand_inst.astype(np.uint64), children])


def _first_distinct(keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first entry of each distinct key (a key is
    a row of a 2-D ``keys``)."""
    # both sorts are stable: equal keys keep their index order
    if keys.ndim == 1:
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        new = ordered[1:] != ordered[:-1]
    else:
        order = np.lexsort(keys.T)
        ordered = keys[order]
        new = (ordered[1:] != ordered[:-1]).any(axis=1)
    return np.sort(order[np.concatenate([[True], new])])


def _select_children(cand, inst, rows, words, choice_words, group_size: int, step: int):
    """Per instance, the first ``group_size`` distinct children in
    (distortion, node, coded first, parent slot) order.

    ``cand`` holds the (rows, nodes, scheme) candidate distortions, inf
    where a candidate is closed.  They are laid out per instance in the
    tie-break order, so a stable sort on the distortion alone ranks them.
    Each instance's candidates are cut to a head with
    :func:`numpy.partition` and only the head is sorted: every candidate up
    to the head's last distortion is a prefix of the order, so its first
    distinct children are the instance's first ones.  Returns the parent
    row, choice (``2 node + uncoded``), instance and packed words of each
    kept child.
    """
    n = len(rows)
    n_rows, k, _ = cand.shape
    slots = int(rows.max())
    n_open = slots * 2 * (k - step)  # open candidates of the fullest instance
    starts = np.cumsum(rows) - rows
    if n_rows == n * slots:  # every instance holds as many rows: no padding
        table = cand.reshape(n, slots, 2 * k).transpose(0, 2, 1).reshape(n, -1)
    else:
        table = np.full((n, 2 * k, slots), np.inf)
        table[inst, :, np.arange(n_rows) - starts[inst]] = cand.reshape(n_rows, 2 * k)
        table = table.reshape(n, -1)
    dedup = slots > 1
    # a child repeats at most once per assigned node (once per parent it
    # extends), so a head of group_size * (step + 1) always suffices
    bound = group_size * (step + 1)
    if group_size >= _partial_policy_count(k, step + 1):
        head = n_open  # the group holds every partial policy of the next size
    else:
        head = min(2 * group_size, bound) if dedup else group_size
    while True:
        if head < n_open:
            cut = np.partition(table, head - 1, axis=1)[:, head - 1]
            c_inst, pos = np.nonzero(table <= np.minimum(cut, _FLOAT_MAX)[:, None])
        else:
            cut = None
            c_inst, pos = np.nonzero(table < np.inf)
        # in (instance, node, uncoded, parent slot) order
        dist = table[c_inst, pos]
        rank = np.argsort(dist, kind="stable") if n == 1 else np.lexsort((dist, c_inst))
        c_inst, pos = c_inst[rank], pos[rank]
        choice, c_slot = np.divmod(pos, slots)
        row = starts[c_inst] + c_slot
        children = words[row] + choice_words[choice]
        if not dedup:
            break
        first = _first_distinct(_child_keys(children, c_inst, n, 2 * k))
        row, choice, c_inst, children = (a[first] for a in (row, choice, c_inst, children))
        if cut is None or head >= bound:
            break
        # an instance short of distinct children whose head was cut needs more
        short = np.bincount(c_inst, minlength=n) < group_size
        if not (short & (cut < np.inf)).any():
            break
        head = min(2 * head, bound)
    keep = (slice(group_size) if n == 1
            else np.arange(len(c_inst)) - np.searchsorted(c_inst, c_inst) < group_size)
    return row[keep], choice[keep], c_inst[keep], children[keep]


def _beam_policies(terms, st, group_size: int):
    """The beam engine over (instances, beam, nodes).

    Beam rows of all instances are stacked, grouped by instance; ``inst``
    maps each row to its instance.  A row carries its sums, its words (the
    low K bits close its taken nodes) and its choices (``2 node + uncoded``
    per step).  Each step evaluates every open expansion and keeps, per
    instance, the first ``group_size`` distinct children in (distortion,
    node, coded first, parent slot) order, by :func:`_select_children`;
    group size 1 goes to :func:`_pure_policies`.
    """
    terms = np.stack(terms)  # (4, instances, nodes): a, b, c, e
    _, n, k = terms.shape
    # what choice 2 node + uncoded adds to a row's sums: a, b, c of a coded
    # node, e of an uncoded one
    grow = np.zeros((4, n, k, 2))
    grow[:3, :, :, 0] = terms[:3]
    grow[3, :, :, 1] = terms[3]
    grow = grow.reshape(4, n, 2 * k)
    if group_size == 1:
        # kept apart, as measured in-process on 2 vCPUs: the beam ran this case
        # 2.5-2.8x slower, and the beam scored this way, with a per-row mask,
        # ran 200 x K=10 at L=32 18% slower, at 31% more traced peak memory
        yield from _pure_policies(grow, st)
        return
    inst = np.arange(n)
    rows = np.ones(n, dtype=np.int64)  # beam rows per instance
    # per row: sums of a, b, c over its coded nodes and of e over its uncoded ones
    sums = np.zeros((4, n))
    evaluations = np.zeros(n, dtype=np.int64)
    # packed (assigned, coded) node sets per row: bit node is assigned
    choice_words = _choice_words(k)
    words = np.zeros((n, choice_words.shape[1]), dtype=np.uint64)
    choices = np.empty((n, k), dtype=np.int64)

    for step in range(k):
        evaluations += 2 * (k - step) * rows
        s_a, s_b, s_c, s_e = sums
        # one row per instance: the rows are the instances (this, the unpadded
        # table and the one-instance branches save 14-18% of a one-model search)
        row_terms, row_st = (terms[:, inst], st[inst]) if len(inst) > n else (terms, st)
        den = np.empty((len(inst), k, 2))  # (rows, nodes, scheme)
        # rho = 1: coded term changes, uncoded sum unchanged
        np.add(_coded_inverse_term(*(sums[:3, :, None] + row_terms[:3])), s_e[:, None],
               out=den[:, :, 0])
        # rho = 0: coded term unchanged, uncoded sum grows
        np.add((_coded_inverse_term(s_a, s_b, s_c) + s_e)[:, None], row_terms[3],
               out=den[:, :, 1])
        cand = row_st[:, None, None] / den
        # taken nodes and non-finite distortions are closed; little-endian
        # bytes put bit node of the words at unpacked column node on any host
        cand[~np.isfinite(cand)] = np.inf
        cand[np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=1,
                           count=k, bitorder="little").view(bool)] = np.inf

        parent, choice, inst, words = _select_children(
            cand, inst, rows, words, choice_words, group_size, step)
        rows = np.bincount(inst, minlength=n)
        if not rows.all():
            raise ValidationError("no finite candidate distortion for some instance")
        choices, sums = choices[parent], sums[:, parent]
        choices[:, step] = choice
        sums = sums + grow[:, inst, choice]

    # rows of an instance are ascending in distortion; its first row wins
    yield from zip(*_policies_of(choices[np.cumsum(rows) - rows]), evaluations)


def _pure_policies(grow, st):
    """The beam engine at group size 1: one row per instance, so each step
    is one ``argmin`` over the instance's 2K choices.

    All choices are scored in one ``(instances, 2K)`` expression: a choice
    adds 0.0 to the sums it leaves alone, which changes no bit.  A taken
    node is closed by writing NaN into the instance's ``grow`` columns.
    """
    _, n, width = grow.shape
    k = width // 2
    by_node = grow.reshape(4, n, k, 2)  # a view: closing a node writes grow
    inst = np.arange(n)
    sums = np.zeros((4, n, 1))  # a, b, c over the coded nodes, e over the uncoded
    choices = np.empty((n, k), dtype=np.int64)
    for step in range(k):
        den = _coded_inverse_term(*(sums[:3] + grow[:3])) + sums[3] + grow[3]
        cand = st[:, None] / den
        # taken nodes (NaN) and non-finite distortions are closed
        cand[~np.isfinite(cand)] = np.inf
        choice = cand.argmin(axis=1)
        if cand[inst, choice].max() == np.inf:
            raise ValidationError("no finite candidate distortion for some instance")
        choices[:, step] = choice
        sums += grow[:, inst, choice, None]
        by_node[:, inst, choice // 2] = np.nan
    yield from zip(*_policies_of(choices), [k * (k + 1)] * n)


def _policies_of(choices):
    """Policy bits and visit orders, as lists, of (instances, K) choice records."""
    node, uncoded = np.divmod(choices, 2)
    policies = np.zeros(choices.shape, dtype=np.int8)
    np.put_along_axis(policies, node, 1 - uncoded, axis=1)
    return policies.tolist(), node.tolist()


def exhaustive_group_size(n_nodes: int) -> int:
    """Smallest group size that provably turns the group greedy search into
    an exhaustive one: max_k C(K, k) 2^k distinct partial policies."""
    _require_count(n_nodes, "node count")
    return max(_partial_policy_count(n_nodes, j) for j in range(n_nodes + 1))


def _partial_policy_count(n_nodes: int, size: int) -> int:
    """C(K, size) 2^size: the partial policies that assign ``size`` nodes."""
    return math.comb(n_nodes, size) << size


def sorted_greedy_batch(models: Sequence[SystemModel],
                        ranking: str = "coded") -> list[PolicySearchResult]:
    """:func:`sorted_greedy` of every model, in input order."""
    if ranking not in ("coded", "uncoded"):
        raise ValidationError(f"unknown ranking {ranking!r}")
    return _search_by_size(list(models), lambda t, st: _sorted_policies(t, st, ranking))


def sorted_greedy(model: SystemModel, ranking: str = "coded") -> PolicySearchResult:
    """Visit nodes in descending single-node distortion; code the first
    node, then pick each node's scheme by comparing the running hybrid
    distortion of both choices.

    ``ranking`` selects the single-node distortion used for the visit
    order: "coded" (default, consistent with the coded scheme being optimal
    for a single node) or "uncoded" (amplify-and-forward).
    """
    return sorted_greedy_batch([model], ranking)[0]


def _sorted_policies(terms, st, ranking: str):
    """The sorted search, one instance at a time: each choice depends on the
    sums before it, and a search vectorised over instances ran 7x slower at K=400."""
    a, b, c, e = terms
    k = a.shape[1]
    single = st[:, None] / (_coded_inverse_term(a, b, c) if ranking == "coded" else e)
    for a_i, b_i, c_i, e_i, st_i, single_i in zip(a, b, c, e, st, single):
        # descending distortion, ties by ascending node index
        visit = np.lexsort((np.arange(k), -single_i))
        rho = np.zeros(k, dtype=np.int8)
        first = visit[0]
        rho[first] = 1
        s_a, s_b, s_c, s_e = a_i[first], b_i[first], c_i[first], 0.0
        for idx in visit[1:]:
            grown = s_a + a_i[idx], s_b + b_i[idx], s_c + c_i[idx]
            inv1 = _coded_inverse_term(*grown) + s_e
            inv0 = _coded_inverse_term(s_a, s_b, s_c) + s_e + e_i[idx]
            if st_i / inv1 <= st_i / inv0:  # tie goes to the coded scheme
                rho[idx] = 1
                s_a, s_b, s_c = grown
            else:
                s_e += e_i[idx]
        yield rho.tolist(), visit.tolist(), 3 * k - 2  # K singles, then 2 per later node


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
