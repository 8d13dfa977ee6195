"""Search results pinned bit for bit.

Each case hashes (policy bits, distortion.hex(), visit order, evaluations)
of every result with sha256.  The digests were recorded while the searches
still ranked every candidate with a full stable sort, so they pin the
tie-break (distortion, node, coded first, parent slot; for the exhaustive
search more coded nodes, then the lexicographically smallest policy) and
the arithmetic of every search family; the sorted-search digests were
recorded while that search still built its own terms and result, one
model at a time.  Each case runs per instance and as one batch.
"""

import hashlib

import numpy as np
import pytest

from sensefuse import optimize as op
from sensefuse import simulate as sim
from sensefuse.experiments import derive_seed
from sensefuse.model import SystemModel

from conftest import CH_SPEC, OB_SPEC, random_instance


def _digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(repr((r.policy.as_bits(), r.distortion.hex(), r.visit_order,
                       r.evaluations)).encode())
    return h.hexdigest()


def _criterion_08(n=300):
    return [sim.generate_instance(10, CH_SPEC, OB_SPEC, derive_seed(8, "inst", i))
            for i in range(n)]


def _criterion_07_up_to_8():
    rng = np.random.default_rng(7)
    models = []
    for i in range(1000):
        k = int(rng.integers(1, 11))
        if k <= 8:
            models.append(sim.generate_instance(k, CH_SPEC, OB_SPEC,
                                                derive_seed(7, "model", i)))
    return sorted(models, key=lambda m: m.n_nodes)  # batches group by K


def _homogeneous():
    return [SystemModel.homogeneous(k, 7.0, 5.0) for k in range(1, 13)]


def _overflowing(ks=range(2, 8)):
    """Models whose link terms overflow to inf/NaN (SNRs of 1e200), so
    some candidates are non-finite and are never picked."""
    return [SystemModel.from_snrs([1e200 if j % 2 == 0 else 3.0 + j for j in range(k)],
                                  [1e200 if j % 3 == 0 else 5.0 for j in range(k)])
            for k in ks]


def _multi_block():
    """Exhaustive searches over more than one enumeration block; two
    models share K=15, so the batch stacks them."""
    return [random_instance(k, seed=13000 + i)
            for i, k in enumerate((13, 14, 15, 15, 16, 17))]


def _past_one_word():
    return ([random_instance(65, seed=6500 + i) for i in range(3)]
            + [random_instance(100, seed=10000 + i) for i in range(3)])


def _group(size):
    return (lambda m: op.group_greedy(m, size),
            lambda ms: op.group_greedy_batch(ms, size))


def _sorted(ranking="coded"):
    return (lambda m: op.sorted_greedy(m, ranking),
            lambda ms: op.sorted_greedy_batch(ms, ranking))


def _exhaustive_group(models):
    """Per-K batches at each K's exhaustive group size, in input order."""
    out = []
    for k in sorted({m.n_nodes for m in models}):
        out += op.group_greedy_batch([m for m in models if m.n_nodes == k],
                                     op.exhaustive_group_size(k))
    return out


_GLOBAL = (op.global_search, op.global_search_batch)

CASES = {
    "criterion-08 global": (_criterion_08, _GLOBAL),
    **{f"criterion-08 group L={size}": (_criterion_08, _group(size))
       for size in (1, 2, 3, 8, 16, 32)},
    "criterion-07 exhaustive group size": (
        _criterion_07_up_to_8,
        (lambda m: op.group_greedy(m, op.exhaustive_group_size(m.n_nodes)),
         _exhaustive_group)),
    "homogeneous global": (_homogeneous, _GLOBAL),
    **{f"homogeneous group L={size}": (_homogeneous, _group(size))
       for size in (1, 2, 3, 16)},
    **{f"overflowing group L={size}": (_overflowing, _group(size)) for size in (1, 3)},
    "overflowing global": (_overflowing, _GLOBAL),
    "K=13..17 global": (_multi_block, _GLOBAL),
    # every policy with as many coded nodes ties exactly, across blocks
    "homogeneous K=14,16 global": (
        lambda: [SystemModel.homogeneous(k, 7.0, 5.0) for k in (14, 16)], _GLOBAL),
    "overflowing K=14 global": (lambda: _overflowing([14]), _GLOBAL),
    # instances end some steps with different row counts, so the batch pads
    "K=7 group L=400": (lambda: [random_instance(7, seed=7000 + i) for i in range(60)],
                        _group(400)),
    "K=60 group L=16": (lambda: [random_instance(60, seed=6000 + i) for i in range(3)],
                        _group(16)),
    # assigned nodes past bit 63 of a row's first packed word
    **{f"K=65,100 group L={size}": (_past_one_word, _group(size)) for size in (2, 8)},
    "K=250 pure": (lambda: [random_instance(250, seed=25000)],
                   (op.pure_greedy, lambda ms: op.group_greedy_batch(ms, 1))),
    "criterion-08 sorted": (_criterion_08, _sorted()),
    "criterion-08 sorted uncoded": (_criterion_08, _sorted("uncoded")),
    "homogeneous sorted": (_homogeneous, _sorted()),
    "overflowing sorted": (_overflowing, _sorted()),
    "K=400 sorted": (lambda: [random_instance(400, seed=40000)], _sorted()),
}

PINNED = {
    "criterion-08 sorted":
        "d278b50ca650fa5bb52751e4a2e202212ff25e48fabe65292e4d360744dc7fd0",
    "criterion-08 sorted uncoded":
        "4fb6c21b7cd4d294663bed6ad60e93d4a1f04d026673f069ef00ff6992c4cb6d",
    "homogeneous sorted":
        "d867e8620317e316d3d0d7bcee039b2e2a96ccd51f41ccdaeb2c788041270ebc",
    "overflowing sorted":
        "eb8b780e75849a133985143039c954a3a924aef855dd7aa62f89432e01c20446",
    "K=400 sorted":
        "e37f54003448db71574726ef2d593e4a135a7e56fad8b8e921ea91211ed1362b",
    "K=250 pure":
        "9e225a6993d871685abec8e62aedaf32b784de040c0521e345ec966d0f3e4163",
    "K=13..17 global":
        "690b3c5e6cf9bde31647a14fd41ef838b1663d4fbeee1604420ad7a8bd524319",
    "homogeneous K=14,16 global":
        "cc7f8bac1a71771a647107e70848f0b02bf799bcb00f261c651cf6bc6d7b0c95",
    "overflowing K=14 global":
        "2e67408cdf5c06e14d1f8231dbdfb421a001033fe9c96e4d32210d072ad2b450",
    "K=60 group L=16":
        "4a69f81f225098c0617a5b5212913f2dd24ddfc95286ad4a8302a6fa056494b5",
    "K=65,100 group L=2":
        "e8a68604a8ac5449de4eb89abe3d70b5656bfa578b70bc711e34ef69b6b7d74d",
    "K=65,100 group L=8":
        "6d4019524427856823cdbb028696a2983a382e4d8e29bad823e2a3a138d4d034",
    "K=7 group L=400":
        "c0664bc4097caa2be53d68d18ec93652c70d406649de34d6c53526629fb87286",
    "criterion-07 exhaustive group size":
        "a023c428adbca281d3a2054f7c5bf3c6b77a6151f9e445dbd8d0451ef20daf92",
    "criterion-08 global":
        "2854143b9724e6c91dffa4e2a4f83ef8bf905337814aebdd2ac61ad898b3a73e",
    "criterion-08 group L=1":
        "3e6f11b962bafbfae46b896f72d4096c2a57b900add139eb2833dc0ddf0f737b",
    "criterion-08 group L=16":
        "972eab6b6d30b3c6e5a3f3f51190816d44542c8a6d47d0d5a2b2bdbb3957f137",
    "criterion-08 group L=2":
        "4113aacb9faaaef9c938aef3a0ce4cd4edae89f59c509e2f278a5d5f6273f55e",
    "criterion-08 group L=3":
        "b90bb81a6d55d70f1fef41f930a20d16b5aabd78677d597fb6f387064c8a719c",
    "criterion-08 group L=32":
        "020fe75a2143de444bd4737a215afa1453371ebfb3a0cae75271448859dc0fb1",
    "criterion-08 group L=8":
        "2e12576491d20e96bf9b529fae0759568a0179db0c65c64ddbf60d9645cbc1fa",
    "homogeneous global":
        "42e25745bc6b26026cdf62150085063210331937133a6953a1d4c7d015293f0d",
    "homogeneous group L=1":
        "f1a225b0eb9314f5b1fe013c7ac4baa435c67cef3db2341fbde5b22d1b5ae9d2",
    "homogeneous group L=16":
        "bd94cefcbf2c775dba8dbbe3fc5bce63c63a0bc9f3ae5616d025ce2674962e7e",
    "homogeneous group L=2":
        "813b04de0bc4d63cc112036ac1f8bb5c640ed6666e9a94441fdae59c97c07e8f",
    "homogeneous group L=3":
        "390f728c2231cbb65b4e3af4f2639de8a89a351d21e9721fe0899cb60e39cc79",
    "overflowing global":
        "71643c5d7e04ed4b26c2d148b0b95c4b4e5b1598fb86c9cc841de7ba638566f7",
    "overflowing group L=1":
        "ddc1d1ebf4614eecc58ef9026c0d4c70ecb95e2ba233c57d6b73925a7445b952",
    "overflowing group L=3":
        "c33d0806d8dc506a8f91ea00634c236fb7f4c4480d9d23a82ea290be2d11a4ca",
}


@pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_search_results_are_pinned(case, batched):
    build, (single, batch) = CASES[case]
    models = build()
    with np.errstate(over="ignore", invalid="ignore"):
        results = batch(models) if batched else [single(m) for m in models]
    assert _digest(results) == PINNED[case]
