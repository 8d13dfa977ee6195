"""Configuration-driven experiment runner.

Each registered experiment regenerates the data behind one figure or table
as a tidy row set; the CLI (or a caller) writes it as CSV or JSON.  Rows
carry the seed and every parameter they depend on, and all randomness is
derived from the recorded seed, so re-running any row reproduces it byte
for byte.

The greedy studies of Figs. 6-8 draw and search their instances through
one pipeline, :func:`_searched_instances`, which checks that K is at least
1 and within the exhaustive search's limit before it draws any instance.
Figs. 6 and 7 search their sorted family with one
:func:`~sensefuse.optimize.sorted_greedy_batch` call per K.

Spec files are flat ``key = value`` UTF-8 text with ``#`` comments; values
stay strings until the experiment coerces them.  Seeds are non-negative.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import zlib
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import analytic, optimize, simulate
from .model import (SystemModel, ValidationError, _require_count, _require_positive_finite,
                    _require_seed)

__all__ = [
    "ExperimentSpec",
    "EXPERIMENTS",
    "parse_spec_file",
    "run_experiment",
    "run_random_error_study",
    "derive_seed",
    "write_rows_csv",
    "write_rows_json",
    "OUTPUT_DIR_ENV",
]

OUTPUT_DIR_ENV = "SENSEFUSE_OUTPUT_DIR"

# SNR substituted for a limiting regime when evaluating a table formula
# numerically; the channel epsilons are more extreme because the limit
# tables take the channel-SNR limit first (the corner limits of the coded
# table do not commute).
_OB_SUBST = {"zero": 1e-9, "inf": 1e9}
_CH_SUBST = {"zero": 1e-18, "inf": 1e18}


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment, its parameter overrides, and an output path."""

    name: str
    params: dict = field(default_factory=dict)
    output_path: Optional[str] = None


def parse_spec_file(path) -> ExperimentSpec:
    """Read a flat key=value spec file; `experiment` names the experiment,
    `output` optionally names the output file, everything else is a param."""
    name = None
    output = None
    params: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "experiment":
            name = value
        elif key == "output":
            output = value
        else:
            params[key] = value
    if name is None:
        raise ValidationError(f"{path}: missing 'experiment = <name>' line")
    return ExperimentSpec(name=name, params=params, output_path=output)


def derive_seed(seed: int, *key) -> int:
    """Stable 64-bit sub-seed for a labeled piece of an experiment.

    String labels go through crc32 (process-independent, unlike hash())."""
    _require_seed(seed)
    parts = tuple(k if isinstance(k, (int, np.integer))
                  else zlib.crc32(str(k).encode("utf-8")) for k in key)
    digest = np.random.SeedSequence(entropy=(int(seed),) + parts)
    return int(digest.generate_state(1, np.uint64)[0])


def _get(params: dict, key: str, default, cast):
    if key not in params:
        return default
    try:
        return cast(params[key])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad value for parameter {key!r}: {params[key]!r}") from exc


def _positive_float(text) -> float:
    """Spec-file cast of every SNR, power, fading mean and spread."""
    value = float(text)
    _require_positive_finite(value, "parameter")
    return value


def _positive_int(text) -> int:
    """Spec-file cast of a grid size."""
    value = int(text)
    _require_count(value, "parameter")
    return value


def _int_list(text) -> list[int]:
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    return [int(part) for part in str(text).split(",") if part.strip()]


def _group_size_list(text) -> list[int]:
    """The random-error study's group sizes: a row each, so at least one."""
    sizes = _int_list(text)
    if not sizes:
        raise ValidationError("the random-error study needs at least one group size")
    return sizes


_DEFAULT_CH_SPEC = simulate.FoldedNormalSpec(target_mean=5.0, std_dev=1.5)
_DEFAULT_OB_SPEC = simulate.FoldedNormalSpec(target_mean=7.0, std_dev=1.5)


def _k_range(params: dict, default_min: int, default_max: int) -> range:
    """The node counts ``k_min..k_max`` of a K sweep."""
    k_min = _get(params, "k_min", default_min, int)
    k_max = _get(params, "k_max", default_max, int)
    _require_count(k_min, "k_min")
    if k_min > k_max:
        raise ValidationError(
            f"bad node-count range: need 1 <= k_min <= k_max, "
            f"got k_min = {k_min}, k_max = {k_max}")
    return range(k_min, k_max + 1)


def _instance_specs(params: dict):
    ch = simulate.FoldedNormalSpec(
        target_mean=_get(params, "gamma_ch", _DEFAULT_CH_SPEC.target_mean, _positive_float),
        std_dev=_get(params, "sigma1", _DEFAULT_CH_SPEC.std_dev, _positive_float))
    ob = simulate.FoldedNormalSpec(
        target_mean=_get(params, "gamma_ob", _DEFAULT_OB_SPEC.target_mean, _positive_float),
        std_dev=_get(params, "sigma2", _DEFAULT_OB_SPEC.std_dev, _positive_float))
    return ch, ob


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _fig3_d_vs_k(params: dict, seed: int):
    ks = _k_range(params, 1, 30)
    gob = _get(params, "gamma_ob", 7.0, _positive_float)
    gch = _get(params, "gamma_ch", 5.0, _positive_float)
    gt = _get(params, "gamma_total", 5.0, _positive_float)
    st = _get(params, "sigma_theta_sq", 1.0, _positive_float)
    rows = []
    for k in ks:
        d_ct, d_ut = analytic.total_power_distortions(k, gob, gt, st)
        rows.append({
            "seed": seed, "k": k, "gamma_ob": gob, "gamma_ch": gch,
            "gamma_total": gt,
            "d_coded": analytic.coded_homo_distortion(k, gob, gch, st),
            "d_uncoded": analytic.uncoded_homo_distortion(k, gob, gch, st),
            "d_coded_total": d_ct,
            "d_uncoded_total": d_ut,
        })
    return rows


def _fig4_snr_surface(params: dict, seed: int):
    k = _get(params, "k", 3, int)
    grid = _get(params, "grid", 40, _positive_int)
    lo = _get(params, "snr_min", 0.1, _positive_float)
    hi = _get(params, "snr_max", 100.0, _positive_float)
    st = _get(params, "sigma_theta_sq", 1.0, _positive_float)
    snrs = np.geomspace(lo, hi, grid)
    rows = []
    for gob in snrs:
        for gch in snrs:
            rows.append({
                "seed": seed, "k": k,
                "gamma_ob": float(gob), "gamma_ch": float(gch),
                "d_coded": analytic.coded_homo_distortion(k, gob, gch, st),
                "d_uncoded": analytic.uncoded_homo_distortion(k, gob, gch, st),
                "coded_wins": int(analytic.coded_wins_homo(k, gob, gch)),
            })
    return rows


def _fig5_fading(params: dict, seed: int):
    ks = _k_range(params, 1, 30)
    nu = _get(params, "nu", 0.9, _positive_float)
    ch_spec, ob_spec = _instance_specs(params)
    gch, gob = ch_spec.target_mean, ob_spec.target_mean
    n_blocks = _get(params, "n_blocks", 200_000, int)
    st = _get(params, "sigma_theta_sq", 1.0, _positive_float)
    rows = []
    for k in ks:
        homo = SystemModel.homogeneous(k, gob, gch, st)
        hetero = simulate.generate_instance(
            k, ch_spec, ob_spec, derive_seed(seed, "instance", k), st)
        # the homogeneous closed form averages over a block-wide gain, so its
        # MC companion must share the gain; the heterogeneous system fades
        # independently per node
        mc_homo = simulate.fading_empirical_distortion(
            homo, nu, n_blocks, derive_seed(seed, "homo", k), shared_gain=True)
        mc_hetero = simulate.fading_empirical_distortion(
            hetero, nu, n_blocks, derive_seed(seed, "hetero", k))
        rows.append({
            "seed": seed, "k": k, "nu": nu, "gamma_ob": gob, "gamma_ch": gch,
            "n_blocks": n_blocks,
            "d_fading_th": analytic.fading_coded_homo_distortion(k, gob, gch, nu, st),
            "d_fading_mc": mc_homo.mean_sq_error,
            "d_fading_mc_stderr": mc_homo.std_error,
            "d_homo": analytic.coded_homo_distortion(k, gob, gch, st),
            "d_hetero": analytic.coded_hetero_distortion(hetero),
            "d_fading_hetero_mc": mc_hetero.mean_sq_error,
            "d_fading_hetero_mc_stderr": mc_hetero.std_error,
        })
    return rows


def _searched_instances(ks, n_sim: int, seed: int, ch_spec, ob_spec, group_sizes):
    """Per K of ``ks``: K, the n_sim random K-node instances, their
    exhaustive search results, and a dict from each distinct group size to
    its group greedy results (size 1 is the pure greedy search)."""
    _require_count(n_sim, "n_sim")
    _require_count(min(ks), "node count")  # before derive_seed meets a negative K
    optimize._require_global_size(max(ks))
    for size in group_sizes:
        _require_count(size, "group size")
    for k in ks:
        models = [simulate.generate_instance(k, ch_spec, ob_spec,
                                             derive_seed(seed, "instance", k, i))
                  for i in range(n_sim)]
        opt = optimize.global_search_batch(models)
        by_size = {size: optimize.group_greedy_batch(models, size)
                   for size in dict.fromkeys(group_sizes)}
        yield k, models, opt, by_size


def _left_sum(values) -> float:
    """Sum of floats from left to right, as ``0.0 + v0 + v1 + ...``: from
    Python 3.12 on, built-in ``sum()`` compensates, changing last bits."""
    return reduce(operator.add, values, 0.0)


def _score(results, opt) -> tuple[float, float]:
    """Normalized distortion and policy error rate of one search family
    against the exhaustive optimum of the same instances."""
    return (optimize.normalized_distortion(results, opt),
            optimize.policy_error_rate([r.policy for r in results],
                                       [r.policy for r in opt]))


def _fig6_hybrid(params: dict, seed: int):
    ks = _k_range(params, 2, 10)
    n_sim = _get(params, "n_sim", 300, int)
    group_size = _get(params, "group_size", 10, int)
    rows = []
    for k, models, opt, by_size in _searched_instances(
            ks, n_sim, seed, *_instance_specs(params), [1, group_size]):
        families = {
            "coded": map(analytic.coded_hetero_distortion, models),
            "uncoded": map(analytic.uncoded_hetero_distortion, models),
            "pure": (r.distortion for r in by_size[1]),
            "sorted": (r.distortion for r in optimize.sorted_greedy_batch(models)),
            "group": (r.distortion for r in by_size[group_size]),
        }
        total_opt = _left_sum(r.distortion for r in opt)
        rows.append({"seed": seed, "k": k, "n_sim": n_sim, "group_size": group_size,
                     **{f"nd_{name}": _left_sum(values) / total_opt
                        for name, values in families.items()}})
    return rows


def _fig7_greedy(params: dict, seed: int):
    sweep = _get(params, "sweep", "k", str)
    ch_spec, ob_spec = _instance_specs(params)
    if sweep == "k":
        ks = _k_range(params, 2, 12)
        n_sim = _get(params, "n_sim", 10_000, int)
        group_sizes = _get(params, "group_sizes", [1, 10, 32], _int_list)
    elif sweep == "l":
        ks = [_get(params, "k", 10, int)]
        n_sim = _get(params, "n_sim", 5_000, int)
        group_sizes = _get(params, "group_sizes", [1, 2, 4, 8, 16, 32], _int_list)
    else:
        raise ValidationError(f"unknown sweep {sweep!r} (expected 'k' or 'l')")
    rows = []
    for k, models, opt, by_size in _searched_instances(ks, n_sim, seed, ch_spec, ob_spec,
                                                       [1, *group_sizes]):
        # keyed by (algorithm, group size): a repeated group size is one row
        families = {("pure", 0): by_size[1],
                    ("sorted", 0): optimize.sorted_greedy_batch(models)}
        families.update((("group", size), by_size[size]) for size in group_sizes)
        for (algorithm, group_size), results in families.items():
            nd, eps = _score(results, opt)
            rows.append({
                "seed": seed, "sweep": sweep, "k": k, "n_sim": n_sim,
                "algorithm": algorithm, "group_size": group_size,
                "normalized_distortion": nd, "policy_error_rate": eps,
            })
    return rows


def run_random_error_study(k: int, group_sizes, n_sim: int, seed: int,
                           ch_spec: simulate.FoldedNormalSpec = _DEFAULT_CH_SPEC,
                           ob_spec: simulate.FoldedNormalSpec = _DEFAULT_OB_SPEC):
    """Group greedy versus random policy errors.

    For each group size L the group greedy policy error rate eps(L) is
    measured against the exhaustive optimum (so K <= 24 and at least one
    group size, each >= 1, checked before any instance is drawn); random
    policies are then produced by flipping each optimal bit independently
    with probability eps(L), eps(L)/2, and eps(L)/3, and all four families
    are reported as normalized distortions.
    A group size listed twice repeats its row.
    """
    group_sizes = _group_size_list(group_sizes)
    [(_, models, opt, by_size)] = _searched_instances([k], n_sim, seed, ch_spec, ob_spec,
                                                      group_sizes)
    terms = [analytic.link_terms(m) for m in models]
    opt_bits = np.array([r.policy.rho for r in opt], dtype=bool)
    mean_opt = _left_sum(r.distortion for r in opt) / n_sim

    rows = []
    for size in group_sizes:
        nd_group, eps = _score(by_size[size], opt)
        row = {
            "seed": seed, "k": k, "n_sim": n_sim, "group_size": size,
            "policy_error_rate": eps, "nd_group": nd_group,
        }
        for divisor, label in ((1, "full"), (2, "half"), (3, "third")):
            prob = eps / divisor
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(derive_seed(seed, "flip", size, divisor))))
            # one draw for all instances: the same stream as a draw per instance
            flipped = opt_bits ^ (rng.random((n_sim, k)) < prob)
            total = _left_sum(
                analytic._hybrid_breakdown(model_terms, model.sigma_theta_sq, bits).total
                for model, model_terms, bits in zip(models, terms, flipped))
            row[f"flip_prob_{label}"] = prob
            row[f"nd_flip_{label}"] = total / n_sim / mean_opt
        rows.append(row)
    return rows


def _fig8_random_errors(params: dict, seed: int):
    k = _get(params, "k", 10, int)
    n_sim = _get(params, "n_sim", 5_000, int)
    group_sizes = _get(params, "group_sizes", [1, 2, 4, 8, 16, 32], _group_size_list)
    return run_random_error_study(k, group_sizes, n_sim, seed, *_instance_specs(params))


def _tables_limits(params: dict, seed: int):
    k = _get(params, "k", 4, int)
    gob = _get(params, "gamma_ob", 7.0, _positive_float)
    gch = _get(params, "gamma_ch", 5.0, _positive_float)
    st = _get(params, "sigma_theta_sq", 1.0, _positive_float)
    rows = []
    for scheme in ("coded", "uncoded"):
        for ob_regime in ("inf", "finite", "zero"):
            for ch_regime in ("inf", "finite", "zero"):
                limit = analytic.limiting_distortion(
                    scheme, ob_regime, ch_regime, k, gob, gch, st)
                ob_val = _OB_SUBST.get(ob_regime, gob)
                ch_val = _CH_SUBST.get(ch_regime, gch)
                if scheme == "coded":
                    formula = analytic.coded_homo_distortion(k, ob_val, ch_val, st)
                else:
                    formula = analytic.uncoded_homo_distortion(k, ob_val, ch_val, st)
                rows.append({
                    "seed": seed, "k": k, "scheme": scheme,
                    "ob_regime": ob_regime, "ch_regime": ch_regime,
                    "limit_value": limit, "formula_at_extremes": formula,
                })
    return rows


def _crossover_roots(params: dict, seed: int):
    gob = _get(params, "gamma_ob", 7.0, _positive_float)
    gch = _get(params, "gamma_ch", 5.0, _positive_float)
    gt = _get(params, "gamma_total", 5.0, _positive_float)
    rows = []
    for constraint, snr, find_root in (
            ("individual", gch, analytic.crossover_node_count),
            ("total", gt, analytic.crossover_node_count_total)):
        try:
            root = find_root(gob, snr)
        except analytic._NoCrossover:
            root = np.inf  # coded wins at every node count
        rows.append({"seed": seed, "constraint": constraint, "gamma_ob": gob,
                     "power_snr": snr, "root": root})
    return rows


EXPERIMENTS: dict[str, Callable] = {
    "fig3_d_vs_k": _fig3_d_vs_k,
    "fig4_snr_surface": _fig4_snr_surface,
    "fig5_fading": _fig5_fading,
    "fig6_hybrid": _fig6_hybrid,
    "fig7_greedy": _fig7_greedy,
    "fig8_random_errors": _fig8_random_errors,
    "tables_limits": _tables_limits,
    "crossover_roots": _crossover_roots,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_rows_csv(path, rows) -> None:
    if not rows:
        raise ValidationError("no rows to write: the experiment produced an empty table")
    fieldnames = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_format_cell(row[name]) for name in fieldnames])


def _finite_json(value):
    """``value`` with every non-finite float written as the CSV writes it:
    "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return _format_cell(value)
    if isinstance(value, dict):
        return {key: _finite_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def _json_text(payload) -> str:
    """Strict (RFC 8259) JSON text of a payload, indented by two."""
    return json.dumps(_finite_json(payload), indent=2, allow_nan=False)


def write_rows_json(path, spec: ExperimentSpec, seed: int, rows) -> None:
    payload = {
        "spec": {"name": spec.name, "params": dict(spec.params)},
        "seed": seed,
        "rows": rows,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_text(payload) + "\n")


def _resolve_output(spec: ExperimentSpec, out: Optional[str], fmt: str) -> Path:
    path = Path(out or spec.output_path or f"{spec.name}.{fmt}")
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def run_experiment(spec: ExperimentSpec, seed: Optional[int] = None,
                   fmt: str = "csv", out: Optional[str] = None) -> Path:
    """Run a registered experiment and write its row table; returns the path."""
    if spec.name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValidationError(f"unknown experiment {spec.name!r}; known: {known}")
    if fmt not in ("csv", "json"):
        raise ValidationError(f"unknown format {fmt!r} (expected csv or json)")
    if seed is None:
        seed = _get(spec.params, "seed", 0, int)
    _require_seed(seed)
    rows = EXPERIMENTS[spec.name](spec.params, int(seed))
    path = _resolve_output(spec, out, fmt)
    if fmt == "csv":
        write_rows_csv(path, rows)
    else:
        write_rows_json(path, spec, int(seed), rows)
    return path
