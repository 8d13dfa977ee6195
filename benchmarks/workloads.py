"""The three workloads: their inputs, one operation each, and output checks.

An operation's inputs come only from the workload seed and the operation's
index, so a run can regenerate them.  ``run`` is the timed part and returns
the bytes the program wrote; ``check`` returns a list of problems, empty
when the output is right.  ``deep`` checks re-run public calls or brute
force and are done on a sample of operations only.

The program is reached only through its public entry points, always as
module attributes so that a traced run sees the patched functions.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

import reference
from sensefuse import cli, experiments, optimize, simulate

# mean and spread of the folded-normal SNR draws of the paper's studies
CH_MEAN, OB_MEAN, SNR_SD = 5.0, 7.0, 1.5
REL_EXACT = 1e-12   # same quantity through another summation order
REL_REF = 1e-9      # program against the dense Cholesky reference
REL_QUAD = 1e-8     # fading closed form against quadrature
N_SIGMA = 5.0       # Monte Carlo estimate against its expectation


def _snrs(rng, k):
    gob = np.abs(rng.normal(OB_MEAN, SNR_SD, k))
    gch = np.abs(rng.normal(CH_MEAN, SNR_SD, k))
    return gob, gch


def _csv_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Workload:
    name = ""
    tag = 0

    def __init__(self, seed: int, outdir: str):
        self.seed = seed
        self.outdir = outdir

    def _rng(self, index: int):
        return np.random.default_rng([self.seed, self.tag, index])

    def _path(self, name: str) -> str:
        return os.path.join(self.outdir, name)


class GreedyStudy(Workload):
    """One ``fig7_greedy`` plus one ``fig8_random_errors`` run on the same
    fresh seed.  Pairing them keeps every operation alike, so the
    percentiles do not straddle two kinds of call."""

    name = "greedy_study"
    tag = 1
    K = 10
    N_SIM = 10
    FIG7_SIZES = (1, 10, 32)
    FIG8_SIZES = (1, 2, 4, 8, 16, 32)
    BRUTE_INSTANCES = (0, N_SIM - 1)
    units = 2 * N_SIM  # instances searched by every family

    def inputs(self, index: int) -> dict:
        return {"seed": int(self._rng(index).integers(2 ** 31))}

    def _specs(self):
        common = {"gamma_ch": repr(CH_MEAN), "sigma1": repr(SNR_SD),
                  "gamma_ob": repr(OB_MEAN), "sigma2": repr(SNR_SD),
                  "n_sim": str(self.N_SIM)}
        fig7 = experiments.ExperimentSpec("fig7_greedy", dict(
            common, sweep="k", k_min=str(self.K), k_max=str(self.K),
            group_sizes=",".join(map(str, self.FIG7_SIZES))))
        fig8 = experiments.ExperimentSpec("fig8_random_errors", dict(
            common, k=str(self.K),
            group_sizes=",".join(map(str, self.FIG8_SIZES))))
        return fig7, fig8

    def run(self, inp: dict):
        fig7, fig8 = self._specs()
        p7 = experiments.run_experiment(fig7, seed=inp["seed"], out=self._path("fig7.csv"))
        p8 = experiments.run_experiment(fig8, seed=inp["seed"], out=self._path("fig8.csv"))
        return _read(p7), _read(p8)

    def check(self, inp: dict, out, deep: bool) -> list[str]:
        problems = []
        rows7, rows8 = _rows(out[0]), _rows(out[1])
        fig7 = {(r["algorithm"], int(r["group_size"])): r for r in rows7}
        fig8 = {int(r["group_size"]): r for r in rows8}
        want7 = {("pure", 0), ("sorted", 0)} | {("group", s) for s in self.FIG7_SIZES}
        if set(fig7) != want7 or len(rows7) != len(want7):
            return [f"fig7 rows {sorted(fig7)}"]
        if sorted(fig8) != list(self.FIG8_SIZES) or len(rows8) != len(self.FIG8_SIZES):
            return [f"fig8 rows {sorted(fig8)}"]
        for r in rows7 + rows8:
            if int(r["seed"]) != inp["seed"] or int(r["k"]) != self.K \
                    or int(r["n_sim"]) != self.N_SIM:
                problems.append(f"row parameters {r}")
        for key, r in fig7.items():
            if float(r["normalized_distortion"]) < 1.0 - REL_EXACT:
                problems.append(f"fig7 {key} beats the optimum")
            if not 0.0 <= float(r["policy_error_rate"]) <= 1.0:
                problems.append(f"fig7 {key} error rate out of range")
        pure, group1 = fig7[("pure", 0)], fig7[("group", 1)]
        for field in ("normalized_distortion", "policy_error_rate"):
            if pure[field] != group1[field]:
                problems.append(f"fig7 pure != group L=1 in {field}")
        # fig8 searches the same instances as fig7 (same seed and K)
        if fig8[1]["nd_group"] != pure["normalized_distortion"] \
                or fig8[1]["policy_error_rate"] != pure["policy_error_rate"]:
            problems.append("fig8 L=1 row disagrees with fig7 pure row")
        for size, r in fig8.items():
            eps = float(r["policy_error_rate"])
            for label, div in (("full", 1), ("half", 2), ("third", 3)):
                if not math.isclose(float(r[f"flip_prob_{label}"]), eps / div,
                                    rel_tol=REL_EXACT):
                    problems.append(f"fig8 L={size} flip_prob_{label}")
                if float(r[f"nd_flip_{label}"]) < 1.0 - REL_EXACT:
                    problems.append(f"fig8 L={size} nd_flip_{label} beats the optimum")
            if float(r["nd_group"]) < 1.0 - REL_EXACT:
                problems.append(f"fig8 L={size} beats the optimum")
        if deep and not problems:
            problems += self._deep_check(inp["seed"], fig7, fig8)
        return problems

    def _deep_check(self, seed: int, fig7: dict, fig8: dict) -> list[str]:
        """Recompute the aggregates from per-instance public calls."""
        problems = []
        ch = simulate.FoldedNormalSpec(CH_MEAN, SNR_SD)
        ob = simulate.FoldedNormalSpec(OB_MEAN, SNR_SD)
        sizes = sorted(set(self.FIG7_SIZES) | set(self.FIG8_SIZES))
        opt, dists, pols = [], {}, {}
        for i in range(self.N_SIM):
            model = simulate.generate_instance(
                self.K, ch, ob, experiments.derive_seed(seed, "instance", self.K, i))
            best = optimize.global_search(model)
            found = {"pure": optimize.pure_greedy(model),
                     "sorted": optimize.sorted_greedy(model)}
            for size in sizes:
                found[size] = optimize.group_greedy(model, size)
            if (found["pure"].policy, found["pure"].distortion) \
                    != (found[1].policy, found[1].distortion):
                problems.append(f"instance {i}: pure != group L=1")
            for name, res in found.items():
                if res.distortion < best.distortion * (1.0 - REL_EXACT):
                    problems.append(f"instance {i}: {name} beats the global search")
                dists.setdefault(name, []).append(res.distortion)
                pols.setdefault(name, []).append(res.policy.rho)
            opt.append(best)
            if i in self.BRUTE_INSTANCES:
                gob, gch = model.gamma_ob_array(), model.gamma_ch_array()
                d_min, _ = reference.brute_force_minimum(gob, gch)
                d_pick = reference.blue_distortion(gob, gch, best.policy.rho)
                if _rel(best.distortion, d_min) > REL_REF or _rel(d_pick, d_min) > REL_REF:
                    problems.append(f"instance {i}: global search misses the "
                                    f"brute-force minimum {d_min!r}")
        mean_opt = np.mean([r.distortion for r in opt])
        opt_bits = np.array([r.policy.rho for r in opt])

        def agg(name):
            return (np.mean(dists[name]) / mean_opt,
                    np.mean(np.array(pols[name]) ^ opt_bits))

        expected = [(fig7[("pure", 0)], "pure"), (fig7[("sorted", 0)], "sorted")]
        expected += [(fig7[("group", s)], s) for s in self.FIG7_SIZES]
        for row, name in expected:
            nd, eps = agg(name)
            if _rel(float(row["normalized_distortion"]), nd) > REL_EXACT \
                    or abs(float(row["policy_error_rate"]) - eps) > REL_EXACT:
                problems.append(f"fig7 {name} aggregate disagrees with per-instance calls")
        for size, row in fig8.items():
            nd, eps = agg(size)
            if _rel(float(row["nd_group"]), nd) > REL_EXACT \
                    or abs(float(row["policy_error_rate"]) - eps) > REL_EXACT:
                problems.append(f"fig8 L={size} aggregate disagrees with per-instance calls")
        return problems


class LargeKSolve(Workload):
    """A fixed set of in-process ``sensefuse solve --format json`` calls."""

    name = "large_k_solve"
    tag = 2
    # (algorithm, K, extra flags); group beyond K=39 uses Python-integer keys
    SOLVES = (("global", 15, ()),
              ("group", 60, ("--group-size", "16")),
              ("pure", 250, ()),
              ("sorted", 400, ()))
    units = len(SOLVES)

    def inputs(self, index: int) -> list[dict]:
        rng = self._rng(index)
        out = []
        for algo, k, extra in self.SOLVES:
            gob, gch = _snrs(rng, k)
            out.append({"algo": algo, "k": k, "extra": extra, "gob": gob, "gch": gch})
        return out

    def run(self, inp: list[dict]):
        texts = []
        path = self._path("solve.json")
        for solve in inp:
            argv = ["solve", "--gamma-ob", _csv_list(solve["gob"]),
                    "--gamma-ch", _csv_list(solve["gch"]), "--algo", solve["algo"],
                    *solve["extra"], "--format", "json", "--out", path]
            if cli.cli_entry(argv) != 0:
                raise RuntimeError(f"solve {solve['algo']} exited non-zero")
            texts.append(_read(path))
        return tuple(texts)

    def check(self, inp: list[dict], out, deep: bool) -> list[str]:
        problems = []
        for solve, text in zip(inp, out):
            algo, k = solve["algo"], solve["k"]
            res = json.loads(text)
            bits = res["policy"]
            if res["algorithm"] != algo or len(bits) != k or set(bits) - {"0", "1"}:
                problems.append(f"{algo}: malformed result")
                continue
            rho = np.array([int(b) for b in bits])
            d_ref = reference.blue_distortion(solve["gob"], solve["gch"], rho)
            if _rel(res["distortion"], d_ref) > REL_REF:
                problems.append(f"{algo}: distortion {res['distortion']!r} vs "
                                f"reference {d_ref!r}")
            want_evals = {"global": 2 ** k, "pure": k * (k + 1),
                          "sorted": 3 * k - 2}.get(algo)
            if want_evals is not None and res["evaluations"] != want_evals:
                problems.append(f"{algo}: {res['evaluations']} evaluations, "
                                f"expected {want_evals}")
            if algo != "global" and sorted(res["visit_order"]) != list(range(k)):
                problems.append(f"{algo}: visit order is not a permutation")
            if algo == "global" and deep:
                d_min, _ = reference.brute_force_minimum(solve["gob"], solve["gch"])
                if _rel(res["distortion"], d_min) > REL_REF or _rel(d_ref, d_min) > REL_REF:
                    problems.append(f"global: misses the brute-force minimum {d_min!r}")
        return problems


class MonteCarlo(Workload):
    """One in-process ``sensefuse validate`` at K=8 plus one ``fig5_fading``
    run over K=2..3; every Monte Carlo call spans two Philox chunks."""

    name = "monte_carlo"
    tag = 3
    K = 8
    TRIALS = 98_304
    K_RANGE = (2, 3)
    N_BLOCKS = 98_304
    units = TRIALS + 2 * N_BLOCKS * (K_RANGE[1] - K_RANGE[0] + 1)

    def inputs(self, index: int) -> dict:
        rng = self._rng(index)
        gob, gch = _snrs(rng, self.K)
        return {"gob": gob, "gch": gch,
                "policy": "".join(str(b) for b in rng.integers(0, 2, self.K)),
                "mc_seed": int(rng.integers(2 ** 31)),
                "fig5_seed": int(rng.integers(2 ** 31)),
                "fig5_gob": float(rng.uniform(4.0, 10.0)),
                "fig5_gch": float(rng.uniform(2.0, 8.0)),
                "nu": float(rng.uniform(0.5, 1.5))}

    def _fig5(self, inp: dict):
        return experiments.ExperimentSpec("fig5_fading", {
            "k_min": str(self.K_RANGE[0]), "k_max": str(self.K_RANGE[1]),
            "n_blocks": str(self.N_BLOCKS), "nu": repr(inp["nu"]),
            "gamma_ob": repr(inp["fig5_gob"]), "gamma_ch": repr(inp["fig5_gch"]),
            "sigma1": repr(SNR_SD), "sigma2": repr(SNR_SD)})

    def run(self, inp: dict):
        path = self._path("validate.json")
        argv = ["validate", "--gamma-ob", _csv_list(inp["gob"]),
                "--gamma-ch", _csv_list(inp["gch"]), "--policy", inp["policy"],
                "--trials", str(self.TRIALS), "--seed", str(inp["mc_seed"]),
                "--format", "json", "--out", path]
        if cli.cli_entry(argv) != 0:
            raise RuntimeError("validate exited non-zero")
        text = _read(path)
        p5 = experiments.run_experiment(self._fig5(inp), seed=inp["fig5_seed"],
                                        out=self._path("fig5.csv"))
        return text, _read(p5)

    def check(self, inp: dict, out, deep: bool) -> list[str]:
        problems = []
        val = json.loads(out[0])
        rho = [int(b) for b in inp["policy"]]
        d_ref = reference.blue_distortion(inp["gob"], inp["gch"], rho)
        if val["n_trials"] != self.TRIALS or val["seed"] != inp["mc_seed"] \
                or val["policy"] != inp["policy"]:
            problems.append("validate: echoed parameters differ")
        if _rel(val["analytic"], d_ref) > REL_REF:
            problems.append(f"validate: analytic {val['analytic']!r} vs reference {d_ref!r}")
        if abs(val["empirical"] - d_ref) > N_SIGMA * val["std_error"]:
            problems.append(f"validate: estimate {val['empirical']!r} is more than "
                            f"{N_SIGMA} standard errors from {d_ref!r}")
        rows = _rows(out[1])
        ks = [int(r["k"]) for r in rows]
        if ks != list(range(self.K_RANGE[0], self.K_RANGE[1] + 1)):
            return problems + [f"fig5 rows for K={ks}"]
        st = 1.0
        gob, gch, nu = inp["fig5_gob"], inp["fig5_gch"], inp["nu"]
        ch = simulate.FoldedNormalSpec(gch, SNR_SD)
        ob = simulate.FoldedNormalSpec(gob, SNR_SD)
        for row, k in zip(rows, ks):
            if int(row["n_blocks"]) != self.N_BLOCKS:
                problems.append(f"fig5 K={k}: n_blocks {row['n_blocks']}")
            expect = reference.fading_homo_expectation(k, gob, gch, nu, st)
            if _rel(float(row["d_fading_th"]), expect) > REL_QUAD:
                problems.append(f"fig5 K={k}: d_fading_th {row['d_fading_th']} vs "
                                f"quadrature {expect!r}")
            if abs(float(row["d_fading_mc"]) - expect) \
                    > N_SIGMA * float(row["d_fading_mc_stderr"]):
                problems.append(f"fig5 K={k}: shared-gain estimate off by more "
                                f"than {N_SIGMA} standard errors")
            if _rel(float(row["d_homo"]), reference.coded_homo_instant(k, gob, gch, st)) \
                    > REL_REF:
                problems.append(f"fig5 K={k}: d_homo")
            hetero = simulate.generate_instance(
                k, ch, ob, experiments.derive_seed(inp["fig5_seed"], "instance", k), st)
            hg, hc = hetero.gamma_ob_array(), hetero.gamma_ch_array()
            if _rel(float(row["d_hetero"]), reference.blue_distortion(hg, hc, [1] * k)) \
                    > REL_REF:
                problems.append(f"fig5 K={k}: d_hetero")
            expect = reference.fading_hetero_expectation(hg, hc, nu, st)
            if abs(float(row["d_fading_hetero_mc"]) - expect) \
                    > N_SIGMA * float(row["d_fading_hetero_mc_stderr"]):
                problems.append(f"fig5 K={k}: independent-gain estimate off by "
                                f"more than {N_SIGMA} standard errors")
        return problems


WORKLOADS = {w.name: w for w in (GreedyStudy, LargeKSolve, MonteCarlo)}
