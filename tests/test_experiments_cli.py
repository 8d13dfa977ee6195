import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sensefuse import analytic as an
from sensefuse import experiments as ex
from sensefuse import simulate as sim
from sensefuse.cli import cli_entry
from sensefuse.model import ValidationError

ROOT = Path(__file__).resolve().parents[1]


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# spec files and the runner
# ---------------------------------------------------------------------------

def test_parse_spec_file(tmp_path):
    spec_file = tmp_path / "exp.spec"
    spec_file.write_text(
        "# comment line\n"
        "experiment = fig3_d_vs_k\n"
        "k_max = 6   # trailing comment\n"
        "output = table.csv\n\n")
    spec = ex.parse_spec_file(spec_file)
    assert spec.name == "fig3_d_vs_k"
    assert spec.params == {"k_max": "6"}
    assert spec.output_path == "table.csv"


def test_parse_spec_file_errors(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("experiment fig3\n")
    with pytest.raises(ValidationError, match="key = value"):
        ex.parse_spec_file(bad)
    empty = tmp_path / "empty.spec"
    empty.write_text("k_max = 3\n")
    with pytest.raises(ValidationError, match="missing 'experiment"):
        ex.parse_spec_file(empty)
    binary = tmp_path / "binary.spec"
    binary.write_bytes(b"experiment = fig3_d_vs_k\n\xff\xfe = 3\n")
    with pytest.raises(ValidationError, match="binary.spec: not UTF-8"):
        ex.parse_spec_file(binary)


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ValidationError, match="unknown experiment"):
        ex.run_experiment(ex.ExperimentSpec("fig99"), out=str(tmp_path / "x.csv"))


def test_fig3_crossover_and_determinism(tmp_path):
    spec = ex.ExperimentSpec("fig3_d_vs_k", {"k_max": "8"})
    p1 = ex.run_experiment(spec, seed=1, out=str(tmp_path / "a.csv"))
    p2 = ex.run_experiment(spec, seed=1, out=str(tmp_path / "b.csv"))
    assert p1.read_bytes() == p2.read_bytes()
    rows = _read_rows(p1)
    gap = {int(r["k"]): float(r["d_coded"]) - float(r["d_uncoded"]) for r in rows}
    assert gap[4] < 0 < gap[5]  # crossover between K=4 and K=5
    gap_total = {int(r["k"]): float(r["d_coded_total"]) - float(r["d_uncoded_total"])
                 for r in rows}
    assert gap_total[3] < 0 < gap_total[4]


def test_crossover_roots_experiment(tmp_path):
    path = ex.run_experiment(ex.ExperimentSpec("crossover_roots"),
                             out=str(tmp_path / "roots.csv"))
    rows = {r["constraint"]: float(r["root"]) for r in _read_rows(path)}
    assert rows["individual"] == pytest.approx(4.085714, abs=1e-4)
    assert rows["total"] == pytest.approx(3.65483, abs=1e-4)


def test_tables_limits_experiment(tmp_path):
    path = ex.run_experiment(ex.ExperimentSpec("tables_limits"),
                             out=str(tmp_path / "tables.csv"))
    rows = _read_rows(path)
    assert len(rows) == 18
    for row in rows:
        limit = float(row["limit_value"])
        formula = float(row["formula_at_extremes"])
        if math.isinf(limit):
            assert formula > 1e6
        elif limit == 0.0:
            assert formula < 1e-4
        else:
            assert formula == pytest.approx(limit, rel=1e-4)


def test_fig7_group_size_one_matches_pure(tmp_path):
    spec = ex.ExperimentSpec("fig7_greedy", {
        "sweep": "k", "k_min": "3", "k_max": "5", "n_sim": "40",
        "group_sizes": "1,8"})
    rows = _read_rows(ex.run_experiment(spec, seed=3, out=str(tmp_path / "g.csv")))
    by_key = {(r["k"], r["algorithm"], r["group_size"]): r for r in rows}
    for k in ("3", "4", "5"):
        pure = by_key[(k, "pure", "0")]
        group1 = by_key[(k, "group", "1")]
        assert group1["normalized_distortion"] == pure["normalized_distortion"]
        assert group1["policy_error_rate"] == pure["policy_error_rate"]


def test_fig7_group_size_sweep_matches_the_random_error_study(tmp_path):
    params = {"k": "6", "n_sim": "30", "group_sizes": "1,2,4"}
    rows = _read_rows(ex.run_experiment(
        ex.ExperimentSpec("fig7_greedy", {"sweep": "l", **params}), seed=13,
        out=str(tmp_path / "g.csv")))
    by_key = {(r["algorithm"], r["group_size"]): r for r in rows}
    assert {r["sweep"] for r in rows} == {"l"}
    assert {r["k"] for r in rows} == {"6"}
    for col in ("normalized_distortion", "policy_error_rate"):
        assert by_key[("group", "1")][col] == by_key[("pure", "0")][col]
    # the same instances searched by the same group greedy: the Fig. 8
    # study reports the same group rows
    errors = _read_rows(ex.run_experiment(
        ex.ExperimentSpec("fig8_random_errors", params), seed=13,
        out=str(tmp_path / "e.csv")))
    assert [r["group_size"] for r in errors] == ["1", "2", "4"]
    for row in errors:
        group = by_key[("group", row["group_size"])]
        assert group["normalized_distortion"] == row["nd_group"]
        assert group["policy_error_rate"] == row["policy_error_rate"]


def test_fig5_fading_smoke(tmp_path):
    spec = ex.ExperimentSpec("fig5_fading", {"k_max": "3", "n_blocks": "20000"})
    rows = _read_rows(ex.run_experiment(spec, seed=2, out=str(tmp_path / "f.csv")))
    assert len(rows) == 3
    for row in rows:
        th = float(row["d_fading_th"])
        mc = float(row["d_fading_mc"])
        assert abs(mc - th) / th < 0.05
        # heterogeneous fading benefits from diversity
        assert float(row["d_fading_hetero_mc"]) < mc


def test_fig4_surface_smoke(tmp_path):
    spec = ex.ExperimentSpec("fig4_snr_surface", {"grid": "5"})
    rows = _read_rows(ex.run_experiment(spec, seed=0, out=str(tmp_path / "s.csv")))
    assert len(rows) == 25
    for row in rows:
        wins = row["coded_wins"] == "1"
        gap = float(row["d_coded"]) - float(row["d_uncoded"])
        assert wins == (gap < 0)


def test_fig6_hybrid_smoke(tmp_path):
    spec = ex.ExperimentSpec("fig6_hybrid", {"k_min": "3", "k_max": "4",
                                             "n_sim": "30"})
    rows = _read_rows(ex.run_experiment(spec, seed=5, out=str(tmp_path / "h.csv")))
    for row in rows:
        for col in ("nd_coded", "nd_uncoded", "nd_pure", "nd_sorted", "nd_group"):
            assert float(row[col]) >= 1.0 - 1e-12
        # hybrid searches beat the single-scheme systems on average
        assert float(row["nd_group"]) <= float(row["nd_coded"])
        assert float(row["nd_group"]) <= float(row["nd_uncoded"])


def test_random_error_study_properties(tmp_path):
    rows = ex.run_random_error_study(k=6, group_sizes=[1, 4], n_sim=60, seed=11)
    for row in rows:
        if row["policy_error_rate"] == 0.0:
            # flip probability 0 keeps the optimal policy
            assert row["nd_flip_full"] == pytest.approx(1.0, rel=1e-12)
        else:
            assert row["nd_flip_full"] > row["nd_group"]
    with pytest.raises(ValidationError):
        ex.run_random_error_study(k=30, group_sizes=[1], n_sim=5, seed=0)


def test_json_output_structure(tmp_path):
    spec = ex.ExperimentSpec("crossover_roots", {"gamma_ob": "7"})
    path = ex.run_experiment(spec, seed=4, fmt="json",
                             out=str(tmp_path / "roots.json"))
    payload = json.loads(path.read_text())
    assert payload["spec"]["name"] == "crossover_roots"
    assert payload["spec"]["params"] == {"gamma_ob": "7"}
    assert payload["seed"] == 4
    assert len(payload["rows"]) == 2


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(ex.OUTPUT_DIR_ENV, str(tmp_path / "outdir"))
    path = ex.run_experiment(ex.ExperimentSpec("crossover_roots"))
    assert path.parent == tmp_path / "outdir"
    assert path.exists()


def test_derive_seed_stable_values():
    assert ex.derive_seed(1, "instance", 3) == ex.derive_seed(1, "instance", 3)
    assert ex.derive_seed(1, "instance", 3) != ex.derive_seed(1, "instance", 4)
    assert ex.derive_seed(1, "a") != ex.derive_seed(1, "b")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_solve_single_node(capsys):
    rc = cli_entry(["solve", "--algo", "sorted", "--k", "1",
                    "--gamma-ob", "1", "--gamma-ch", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "policy 1" in out
    assert "D = 1" in out


def test_cli_eval_all_uncoded(capsys):
    rc = cli_entry(["eval", "--k", "1", "--gamma-ob", "1", "--gamma-ch", "1",
                    "--policy", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "D = 3" in out


def test_cli_eval_json(capsys):
    rc = cli_entry(["eval", "--gamma-ob", "1,1", "--gamma-ch", "1,1",
                    "--policy", "11", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["distortion"] == pytest.approx(0.625, rel=1e-12)


def test_cli_db_flag(capsys):
    rc = cli_entry(["eval", "--k", "1", "--gamma-ob", "0", "--gamma-ch", "0",
                    "--policy", "0", "--db", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["distortion"] == pytest.approx(3.0, rel=1e-12)  # 0 dB == 1


def test_cli_solve_matches_global(capsys):
    rc = cli_entry(["solve", "--algo", "global", "--gamma-ob", "1,1",
                    "--gamma-ch", "1,1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["policy"] == "11"
    assert payload["evaluations"] == 4


@pytest.mark.parametrize("model, policy, analytic", [
    (["--k", "2", "--gamma-ob", "1", "--gamma-ch", "1"], "11", 0.625),
    # a tiny observation SNR on a coded or an uncoded node: the noise
    # covariance stays finite, and no overflow warning is raised
    (["--gamma-ob", "1e-200,5", "--gamma-ch", "5,5"], "11", None),
    (["--gamma-ob", "1e-200,5", "--gamma-ch", "5,5"], "01", None),
], ids=["homogeneous", "tiny-snr-coded", "tiny-snr-uncoded"])
def test_cli_validate(capsys, model, policy, analytic):
    rc = cli_entry(["validate", *model, "--policy", policy, "--trials", "200000",
                    "--seed", "3", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["within_3_sigma"]
    if analytic is not None:
        assert payload["analytic"] == pytest.approx(analytic, rel=1e-12)


def test_cli_validate_json_pinned(tmp_path):
    # two Philox chunks; any change to the Monte Carlo draws, their order or
    # their sums moves these bytes
    out = tmp_path / "validate.json"
    rc = cli_entry(["validate", "--gamma-ob", "7,3,12,0.5", "--gamma-ch", "5,8,2,20",
                    "--policy", "1010", "--trials", "70000", "--seed", "2718",
                    "--format", "json", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (
        b'{\n  "policy": "1010",\n  "analytic": 0.13018387622954872,\n'
        b'  "empirical": 0.13043807477312916,\n  "std_error": 0.0006948648135853281,\n'
        b'  "n_trials": 70000,\n  "seed": 2718,\n  "z_score": 0.3658244576651406,\n'
        b'  "within_3_sigma": true\n}\n')


def test_cli_validate_json_pinned_at_eight_nodes(tmp_path):
    # two Philox chunks of K = 8 nodes, the second one half full
    out = tmp_path / "validate.json"
    rc = cli_entry(["validate", "--gamma-ob", "7,3,12,0.5,9,2,6,4",
                    "--gamma-ch", "5,8,2,20,1,3,7,6", "--policy", "10110010",
                    "--trials", "98304", "--seed", "31", "--format", "json",
                    "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (
        b'{\n  "policy": "10110010",\n  "analytic": 0.0696396407819017,\n'
        b'  "empirical": 0.06964436292276092,\n  "std_error": 0.000311901637882753,\n'
        b'  "n_trials": 98304,\n  "seed": 31,\n  "z_score": 0.015139839890808245,\n'
        b'  "within_3_sigma": true\n}\n')


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "e1990d252d10e02af2e8629714dae622a998ccd23121e7336d1c8d2bb8980bc3"),
    ("json", "06b88c316afc89432cebc24158b02dd325fdea7f7899342259340f03138ce130"),
], ids=["csv", "json"])
def test_cli_fig5_fading_pinned(tmp_path, fmt, digest):
    # K = 1..30, each Monte Carlo call over three Philox chunks (the last
    # one of 28 blocks); sha256 of the bytes written, so any change to the
    # fading draws, the per-block distortions or the order of their sums
    # moves it
    spec = tmp_path / "fig5.spec"
    spec.write_text("experiment = fig5_fading\nn_blocks = 131100\n")
    out = tmp_path / f"fig5.{fmt}"
    assert cli_entry(["run", str(spec), "--seed", "5", "--format", fmt,
                      "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_crossover_roots_without_total_power_crossover(tmp_path, capsys):
    # coded wins at every node count under the total power constraint, so
    # that root is inf; the individual-power root is still written
    spec = tmp_path / "roots.spec"
    spec.write_text("experiment = crossover_roots\ngamma_total = 0.5\n")
    out = tmp_path / "roots.csv"
    assert cli_entry(["run", str(spec), "--out", str(out)]) == 0
    rows = {r["constraint"]: r["root"] for r in _read_rows(out)}
    assert float(rows["individual"]) == pytest.approx(4.085714, abs=1e-4)
    assert rows["total"] == "inf"
    with pytest.raises(ValidationError, match="no crossover"):
        an.crossover_node_count_total(7.0, 0.5)


@pytest.mark.parametrize("gamma_ch, gamma_total", [(1e300, 5.0), (5.0, 1e300), (1e-300, 5.0)])
def test_cli_crossover_roots_at_extreme_snr(tmp_path, capsys, gamma_ch, gamma_total):
    spec = tmp_path / "roots.spec"
    spec.write_text(f"experiment = crossover_roots\ngamma_ch = {gamma_ch!r}\n"
                    f"gamma_total = {gamma_total!r}\n")
    out = tmp_path / "roots.csv"
    assert cli_entry(["run", str(spec), "--out", str(out)]) == 0
    rows = {r["constraint"]: float(r["root"]) for r in _read_rows(out)}
    assert rows == {"individual": an.crossover_node_count(7.0, gamma_ch),
                    "total": an.crossover_node_count_total(7.0, gamma_total)}
    assert all(2.0 < root < math.inf for root in rows.values())


def test_cli_run_byte_identical(tmp_path, capsys):
    spec_file = tmp_path / "fig3.spec"
    spec_file.write_text("experiment = fig3_d_vs_k\nk_max = 5\n")
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_entry(["run", str(spec_file), "--seed", "7",
                      "--out", str(out1)]) == 0
    assert cli_entry(["run", str(spec_file), "--seed", "7",
                      "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_error_paths(tmp_path, capsys):
    rc = cli_entry(["eval", "--k", "2", "--gamma-ob", "1", "--gamma-ch", "1",
                    "--policy", "111"])  # wrong policy length
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = cli_entry(["run", str(tmp_path / "missing.spec")])
    assert rc == 1
    with pytest.raises(SystemExit) as exc:
        cli_entry(["solve", "--algo", "bogus", "--gamma-ob", "1",
                   "--gamma-ch", "1"])
    assert exc.value.code == 2  # argparse usage error


@pytest.mark.parametrize("argv, needle", [
    (["validate", "--k", "2", "--gamma-ob", "1", "--gamma-ch", "1",
      "--policy", "11", "--trials", "1"], "n_trials"),
    (["eval", "--gamma-ob", "7,x", "--gamma-ch", "5,5", "--policy", "11"], "'x'"),
    (["run", "{spec}"], "k_min"),
    (["eval", "--db", "--gamma-ob", "4000", "--gamma-ch", "5", "--policy", "1"],
     "4000.0 dB"),
    # 10 ** (dB / 10) underflows to 0.0; a bare -4000 would parse as a flag
    (["eval", "--db", "--gamma-ob=-4000", "--gamma-ch", "5", "--policy", "1"],
     "SNR of -4000.0 dB is out of range"),
    (["solve", "--k", "-1", "--gamma-ob", "1", "--gamma-ch", "1"],
     "--k must be >= 1, got -1"),
    (["validate", "--k", "2", "--gamma-ob", "1", "--gamma-ch", "1",
      "--policy", "11", "--trials", "100", "--seed", "-1"], "seed"),
    (["run", "{spec}", "--seed", "-1"], "seed"),
    (["solve", "--k", "3", "--gamma-ob", "1,2", "--gamma-ch", "5"],
     "--k 3 does not match SNR list lengths 2/3"),
])
def test_cli_bad_input_gives_one_line_error(tmp_path, capsys, argv, needle):
    spec = tmp_path / "empty.spec"
    spec.write_text("experiment = fig3_d_vs_k\nk_min = 5\nk_max = 2\n")
    rc = cli_entry([arg.format(spec=spec) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("experiment, key, value", [
    ("crossover_roots", "gamma_ob", "0"),
    ("tables_limits", "gamma_ch", "0"),
    ("fig4_snr_surface", "snr_min", "-1"),
    ("fig3_d_vs_k", "gamma_ob", "-7"),
    ("fig3_d_vs_k", "gamma_total", "nan"),
    ("fig4_snr_surface", "grid", "-1"),
    ("fig4_snr_surface", "grid", "0"),
])
def test_cli_run_rejects_nonpositive_or_nonfinite_parameter(tmp_path, capsys, experiment,
                                                            key, value):
    spec = tmp_path / "bad.spec"
    spec.write_text(f"experiment = {experiment}\n{key} = {value}\n")
    out = tmp_path / "rows.csv"
    rc = cli_entry(["run", str(spec), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, lines, needle", [
    ("fig7_greedy", "group_sizes = 1,x", "'group_sizes'"),
    ("fig7_greedy", "sweep = l\ngroup_sizes = 1,x", "'group_sizes'"),
    ("fig8_random_errors", "group_sizes = 2.5", "'group_sizes'"),
    ("fig7_greedy", "sweep = x", "unknown sweep 'x'"),
    ("fig6_hybrid", "seed = -4", "seed must be a non-negative integer, got -4"),
])
def test_cli_run_rejects_bad_greedy_study_parameter(tmp_path, capsys, experiment, lines,
                                                    needle):
    spec = tmp_path / "bad.spec"
    spec.write_text(f"experiment = {experiment}\n{lines}\n")
    out = tmp_path / "rows.csv"
    rc = cli_entry(["run", str(spec), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err
    assert not out.exists()


_K_LIMIT = "global search is limited to K <= 24, got {}"
_GROUP_SIZE = "group size must be >= 1, got {}"


@pytest.mark.parametrize("lines, message", [
    ("experiment = fig6_hybrid\nk_max = 25", _K_LIMIT.format(25)),
    ("experiment = fig7_greedy\nk_max = 25", _K_LIMIT.format(25)),
    ("experiment = fig7_greedy\nsweep = l\nk = 25", _K_LIMIT.format(25)),
    ("experiment = fig7_greedy\nsweep = l\nk = 10000000000", _K_LIMIT.format(10000000000)),
    ("experiment = fig8_random_errors\nk = 25", _K_LIMIT.format(25)),
    ("experiment = fig8_random_errors\nk = 10000000000", _K_LIMIT.format(10000000000)),
    ("experiment = fig7_greedy\nsweep = l\nk = -1", "node count must be >= 1, got -1"),
    ("experiment = fig8_random_errors\nk = 0", "node count must be >= 1, got 0"),
    ("experiment = fig6_hybrid\ngroup_size = 0", _GROUP_SIZE.format(0)),
    ("experiment = fig7_greedy\ngroup_sizes = 4,0", _GROUP_SIZE.format(0)),
    ("experiment = fig7_greedy\nsweep = l\ngroup_sizes = 2,-1", _GROUP_SIZE.format(-1)),
    ("experiment = fig8_random_errors\nk = 12\ngroup_sizes = 0", _GROUP_SIZE.format(0)),
    ("experiment = fig8_random_errors\ngroup_sizes =",
     "bad value for parameter 'group_sizes': ''"),
])
def test_cli_greedy_studies_check_k_before_drawing(tmp_path, capsys, monkeypatch, lines,
                                                   message):
    drawn = []
    monkeypatch.setattr(sim, "generate_instance", lambda *args, **kw: drawn.append(args))
    spec = tmp_path / "big.spec"
    spec.write_text(f"{lines}\n")
    out = tmp_path / "rows.csv"
    rc = cli_entry(["run", str(spec), "--out", str(out)])
    assert capsys.readouterr().err == f"error: {message}\n"
    assert rc == 1
    assert drawn == []
    assert not out.exists()


def test_run_experiment_rejects_unknown_format(tmp_path):
    spec = ex.ExperimentSpec("fig3_d_vs_k", {}, str(tmp_path / "rows.xml"))
    with pytest.raises(ValidationError, match="unknown format 'xml'"):
        ex.run_experiment(spec, seed=0, fmt="xml")
    assert not (tmp_path / "rows.xml").exists()


def test_write_rows_csv_refuses_empty_table(tmp_path):
    with pytest.raises(ValidationError, match="no rows"):
        ex.write_rows_csv(tmp_path / "empty.csv", [])
    assert not (tmp_path / "empty.csv").exists()


@pytest.mark.parametrize("name", ["fig6_hybrid", "fig7_greedy", "fig8_random_errors"])
def test_greedy_studies_reject_zero_instances(name):
    with pytest.raises(ValidationError, match="n_sim"):
        ex.run_experiment(ex.ExperimentSpec(name, {"n_sim": "0"}))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("name, params", [
    ("tables_limits", {}),
    ("crossover_roots", {"gamma_total": "0.5"}),
])
def test_json_output_is_strict(tmp_path, name, params):
    # non-finite floats are written as the CSV writes them, never as the
    # bare Infinity/NaN tokens that RFC 8259 parsers reject
    spec = ex.ExperimentSpec(name, params)
    text = ex.run_experiment(spec, seed=3, fmt="json",
                             out=str(tmp_path / "t.json")).read_text()
    rows = json.loads(text, parse_constant=_reject_constant)["rows"]
    csv_rows = _read_rows(ex.run_experiment(spec, seed=3, out=str(tmp_path / "t.csv")))
    non_finite = 0
    for row, csv_row in zip(rows, csv_rows, strict=True):
        for field, value in row.items():
            if isinstance(value, str) and value in ("inf", "-inf", "nan"):
                non_finite += 1
                assert csv_row[field] == value
    assert non_finite > 0


def test_cli_solve_json_is_strict(capsys):
    # the distortion of a search over these SNRs overflows to NaN (see the
    # overflow case below); the JSON writes it as the string "nan"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli_entry(["solve", "--algo", "global", "--gamma-ob", "1e200,5",
                        "--gamma-ch", "1e200,5", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["distortion"] == "nan"


def _fresh_process(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "sensefuse.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_global_search_overflow_output_unchanged():
    # SNRs above ~1e154 overflow the link terms (a known limit of the closed
    # forms); the exhaustive search's pick on the resulting NaNs stays as it was
    out = _fresh_process(["solve", "--algo", "global", "--gamma-ob", "1e200,5",
                          "--gamma-ch", "1e200,5"])
    assert out == "policy 11  D = nan  (4 evaluations)\n"


def test_cli_parser_reuse_leaks_no_defaults(capsys):
    # the parser is built once per process: a run after a run with other
    # flags must print what a fresh process prints
    model = ["--gamma-ob", "7,3,12,0.5", "--gamma-ch", "5,8,2,20"]
    calls = [
        ["solve", *model, "--group-size", "4", "--format", "json"],
        ["validate", *model, "--policy", "1010", "--trials", "1000", "--seed", "3"],
        ["solve", *model],
    ]
    for argv in calls:
        assert cli_entry(argv) == 0
        assert capsys.readouterr().out == _fresh_process(argv)
