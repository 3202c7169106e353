import json
import math

import numpy as np
import pytest

from hypercollapse import (collapse_all, from_binomial_family, sample_poisson,
                           stream)
from hypercollapse.cli import main
from hypercollapse.serialize import format_float


SMALL_SWEEP = {"p": 0.1, "alpha": 0.5, "N_values": [200], "replicas": 3, "master_seed": 1}


def beta_flag(series) -> str:
    return ",".join(format_float(c) for c in series.coeffs)


class TestAnalyze:
    def test_subcritical_family_summary(self, tmp_path, capsys):
        out = tmp_path / "analysis"
        code = main(["analyze", "--beta", beta_flag(from_binomial_family(1185.0)),
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.015 <= summary["z_star"] <= 0.025
        assert summary["zeta"] == []
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0] == "t,x1,x2,x3,f,sigma_sq"
        assert len(curve) == 1 + summary["grid"]

    def test_supercritical_overlap_report(self, tmp_path):
        out = tmp_path / "analysis"
        assert main(["analyze", "--beta", beta_flag(from_binomial_family(1200.0)),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["z_star"] == 1.0
        assert abs(summary["avg_patch_overlap"] - 5792.0) / 5792.0 < 0.01

    def test_patches_only_threshold(self, tmp_path):
        out = tmp_path / "analysis"
        assert main(["analyze", "--beta", f"0,{format_float(math.log(2.0))}",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["z_star"] == pytest.approx(0.5, abs=1e-10)

    def test_non_finite_curve_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "analysis"
        assert main(["analyze", "--beta", "0,1,1e308", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / "curve.csv").exists()

    def test_horizon_beyond_one_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "analysis"
        assert main(["analyze", "--beta", "0,1", "--t-max", "2", "--out", str(out)]) == 1
        assert "t_max must be in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_command_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["analyze", "--p", "0.1", "--alpha", "0.5", "--grid", "1",
                     "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_without_model(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--out", "x"])
        assert exc.value.code == 2

    def test_usage_error_with_both_models(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--beta", "0,1", "--p", "0.1", "--alpha", "0.5",
                  "--out", "x"])
        assert exc.value.code == 2


class TestSampleCollapse:
    def test_round_trip_matches_in_memory(self, tmp_path):
        hpath = tmp_path / "h.hgx"
        jpath = tmp_path / "out.json"
        assert main(["sample", "--n", "100", "--beta", "0,1,0", "--seed", "7",
                     "--out", str(hpath)]) == 0
        assert main(["collapse", str(hpath), "--seed", "3",
                     "--out", str(jpath)]) == 0
        doc = json.loads(jpath.read_text())

        from hypercollapse import BetaSeries
        h = sample_poisson(100, BetaSeries((0.0, 1.0, 0.0)), stream(7))
        out = collapse_all(h, stream(3))
        assert doc["identified"] == out.identified
        assert doc["identified_count"] == len(out.identified)
        assert doc["final_debris"] == out.stable.stats().debris
        assert doc["identifiable_edge_count"] == out.identifiable_edge_count

        # byte-identical on a second run
        jpath2 = tmp_path / "out2.json"
        assert main(["collapse", str(hpath), "--seed", "3",
                     "--out", str(jpath2)]) == 0
        assert jpath.read_bytes() == jpath2.read_bytes()

    def test_patches_only_identified_fraction(self, tmp_path):
        # fraction of vertices carrying a patch: 1 - exp(-1) for b1 = 1
        hpath = tmp_path / "h.hgx"
        jpath = tmp_path / "out.json"
        assert main(["sample", "--n", "2000", "--beta", "0,1", "--seed", "11",
                     "--out", str(hpath)]) == 0
        assert main(["collapse", str(hpath), "--seed", "1",
                     "--out", str(jpath)]) == 0
        doc = json.loads(jpath.read_text())
        assert abs(doc["identified_frac"] - (1.0 - math.exp(-1.0))) < 0.05

    @pytest.mark.parametrize("text, lineno", [
        ('{"N": 2.7}\n[0]\n', 1),
        ('{"N": true}\n', 1),
        ('{"N": "2"}\n', 1),
        ('[0]\n', 1),
        ('{"N": 2}\n[0]\n[0.5]\n', 3),
        ('{"N": 2}\n[1.9, 0]\n', 2),
        ('{"N": 3}\n["2"]\n', 2),
        ('{"N": 3}\n[false]\n', 2),
        ('{"N": 3}\n[[0]]\n', 2),
        ('{"N": 3}\n{"0": 1}\n', 2),
        ('{"N": 3}\n[0,\n', 2),
        ('{"N": 3}\n\n[0, 0]\n', 3),
        ('{"N": 3}\n[3]\n', 2),
        ('{"N": 9223372036854775808}\n[0]\n', 1),  # 2**63: a count past int64
    ])
    def test_malformed_input_is_runtime_error(self, tmp_path, capsys, text, lineno):
        hpath = tmp_path / "h.hgx"
        hpath.write_text(text, encoding="utf-8")
        out = tmp_path / "out" / "x.json"
        assert main(["collapse", str(hpath), "--out", str(out)]) == 1
        assert f"error: {hpath}, line {lineno}: " in capsys.readouterr().err
        assert not out.parent.exists()

    def test_sample_needs_a_vertex_before_the_degree_check(self, tmp_path, capsys):
        out = tmp_path / "h.hgx"
        assert main(["sample", "--n", "0", "--p", "0.1", "--alpha", "0.5",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: need at least one vertex\n"
        assert not out.exists()

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = main(["collapse", str(tmp_path / "nope.hgx"),
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestChain:
    def test_result_csv_and_reproducibility(self, tmp_path):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        traj = tmp_path / "traj.csv"
        args = ["chain", "--n", "500", "--p", "0.1", "--alpha", "0.5",
                "--seed", "21", "--replicas", "8"]
        assert main(args + ["--out", str(out1), "--trajectory", str(traj)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "replica,seed,v_star_frac,debris_frac,stop_step"
        assert len(lines) == 9
        tlines = traj.read_text().splitlines()
        assert tlines[0] == "n,Y,Z"
        first = tlines[1].split(",")
        assert first[0] == "0"
        # trajectory belongs to replica 0 of the result csv
        stop = int(lines[1].split(",")[4])
        assert len(tlines) == stop + 2

    def test_writes_into_a_new_directory(self, tmp_path):
        out = tmp_path / "new" / "sub" / "r.csv"
        traj = tmp_path / "other" / "t.csv"
        assert main(["chain", "--n", "200", "--p", "0.1", "--alpha", "0.5",
                     "--out", str(out), "--trajectory", str(traj)]) == 0
        assert out.read_text().startswith("replica,")
        assert traj.read_text().startswith("n,Y,Z\n")

    def test_degenerate_model_is_runtime_error(self, tmp_path, capsys):
        # without size-1 edges every replica absorbs at once; the sweep
        # layer rejects the configuration outright
        out = tmp_path / "r.csv"
        assert main(["chain", "--n", "100", "--beta", "0,0", "--seed", "1",
                     "--replicas", "3", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_threads_must_be_positive(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["chain", "--n", "100", "--p", "0.1", "--alpha", "0.5",
                     "--threads", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: workers must be >= 1\n"
        assert not out.exists()


class TestSweep:
    def test_config_driven_outputs(self, tmp_path):
        config = {
            "p": 0.1, "alpha": 0.5,
            "N_values": [200, 400],
            "replicas": 5,
            "master_seed": 99,
            "delta": 0.2,
            "record_trajectory": True,
            "outputs": {"results_csv": "res.csv", "aggregates_json": "agg.json"},
        }
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cpath), "--out", str(out)]) == 0
        lines = (out / "res.csv").read_text().splitlines()
        assert lines[0] == "N,replica,seed,v_star_frac,debris_frac,stop_step"
        assert len(lines) == 11
        agg = json.loads((out / "agg.json").read_text())
        assert [a["N"] for a in agg] == [200, 400]
        for row in agg:
            assert set(row) == {"N", "mean_v", "var_v", "mean_debris", "dev_freq"}
            assert row["dev_freq"] is not None

        # identical bytes on rerun
        out2 = tmp_path / "sweep2"
        assert main(["sweep", str(cpath), "--out", str(out2)]) == 0
        assert (out / "res.csv").read_bytes() == (out2 / "res.csv").read_bytes()
        assert (out / "agg.json").read_bytes() == (out2 / "agg.json").read_bytes()

    def test_delta_alone_measures_deviations(self, tmp_path):
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps({"p": 0.1, "alpha": 0.5, "N_values": [200],
                                     "replicas": 3, "master_seed": 1, "delta": 0.05}))
        assert main(["sweep", str(cpath), "--out", str(tmp_path)]) == 0
        agg = json.loads((tmp_path / "aggregates.json").read_text())
        assert agg[0]["dev_freq"] is not None

    def test_bad_config_is_runtime_error(self, tmp_path, capsys):
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps({"replicas": 2}))
        assert main(["sweep", str(cpath), "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("outputs, written", [
        (None, ("results.csv", "aggregates.json")),
        ({"results_csv": None, "aggregates_json": "agg.json"}, ("results.csv", "agg.json")),
    ])
    def test_null_outputs_count_as_absent(self, tmp_path, outputs, written):
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps({**SMALL_SWEEP, "outputs": outputs}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cpath), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(written)

    def test_an_output_name_of_255_bytes_is_written(self, tmp_path):
        name = "r" * 251 + ".csv"
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps({**SMALL_SWEEP, "outputs": {"results_csv": name}}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cpath), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([name, "aggregates.json"])

    @pytest.mark.parametrize("doc, message", [
        ({**SMALL_SWEEP, "deltaa": 0.05}, "unknown config keys ['deltaa']"),
        ({**SMALL_SWEEP, "N_values": [200.7]}, "N_values must be a whole number, got 200.7"),
        ({**SMALL_SWEEP, "replicas": 2.9}, "replicas must be a whole number, got 2.9"),
        ([SMALL_SWEEP], "config must be a JSON object, got list"),
        ({**SMALL_SWEEP, "outputs": {"result_csv": "mine.csv"}},
         "unknown outputs keys ['result_csv']"),
        ({**SMALL_SWEEP, "outputs": {"results_csv": 5}},
         "outputs results_csv must be a file name, got 5"),
        ({**SMALL_SWEEP, "outputs": {"results_csv": ""}},
         "outputs results_csv must be a file name, got ''"),
        ({**SMALL_SWEEP, "outputs": {"aggregates_json": ".."}},
         "outputs aggregates_json must be a file name, got '..'"),
        ({**SMALL_SWEEP, "outputs": {"results_csv": "sub/r.csv"}},
         "outputs results_csv must be a file name, got 'sub/r.csv'"),
        ({**SMALL_SWEEP, "outputs": {"results_csv": "/no/such/dir/r.csv"}},
         "outputs results_csv must be a file name, got '/no/such/dir/r.csv'"),
        ({**SMALL_SWEEP, "outputs": {"results_csv": "x", "aggregates_json": "x"}},
         "outputs must name different files, got "
         "{'results_csv': 'x', 'aggregates_json': 'x'}"),
        # one byte more than a file name holds: refused before the sweep runs
        ({**SMALL_SWEEP, "outputs": {"results_csv": "r" * 252 + ".csv"}},
         f"outputs results_csv must be a file name, got '{'r' * 252}.csv'"),
    ])
    def test_config_mistakes_are_runtime_errors(self, tmp_path, capsys, doc, message):
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(doc))
        out = tmp_path / "sweep"
        assert main(["sweep", str(cpath), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestCritical:
    def test_family_bracketing(self, tmp_path):
        out = tmp_path / "crit.json"
        assert main(["critical", "--alpha-lo", "1185", "--alpha-hi", "1200",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert 1185.0 < doc["alpha_c"] < 1200.0
        assert doc["zeta"] == pytest.approx([doc["zeta0"]], abs=1e-7)
        assert doc["z_star"] == 1.0

    def test_bad_bracket_is_runtime_error(self, tmp_path, capsys):
        assert main(["critical", "--alpha-lo", "1100", "--alpha-hi", "1185",
                     "--out", str(tmp_path / "c.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestZdist:
    def test_single_tangency_half_mass(self, tmp_path):
        out = tmp_path / "z.csv"
        assert main(["zdist", "--z-star", "0.9", "--zeta", "0.25",
                     "--seed", "13", "--replicas", "10000",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value,count,frac"
        rows = {float(r.split(",")[0]): float(r.split(",")[2]) for r in lines[1:]}
        assert abs(rows[0.25] - 0.5) < 0.02
        assert abs(rows[0.9] - 0.5) < 0.02

    def test_empty_zeta_all_mass_at_threshold(self, tmp_path):
        out = tmp_path / "z.csv"
        assert main(["zdist", "--z-star", "0.4", "--seed", "1",
                     "--replicas", "500", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "0.40000000000000002,500,1"

    @pytest.mark.parametrize("flags", [
        ["--z-star", "0.5", "--zeta", "0.5"],
        ["--z-star", "0.9", "--zeta", "0.25,0.25"],
        ["--z-star", "0.9", "--zeta", "0.95"],
        ["--z-star", "0.9", "--zeta", "1.0"],
        ["--z-star", "0.9", "--zeta=-0.5"],
        ["--z-star", "0.9", "--zeta", "abc"],
        ["--z-star", "nan"],
        ["--z-star", "0.9", "--replicas", "0"],
    ])
    def test_bad_hand_entered_structure_is_usage_error(self, tmp_path, flags):
        out = tmp_path / "z.csv"
        with pytest.raises(SystemExit) as exc:
            main(["zdist", *flags, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_zeta_without_z_star_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "z.csv"
        with pytest.raises(SystemExit) as exc:
            main(["zdist", "--p", "0.1", "--alpha", "0.5", "--zeta", "0.3",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--zeta needs --z-star" in capsys.readouterr().err
        assert not out.exists()

    def test_model_flags_derive_the_structure(self, tmp_path):
        # no tangencies for the graph model, so all mass sits at z_star
        out = tmp_path / "z.csv"
        assert main(["zdist", "--p", "0.1", "--alpha", "0.5", "--seed", "2",
                     "--replicas", "200", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        value, count, frac = lines[1].split(",")
        assert abs(float(value) - 0.1756856662015595) < 1e-9
        assert (count, frac) == ("200", "1")
