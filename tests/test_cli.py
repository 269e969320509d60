"""CLI surface: every subcommand, file outputs, error paths."""

import argparse
import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import newmanlab
import newmanlab.cli
import newmanlab.poly
import newmanlab.sparsify
from newmanlab.cli import build_parser, main
from newmanlab.experiment import SUMMARY_COLUMNS, TRIAL_COLUMNS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSquare:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "square", "--poly", "0,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["square"] == [1, 0, 0, 2, 0, 0, 1]
        assert payload["polynomial"] == "0,3"
        assert payload["degree"] == 3

    def test_bitstring_input(self, capsys):
        code, out, _ = run(capsys, "square", "--poly", "111",
                           "--poly-format", "bitstring")
        assert code == 0
        assert json.loads(out)["square"] == [1, 2, 3, 2, 1]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "square", "--poly", "11",
                           "--poly-format", "bitstring", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["k,coefficient", "0,1", "1,2", "2,1"]

    def test_all_ones(self, capsys):
        code, out, _ = run(capsys, "square", "--all-ones", "2")
        assert json.loads(out)["square"] == [1, 2, 3, 2, 1]

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "003a9ee706d93a0ff7adabb9b8467eddcb7c890a449e9decb54d18eca2b9f1f2"),
        ("csv", "677b6cb467524de3bc9b3df50a987a1b8e43ae50f71caa688bb4bfbe6e746e4f"),
    ])
    def test_pinned_fft_square_bytes(self, capsys, fmt, digest):
        # 1 + x + ... + x**300 is squared by the FFT (l1**2 = 90601 terms of
        # pair work against 625 FFT points).
        code, out, _ = run(capsys, "square", "--all-ones", "300", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "sq.json"
        code, out, _ = run(capsys, "square", "--poly", "0,1", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["square"] == [1, 2, 1]

    def test_poly_file_input(self, capsys, tmp_path):
        source = tmp_path / "p.txt"
        source.write_text("0,2\n")
        code, out, _ = run(capsys, "square", "--poly-file", str(source))
        assert json.loads(out)["square"] == [1, 0, 2, 0, 1]

    def test_poly_file_skips_comments(self, capsys, tmp_path):
        source = tmp_path / "w.txt"
        source.write_text("# header\n0,1,3\n")
        code, out, _ = run(capsys, "ratio", "--poly-file", str(source))
        payload = json.loads(out)
        assert (code, payload["product_num"], payload["product_den"]) == (0, 2, 3)

    @pytest.mark.parametrize("text, found", [("0,1\n0,2\n", 2), ("# no polynomial\n\n", 0)])
    def test_poly_file_needs_one_line(self, capsys, tmp_path, text, found):
        source = tmp_path / "poly.txt"
        source.write_text(text)
        code, out, err = run(capsys, "ratio", "--poly-file", str(source))
        assert (code, out) == (1, "")
        assert f"{source}: expected one polynomial line, found {found}" in err

    def test_poly_file_parse_error_names_the_file_and_line(self, capsys, tmp_path):
        source = tmp_path / "poly.txt"
        source.write_text("# w\n0,x,3\n")
        code, out, err = run(capsys, "ratio", "--poly-file", str(source))
        assert (code, out) == (1, "")
        assert err.startswith(f"newman: error: {source}:2: bad exponent list '0,x,3'")

    def test_parse_error_is_clean(self, capsys):
        code, _, err = run(capsys, "square", "--poly", "110",
                           "--poly-format", "bitstring")
        assert code == 1
        assert "error" in err

    def test_uncertified_fft_is_clean(self, capsys, monkeypatch):
        monkeypatch.setattr(newmanlab.poly, "_fft_error_bound",
                            lambda l1, fft_length: newmanlab.poly._FFT_GUARD)
        code, out, err = run(capsys, "square", "--all-ones", "100")
        assert code == 1 and out == ""
        assert err.startswith("newman: error: FFT square of degree 100")
        assert "not certified exact" in err


class TestRatio:
    def test_flat_json_with_num_den(self, capsys):
        code, out, _ = run(capsys, "ratio", "--poly", "11",
                           "--poly-format", "bitstring")
        payload = json.loads(out)
        assert payload["ratio_num"] == 1 and payload["ratio_den"] == 2
        assert payload["product_num"] == 1 and payload["product_den"] == 2
        assert payload["trivial_bound_num"] == 1 and payload["trivial_bound_den"] == 3

    def test_csv_single_row(self, capsys):
        code, out, _ = run(capsys, "ratio", "--poly", "0,1", "--format", "csv")
        header, row = csv.reader(io.StringIO(out))
        assert len(row) == len(header)
        assert dict(zip(header, row))["polynomial"] == "0,1"

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "2d0458dd76fedb8971b384872fc366026174f6d1f2590de3131323f2dd9e90d2"),
        ("csv", "eb15bd75498ca04d0cd45da172f2bab6e947c96b104ba05aab3388b6461f1670"),
    ])
    def test_pinned_bytes(self, capsys, fmt, digest):
        code, out, _ = run(capsys, "ratio", "--all-ones", "12", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestChernoff:
    def test_epsilon_and_mean(self, capsys):
        code, out, _ = run(capsys, "chernoff", "--epsilon", "1", "--mean", "10")
        payload = json.loads(out)
        assert payload["c_epsilon"] == pytest.approx(0.3862943611198906)
        assert payload["tail_bound"]["raw"] == pytest.approx(0.04199, abs=5e-5)
        assert payload["tail_bound"]["clamped"] == payload["tail_bound"]["raw"]

    def test_rho_pair(self, capsys):
        code, out, _ = run(capsys, "chernoff", "--rho", "8/9", "--rho-prime", "0.95")
        payload = json.loads(out)
        assert payload["choice"]["epsilon"] == pytest.approx(0.02208, abs=1e-5)
        assert payload["epsilon"] == payload["choice"]["epsilon"]

    def test_bad_event_bound(self, capsys):
        code, out, _ = run(capsys, "chernoff", "--epsilon", "0.1", "--n", "100",
                           "--c0", "1", "--alpha-exponent", "1/10")
        payload = json.loads(out)
        assert payload["bad_event_E_bound"]["clamped"] == 1.0
        assert payload["bad_event_E_bound"]["raw"] == pytest.approx(1.473, abs=2e-3)

    def test_nothing_to_compute(self, capsys):
        code, _, err = run(capsys, "chernoff")
        assert code == 1 and "error" in err

    def test_lone_rho_rejected(self, capsys):
        code, _, err = run(capsys, "chernoff", "--rho", "1/2")
        assert code == 1

    def test_epsilon_beyond_the_rho_pair_rejected(self, capsys):
        # The same pair and epsilon that a thinning run refuses.
        thinning = ["--rho", "5/6", "--rho-prime", "1", "--epsilon", "0.3"]
        code, out, err = run(capsys, "chernoff", *thinning, "--mean", "12")
        assert code == 1 and out == ""
        assert err == "newman: error: epsilon amplifies rho beyond rho_prime\n"
        assert run(capsys, "sparsify", "--all-ones", "16", *thinning) == (1, "", err)

    def test_extreme_rho_pair(self, capsys):
        extreme = ["--rho", "1e-40", "--rho-prime", "1"]
        code, out, _ = run(capsys, "chernoff", *extreme)
        assert code == 0
        assert 0 < json.loads(out)["epsilon"] < 1
        code, _, _ = run(capsys, "sparsify", "--all-ones", "16", *extreme, "--trials", "1")
        assert code == 0

    def test_rho_pair_near_one_returns(self):
        # rho'/rho - 1 = 1e-9: choosing epsilon must stay quick this close to 1.
        code, out, err = fresh_process(["chernoff", "--rho", "999999999/1000000000",
                                        "--rho-prime", "1"])
        assert (code, err) == (0, "")
        assert json.loads(out)["epsilon"] == pytest.approx(1 / 3e9, rel=1e-6)

    def test_infinite_epsilon_rejected(self, capsys):
        code, out, err = run(capsys, "chernoff", "--epsilon", "inf", "--mean", "10")
        assert code == 1 and out == ""
        assert err.startswith("newman: error:") and "epsilon" in err

    def test_nan_mean_rejected(self, capsys):
        code, out, err = run(capsys, "chernoff", "--epsilon", "1", "--mean", "nan")
        assert code == 1 and out == ""
        assert err.startswith("newman: error:") and "mean" in err

    # SHA-256 of the JSON, pinned so that the rho-pair choice, the tail bound
    # and the low-mass bound keep every byte.
    @pytest.mark.parametrize("argv, digest", [
        (["--rho", "8/9", "--rho-prime", "0.95", "--n", "1024", "--c0", "1",
          "--alpha-exponent", "1/10"],
         "e7c5561b2a4dd378c8e86d019a079e72753c7da8fb3c6e94d84c7c5a2f991483"),
        (["--rho", "5/6", "--rho-prime", "1", "--epsilon", "0.05", "--mean", "12"],
         "f62ec01494078bc9ad41ee9f711c63b439d04524b437cb4bda6037e7cd70e56b"),
    ], ids=["rho-pair-low-mass", "rho-pair-given-epsilon-mean"])
    def test_pinned_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, "chernoff", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSparsify:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "sparsify", "--all-ones", "64", "--trials", "5",
                           "--rho", "8/9", "--rho-prime", "0.95", "--seed", "9")
        lines = out.splitlines()
        assert lines[0] == ",".join(TRIAL_COLUMNS)
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert int(first[2]) >= 0  # l1_q

    def test_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "sparsify", "--all-ones", "64", "--trials", "5",
            "--epsilon", "0.3", "--seed", "9", "--out", str(a))
        run(capsys, "sparsify", "--all-ones", "64", "--trials", "5",
            "--epsilon", "0.3", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sparsify", "--all-ones", "32", "--trials", "2",
                           "--epsilon", "0.3", "--format", "json")
        rows = json.loads(out)
        assert len(rows) == 2 and list(rows[0]) == TRIAL_COLUMNS

    def test_rows_match_the_campaign_trial_table(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        out_dir = tmp_path / "results"
        cfg.write_text(
            "family = all_ones\ndegree_ladder = 1024\ntrials_per_degree = 5\n"
            "rho = 8/9\nrho_prime = 19/20\nseed = 7\n"
            f"output_dir = {out_dir}\nformat = csv\n"
        )
        code, _, _ = run(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        code, out, _ = run(capsys, "sparsify", "--all-ones", "1024", "--rho", "8/9",
                           "--rho-prime", "19/20", "--trials", "5", "--seed", "7")
        assert code == 0
        assert out == (out_dir / "trials_degree_1024.csv").read_text()

    def test_epsilon_required(self, capsys):
        code, _, err = run(capsys, "sparsify", "--all-ones", "32")
        assert code == 1 and "epsilon" in err

    def test_negative_trials_rejected(self, capsys):
        code, out, err = run(capsys, "sparsify", "--all-ones", "16", "--epsilon", "0.3",
                             "--trials", "-3")
        assert code == 1 and out == "" and "--trials" in err

    def test_zero_trials_prints_the_header(self, capsys):
        code, out, _ = run(capsys, "sparsify", "--all-ones", "16", "--epsilon", "0.3",
                           "--trials", "0")
        assert code == 0 and out == ",".join(TRIAL_COLUMNS) + "\n"

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "e674d6cca972e2f89bc37913c93ae1496e3e5d69f7bba66791ffdd32ac91490f"),
        ("json", "01ac84f7fdfbec8f12a714decbe4425004bf078c72b99ff8f825335cc5d4430c"),
    ])
    def test_pinned_bytes(self, capsys, fmt, digest):
        code, out, _ = run(capsys, "sparsify", "--all-ones", "1024", "--rho", "8/9",
                           "--rho-prime", "0.95", "--trials", "40", "--seed", "42",
                           "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSearch:
    def test_stdout_json(self, capsys):
        code, out, _ = run(capsys, "search", "--min-degree", "1", "--max-degree", "4")
        payload = json.loads(out)
        assert payload["best"]["product_num"] == 1
        assert payload["best"]["product_den"] == 2
        degrees = [row["degree"] for row in payload["degree_table"]]
        assert degrees == [1, 2, 3, 4]

    def test_output_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "search"
        code, _, _ = run(capsys, "search", "--min-degree", "2", "--max-degree", "6",
                         "--out", str(out_dir))
        assert code == 0
        result = json.loads((out_dir / "search_result.json").read_text())
        table = (out_dir / "degree_table.csv").read_text().splitlines()
        assert table[0].startswith("degree,polynomial")
        assert len(table) == 6
        assert result["metadata"]["mode"] == "exhaustive"

    def test_degree_table_csv_reads_back_as_the_json_table(self, capsys, tmp_path):
        code, _, _ = run(capsys, "search", "--min-degree", "1", "--max-degree", "6",
                         "--out", str(tmp_path))
        assert code == 0
        result = json.loads((tmp_path / "search_result.json").read_text())
        with open(tmp_path / "degree_table.csv", newline="") as handle:
            header, *rows = csv.reader(handle)
        assert rows == [[str(row[c]) for c in header] for row in result["degree_table"]]

    def test_local_mode(self, capsys):
        code, out, _ = run(capsys, "search", "--min-degree", "6", "--max-degree", "6",
                           "--mode", "local_search", "--budget", "500", "--seed", "3")
        payload = json.loads(out)
        assert payload["metadata"]["mode"] == "local_search"

    def test_budget_refused_in_exhaustive_mode(self, capsys):
        code, out, err = run(capsys, "search", "--min-degree", "3", "--max-degree", "5",
                             "--budget", "1")
        assert code == 1 and out == ""
        assert "--budget applies only to --mode local_search" in err

    def test_local_mode_default_budget(self, capsys, monkeypatch):
        specs = []
        original = newmanlab.cli.local_search
        monkeypatch.setattr(newmanlab.cli, "local_search",
                            lambda spec: specs.append(spec) or original(spec))
        code, _, _ = run(capsys, "search", "--min-degree", "6", "--max-degree", "6",
                         "--mode", "local_search")
        assert code == 0
        assert specs[0].iteration_budget == 10_000

    # local_search runs budget // 4 steps in each of 4 restarts: a remainder
    # is dropped, and a budget below 4 runs no annealing step.
    @pytest.mark.parametrize("budget, rounded", [("7", "4"), ("3", "0")])
    def test_budget_rounds_down_to_a_multiple_of_four(self, capsys, budget, rounded):
        argv = ["search", "--min-degree", "20", "--max-degree", "21",
                "--mode", "local_search", "--seed", "4", "--budget"]
        code, out, _ = run(capsys, *argv, budget)
        assert code == 0
        assert run(capsys, *argv, rounded) == (0, out, "")

    def test_cap_error(self, capsys):
        code, _, err = run(capsys, "search", "--min-degree", "1",
                           "--max-degree", "29")
        assert code == 1 and "capped" in err

    # SHA-256 of search_result.json and degree_table.csv, pinned so that a
    # rewrite of the search loop must reproduce every byte of its output.
    @pytest.mark.parametrize("argv, json_digest, csv_digest", [
        (["--min-degree", "1", "--max-degree", "12"],
         "da013568f9fb61aff74a1e6137f00b31920fbca77975d4f577cb3c2c004f839c",
         "9fe2d6c5e4f3982ee97526a83ea58c5a8edacc3e7a06f07545a98c9c200391df"),
        # The min-ratio cases pin degree tables that a ranking by ratio gives
        # too: at a fixed degree, ratio and product order candidates alike.
        (["--min-degree", "1", "--max-degree", "8", "--floor", "1/2"],
         "366c0944a48c6000c38d5136fdf6e31fb85ad43ffbe4ae15e9090a4c955cc12c",
         "29cc91369f52d91e4083d7e660e2b58a57825b79421b14916e41f6d2856093f5"),
        (["--min-degree", "256", "--max-degree", "256", "--mode", "local_search",
          "--floor", "1/2", "--budget", "2000", "--seed", "7"],
         "d1d48c82296c14a370f0bfc1b1cf78bc79d6cdb0b5c9e9cc6b57e8ed9ca16103",
         "b3afb13786b70da5f5db88d22cb296aa07030b082f3831f21676706d006f4c2c"),
        # The local pass of the benchmark's `search` workload, and a deeper
        # exhaustive pass than its own under a high floor.
        (["--min-degree", "1024", "--max-degree", "1024", "--mode", "local_search",
          "--floor", "1/2", "--budget", "300", "--seed", "3"],
         "b0b70229c5b502fbaa4708af8db12e9a98ab95d4e4841ba0cbc9a952bf5f4218",
         "4b8a0de5f11af9342ce912276526e00663b7527de809010adf0bd4e052a1006b"),
        (["--min-degree", "1", "--max-degree", "14", "--floor", "4/5"],
         "09c003d86302b2013491c0705578ce76745658ab9f417b06fb994dcb7b996f9c",
         "99ed0ae26ae7700fa7ba576ca8c7748cc14c59561fa063d7e6be243d9ac1aaf7"),
        # Several degrees under a high floor: swaps, density rejections (about
        # a third of the steps) and the upkeep of the walk's index lists.
        (["--min-degree", "64", "--max-degree", "66", "--mode", "local_search",
          "--floor", "4/5", "--budget", "4000", "--seed", "11"],
         "f71979c4439c5854ec0a6e9595971663048a48ad49dcab457f78d915d41969bc",
         "bcf06811c510487dd8d086a0efc9ce0958ed1e9bdcc118dea2ff0cf1ec3bd9a8"),
    ], ids=["exhaustive-1-12", "exhaustive-min-ratio-floor-half", "local-256",
            "local-1024", "exhaustive-1-14-min-ratio-floor-four-fifths",
            "local-64-66-floor-four-fifths"])
    def test_pinned_output_bytes(self, capsys, tmp_path, argv, json_digest, csv_digest):
        code, _, _ = run(capsys, "search", *argv, "--out", str(tmp_path))
        assert code == 0
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("search_result.json", "degree_table.csv")]
        assert digests == [json_digest, csv_digest]


class TestExperiment:
    def test_end_to_end(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        out_dir = tmp_path / "results"
        cfg.write_text(
            "family = all_ones\ndegree_ladder = 16, 32\ntrials_per_degree = 10\n"
            "rho = 8/9\nrho_prime = 0.95\nseed = 5\n"
            f"output_dir = {out_dir}\nformat = csv\n"
        )
        code, out, _ = run(capsys, "experiment", "--config", str(cfg))
        assert code == 0
        assert "manifest.json" in out
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == ",".join(SUMMARY_COLUMNS)
        assert len(summary) == 3
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 5

    def test_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "family = all_ones\ndegree_ladder = 16\ntrials_per_degree = 10\n"
            "epsilon = 0.3\nseed = 5\noutput_dir = ignored\nformat = csv\n"
        )
        out_dir = tmp_path / "o"
        code, _, _ = run(capsys, "experiment", "--config", str(cfg),
                         "--out", str(out_dir), "--trials", "4", "--seed", "6",
                         "--workers", "2")
        assert code == 0
        trials = (out_dir / "trials_degree_16.csv").read_text().splitlines()
        assert len(trials) == 5
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["master_seed"] == 6

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_rejects_fewer_than_one_worker(self, capsys, tmp_path, workers):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("family = all_ones\ndegree_ladder = 16\ntrials_per_degree = 4\n"
                       f"epsilon = 0.3\noutput_dir = {tmp_path / 'o'}\n")
        code, _, err = run(capsys, "experiment", "--config", str(cfg),
                           "--workers", workers)
        assert code == 1
        assert err == f"newman: error: workers must be at least 1, got {workers}\n"
        assert not (tmp_path / "o").exists()

    def test_chooses_epsilon_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        choose = newmanlab.sparsify.choose_epsilon
        monkeypatch.setattr(newmanlab.sparsify, "choose_epsilon",
                            lambda *a: calls.append(a) or choose(*a))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("family = all_ones\ndegree_ladder = 16\ntrials_per_degree = 2\n"
                       "rho = 8/9\nrho_prime = 19/20\n")
        code, _, _ = run(capsys, "experiment", "--config", str(cfg), "--seed", "3",
                         "--out", str(tmp_path / "o"))
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("ladder", ["0", "-5, 8"])
    def test_rejects_ladder_degrees_below_one(self, capsys, tmp_path, ladder):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"family = all_ones\ndegree_ladder = {ladder}\n"
                       "trials_per_degree = 2\nepsilon = 0.3\n")
        code, _, err = run(capsys, "experiment", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith(f"newman: error: {cfg}: degree_ladder ")

    def test_zero_denominator_is_a_clean_error(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("family = all_ones\ndegree_ladder = 16\ntrials_per_degree = 4\n"
                       "rho = 1/0\nrho_prime = 19/20\n")
        code, _, err = run(capsys, "experiment", "--config", str(cfg))
        assert code == 1
        assert err.startswith(f"newman: error: {cfg}: bad rho = '1/0'")

    def test_bad_override_names_no_file(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("family = all_ones\ndegree_ladder = 16\ntrials_per_degree = 4\n"
                       "epsilon = 0.3\n")
        code, _, err = run(capsys, "experiment", "--config", str(cfg), "--seed", "-1",
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == "newman: error: seed must be a 64-bit unsigned integer\n"

    def test_bad_file_value_names_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("family = all_ones\ndegree_ladder = 16\ntrials_per_degree = 4\n"
                       "epsilon = 0.3\nseed = -1\n")
        code, _, err = run(capsys, "experiment", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == f"newman: error: {cfg}: seed must be a 64-bit unsigned integer\n"

    def test_bad_family_line_names_the_file_and_line(self, capsys, tmp_path):
        family = tmp_path / "family.txt"
        family.write_text("# comment\n0,x,8\n0,3,8\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"family = from_file\nfamily_file = {family}\ndegree_ladder = 8\n"
                       "trials_per_degree = 2\nepsilon = 0.3\n")
        code, _, err = run(capsys, "experiment", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith(f"newman: error: {family}:2: bad exponent list '0,x,8': ")
        assert err.count("\n") == 1

    def test_missing_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "experiment", "--config",
                           str(tmp_path / "nope.cfg"))
        assert code == 1


class TestOutOfMemory:
    # A size too large for memory must end in one error line, not a numpy
    # traceback; the callee raises instead of allocating for real.
    @pytest.mark.parametrize("callee, argv, message, tail", [
        ("metrics", ["ratio", "--all-ones", "3000000000"],
         "Unable to allocate 22.4 GiB for an array", ": Unable to allocate 22.4 GiB for an array"),
        ("metrics", ["sparsify", "--all-ones", "300000000", "--epsilon", "0.3", "--trials", "1"],
         "Unable to allocate 22.4 GiB for an array", ": Unable to allocate 22.4 GiB for an array"),
        # pocketfft raises MemoryError() with no message.
        ("metrics", ["ratio", "--all-ones", "3000000000"], "", " in ratio"),
    ], ids=["ratio", "sparsify", "ratio-bare"])
    def test_is_a_clean_error(self, capsys, monkeypatch, callee, argv, message, tail):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(newmanlab.cli, callee, exhausted)
        monkeypatch.setattr(newmanlab.poly.NewmanPolynomial, "all_ones",
                            classmethod(lambda cls, degree: None))
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"newman: error: out of memory{tail}\n"


def fresh_process(argv):
    """(exit code, stdout, stderr) of `python -m newmanlab.cli argv` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(newmanlab.__file__))
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    # The timeout turns a hang into a failure: tier-1 runs without pytest-timeout.
    done = subprocess.run([sys.executable, "-m", "newmanlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)
    return done.returncode, done.stdout, done.stderr


def run_or_exit(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"newman {newmanlab.__version__}\n"

    def test_one_parser_serves_every_call(self, capsys):
        assert build_parser() is build_parser()
        search = ["search", "--min-degree", "30", "--max-degree", "31",
                  "--mode", "local_search", "--budget", "400", "--seed", "5"]
        calls = [
            search,
            ["square", "--all-ones", "6", "--format", "csv"],
            ["search", "--min-degree", "1", "--mode", "local_search"],  # argparse: exit 2
            search,
        ]
        results = [run_or_exit(capsys, argv) for argv in calls]
        assert [code for code, _, _ in results] == [0, 0, 2, 0]
        assert "required: --max-degree" in results[2][2]
        for argv, result in zip(calls, results):
            assert result == fresh_process(argv)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    # Each subcommand takes only the flags it reads.
    @pytest.mark.parametrize("argv", [
        ["search", "--min-degree", "1", "--max-degree", "2", "--format", "csv"],
        ["chernoff", "--epsilon", "0.1", "--format", "csv"],
        ["square", "--all-ones", "2", "--seed", "1"],
        ["ratio", "--all-ones", "2", "--seed", "1"],
        ["chernoff", "--epsilon", "0.1", "--seed", "1"],
    ], ids=["search-format", "chernoff-format", "square-seed", "ratio-seed", "chernoff-seed"])
    def test_unread_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["search", "--min-degree", "1", "--max-degree", "2", "--floor", "1/0"],
        ["chernoff", "--epsilon", "0.1", "--n", "10", "--c0", "1/0"],
    ], ids=["search-floor", "chernoff-c0"])
    def test_bad_rational_is_a_usage_error(self, capsys, argv):
        code, out, err = run_or_exit(capsys, argv)
        assert (code, out) == (2, "")
        assert "not a rational: '1/0'" in err

    def test_poly_sources_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["square", "--poly", "0,1", "--all-ones", "4"])


def test_readme_command_line_examples_run(capsys, monkeypatch, tmp_path):
    """Each example of the README's `## Command line` runs in a fresh directory
    and exits 0, with its campaign config written to `campaign.cfg` and the
    documented `experiment` overrides `--trials 1 --out ...`; every
    subcommand has an example."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    campaign = section.split("A campaign config file looks like:\n\n```\n", 1)[1].split("```", 1)[0]
    (tmp_path / "campaign.cfg").write_text(campaign)
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in commands.splitlines():
        argv = shlex.split(line, comments=True)
        if not argv:
            continue
        assert argv[0] == "newman", line
        if argv[1] == "experiment":
            argv += ["--trials", "1", "--out", "campaign_out"]
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (line, err)
        ran.append(argv[1])
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert set(ran) == set(subparsers.choices)
