"""Campaign runner: aggregation consistency, determinism, file outputs."""

import hashlib
import json
import os
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from newmanlab import experiment
from newmanlab.concentration import bad_event_E_bound, choose_epsilon
from newmanlab.experiment import (
    MEAN_PROXY_DEN,
    SUMMARY_COLUMNS,
    TRIAL_COLUMNS,
    CampaignConfig,
    emit_results,
    parse_campaign_file,
    record_from_trial,
    run_campaign,
    trial_table_text,
)
from newmanlab.poly import NewmanPolynomial
from newmanlab.sparsify import SparsifyConfig, TrialRecord, sample

def small_config(tmp_path, **overrides) -> CampaignConfig:
    base = dict(
        family="all_ones",
        degree_ladder=(32, 64),
        trials_per_degree=25,
        rho=Fraction(8, 9),
        rho_prime=Fraction(19, 20),
        seed=20080613,
        output_dir=str(tmp_path / "out"),
        format="csv",
    )
    base.update(overrides)
    return CampaignConfig(**base)


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match=r"^family must be one of \('all_ones', 'from_file'\)$"):
            small_config(tmp_path, family="fibonacci")
        with pytest.raises(ValueError):
            small_config(tmp_path, degree_ladder=(64, 32))
        with pytest.raises(ValueError):
            small_config(tmp_path, degree_ladder=(32, 32))
        with pytest.raises(ValueError):
            small_config(tmp_path, trials_per_degree=0)
        with pytest.raises(ValueError):
            small_config(tmp_path, format="parquet")
        with pytest.raises(ValueError):
            small_config(tmp_path, family="from_file")  # missing file

    def test_search_best_family_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            small_config(tmp_path, family="search_best")

    def test_hash_ignores_output_dir(self, tmp_path):
        a = small_config(tmp_path)
        b = small_config(tmp_path, output_dir=str(tmp_path / "elsewhere"))
        assert a.sha256() == b.sha256()

    def test_hash_tracks_seed(self, tmp_path):
        assert small_config(tmp_path).sha256() != small_config(tmp_path, seed=1).sha256()

    # SHA-256 of four configs, pinned so that a change to how a config is
    # rendered for hashing shows up as a change to these digests.
    @pytest.mark.parametrize("overrides, digest", [
        (dict(epsilon=0.3, rho=None, rho_prime=None),
         "d2dd4795da38039447c27cb6911c249a7b8660d94c89b60df42346a78f8979c2"),
        (dict(),
         "e8bae5e3c364c330baef9d5ba328b2a2e5b2bfa0aee5246c6fd1778a93c0f384"),
        (dict(epsilon=0.02),
         "cb2c5918e239981da39a783f64099f63a406f040b7fb23292c6083f5c136bb61"),
        (dict(family="from_file", family_file="family.txt", degree_ladder=(8, 16),
              format="json"),
         "22cb4a15fb63717f85ce844d8fb677ef9cf2bdbb487bcc8ff30bc7fdb418be84"),
    ], ids=["epsilon-given", "epsilon-derived", "both-given", "from-file-json"])
    def test_hash_is_pinned(self, tmp_path, overrides, digest):
        assert small_config(tmp_path, **overrides).sha256() == digest

    def test_subclasses_the_thinning_config(self):
        assert issubclass(CampaignConfig, SparsifyConfig)

    @pytest.mark.parametrize("thinning", [
        dict(rho=Fraction(8, 9), rho_prime=Fraction(19, 20), seed=20080613),
        dict(epsilon=0.3, rho=None, rho_prime=None, seed=5),
    ], ids=["rho-pair", "epsilon-given"])
    def test_samples_like_the_equivalent_thinning_config(self, tmp_path, thinning):
        cfg = small_config(tmp_path, **thinning)
        twin = SparsifyConfig(**thinning)
        assert cfg.epsilon == twin.epsilon
        p = NewmanPolynomial.all_ones(64)
        for t in range(8):
            ours, theirs = sample(p, cfg, t), sample(p, twin, t)
            assert ours == theirs
            assert (ours.mask.bits == theirs.mask.bits).all()

    def test_derived_epsilon_is_hashed_as_null(self, tmp_path):
        cfg = small_config(tmp_path)
        assert cfg.epsilon == SparsifyConfig(rho=Fraction(8, 9), rho_prime=Fraction(19, 20)).epsilon
        assert isinstance(cfg.epsilon, float)
        assert cfg.canonical_dict()["epsilon"] is None

    @pytest.mark.parametrize("made, fresh", [
        (lambda path: replace(small_config(path), seed=2), lambda path: small_config(path, seed=2)),
        (lambda path: small_config(path, epsilon=choose_epsilon(Fraction(8, 9), Fraction(19, 20))),
         small_config),
    ], ids=["replaced-seed", "derived-epsilon-given"])
    def test_equal_configs_have_equal_digests(self, tmp_path, made, fresh):
        made, fresh = made(tmp_path), fresh(tmp_path)
        assert made == fresh
        assert made.canonical_dict() == fresh.canonical_dict()
        assert made.sha256() == fresh.sha256()

    def test_given_epsilon_round_trips(self, tmp_path):
        cfg = small_config(tmp_path, epsilon=0.3, rho=None, rho_prime=None)
        assert cfg.epsilon == 0.3
        assert float(cfg.canonical_dict()["epsilon"]) == 0.3

    def test_parse_file_reads_back_every_field(self, tmp_path):
        cfg = CampaignConfig(
            family="from_file", degree_ladder=(8, 16), trials_per_degree=3,
            alpha_exponent=Fraction(1, 5), epsilon=0.02, rho=Fraction(8, 9),
            rho_prime=Fraction(19, 20), c0=Fraction(1, 2), seed=9,
            output_dir=str(tmp_path / "out"), format="json", family_file="family.txt",
        )

        def text(value):
            return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)

        path = tmp_path / "every.cfg"
        path.write_text("".join(f"{f.name} = {text(getattr(cfg, f.name))}\n"
                                for f in fields(CampaignConfig)))
        assert parse_campaign_file(str(path)) == cfg

    def test_parse_file_round_trip(self, tmp_path):
        text = """
# demo campaign
family = all_ones
degree_ladder = 32, 64
trials_per_degree = 25
alpha_exponent = 1/10
rho = 8/9
rho_prime = 0.95
c0 = 1
seed = 20080613
output_dir = {out}
format = csv
""".format(out=tmp_path / "out")
        path = tmp_path / "campaign.cfg"
        path.write_text(text)
        cfg = parse_campaign_file(str(path))
        assert cfg.degree_ladder == (32, 64)
        assert cfg.rho == Fraction(8, 9)
        assert cfg.rho_prime == Fraction(19, 20)
        assert cfg.alpha_exponent == Fraction(1, 10)
        assert cfg.sha256() == small_config(tmp_path).sha256()

    def test_parse_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("family = all_ones\ndegree_ladder = 8\n"
                        "trials_per_degree = 1\nworkers = 4\n")
        with pytest.raises(ValueError):
            parse_campaign_file(str(path))

    def test_parse_file_rejects_repeated_keys(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("family = all_ones\ndegree_ladder = 8\n"
                        "trials_per_degree = 1\nseed = 1\nseed = 2\n")
        with pytest.raises(ValueError, match=r"dup\.cfg:5: duplicate key 'seed'"):
            parse_campaign_file(str(path))

    # `where` follows the file name: the line for a malformed line, else nothing.
    @pytest.mark.parametrize("lines, where, message", [
        ("", "", "epsilon must be given"),
        ("epsilon = 0.3\nalpha_exponent = 2\n", "", "alpha_exponent must lie in"),
        ("epsilon = 0.3\nseed = -1\n", "", "seed must be a 64-bit"),
        ("epsilon 0.3\n", ":4", "expected key = value"),
    ], ids=["no-epsilon-no-rho-pair", "alpha-exponent-2", "negative-seed", "no-equals-sign"])
    def test_parse_file_rejects_bad_thinning_parameters(self, tmp_path, lines, where, message):
        path = tmp_path / "thin.cfg"
        path.write_text("family = all_ones\ndegree_ladder = 8\ntrials_per_degree = 1\n" + lines)
        with pytest.raises(ValueError, match=rf"thin\.cfg{where}: {message}"):
            parse_campaign_file(str(path))

    @pytest.mark.parametrize("key, value", [
        ("rho", "1/0"), ("rho_prime", "1/0"), ("alpha_exponent", "1/0"), ("c0", "1/0"),
        ("degree_ladder", "8, x"),
    ])
    def test_parse_file_names_the_file_and_key_of_a_bad_value(self, tmp_path, key, value):
        values = {"family": "all_ones", "degree_ladder": "8", "trials_per_degree": "1",
                  "epsilon": "0.3", key: value}
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.raises(ValueError, match=rf"bad\.cfg: bad {key} = "):
            parse_campaign_file(str(path))

    def test_parse_file_overrides_replace_file_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("family = all_ones\ndegree_ladder = 8\ntrials_per_degree = 1\n"
                        "epsilon = 0.3\nseed = 1\n")
        cfg = parse_campaign_file(str(path), seed=2, trials_per_degree=3)
        assert (cfg.seed, cfg.trials_per_degree) == (2, 3)
        # A required key must be in the file itself, even when overridden.
        path.write_text("family = all_ones\ndegree_ladder = 8\nepsilon = 0.3\n")
        with pytest.raises(ValueError, match="config needs trials_per_degree"):
            parse_campaign_file(str(path), trials_per_degree=3)

    def test_parse_file_requires_core_keys(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("family = all_ones\n")
        with pytest.raises(ValueError):
            parse_campaign_file(str(path))


class TestRun:
    def test_counts_and_frequencies(self, tmp_path):
        cfg = small_config(tmp_path)
        summary = run_campaign(cfg)
        assert [row.degree for row in summary] == [32, 64]
        for row in summary:
            assert row.trials == 25
            for freq in (row.freq_E, row.freq_Ek, row.freq_D, row.freq_clean):
                assert 0.0 <= freq <= 1.0
            records = row.records
            assert len(records) == 25
            assert row.freq_E == sum(r.flags.E for r in records) / 25
            assert row.freq_clean == sum(r.flags.clean for r in records) / 25
            assert row.to_json_dict()["successful_trials"] == sum(not r.is_empty for r in records)

    def test_summary_recomputable_from_trial_rows(self, tmp_path):
        cfg = small_config(tmp_path)
        summary = run_campaign(cfg)
        for row in summary:
            records = row.records
            succ = [r.q_metrics for r in records if not r.is_empty]
            mean_product = sum((q.product for q in succ), Fraction(0)) / len(succ)
            deg_mean = Fraction(sum(q.degree for q in succ), len(succ))
            rendered = row.to_json_dict()
            assert rendered["product"]["mean"] == f"{float(mean_product):.12f}"
            assert rendered["mean_product_num"] == round(mean_product * MEAN_PROXY_DEN)
            assert rendered["l1"]["min"] == min(q.l1 for q in succ)
            assert rendered["l1"]["max"] == max(q.l1 for q in succ)
            assert rendered["deg"]["mean"] == f"{float(deg_mean):.12f}"

    def test_record_from_trial_drops_only_the_mask(self):
        trial = sample(NewmanPolynomial.all_ones(64), SparsifyConfig(epsilon=0.3, seed=2), 4)
        record = record_from_trial(trial)
        assert type(record) is TrialRecord and record.mask is None
        assert (record.trial_index, record.trial_seed, record.q_metrics, record.flags) == (
            4, trial.trial_seed, trial.q_metrics, trial.flags)

    def test_the_mask_is_not_compared(self):
        p, cfg = NewmanPolynomial.all_ones(64), SparsifyConfig(epsilon=0.3, seed=2)
        for t in range(8):
            assert sample(p, cfg, t) == record_from_trial(sample(p, cfg, t))

    def test_campaign_records_hold_no_mask(self, tmp_path):
        """No mask is kept, so none is pickled back from a worker."""
        for row in run_campaign(small_config(tmp_path), workers=2):
            assert all(r.mask is None for r in row.records)

    def test_sparse_family_E_bound_holds(self, tmp_path):
        """With 100 terms at degree 1024 the kept mass has mean l1/2 = 50, not
        c0*N**(9/10) = 512, so the bound must take the density l1/N for c0."""
        family = tmp_path / "family.txt"
        family.write_text(",".join(map(str, [*range(99), 1024])) + "\n")
        cfg = small_config(tmp_path, family="from_file", family_file=str(family),
                           degree_ladder=(1024,), trials_per_degree=2000,
                           epsilon=0.3, rho=None, rho_prime=None, c0=1, seed=7)
        (row,) = run_campaign(cfg)
        assert row.freq_E > 0
        assert row.bound_E >= row.freq_E
        assert row.bound_E == bad_event_E_bound(1024, Fraction(100, 1024), 0.3, Fraction(1, 10))

    def test_trial_records_are_deterministic(self, tmp_path):
        a = run_campaign(small_config(tmp_path))
        b = run_campaign(small_config(tmp_path))
        assert a == b

    # 25 trials: chunks of 13/12, 9/9/7 and 7/7/7/4; 13 workers run serially (25 < 26).
    @pytest.mark.parametrize("workers", [2, 3, 4, 13])
    def test_worker_count_does_not_change_records(self, tmp_path, workers):
        serial = run_campaign(small_config(tmp_path), workers=1)
        parallel = run_campaign(small_config(tmp_path), workers=workers)
        assert serial == parallel

    def test_from_file_family(self, tmp_path):
        family = tmp_path / "family.txt"
        family.write_text("# three dense polynomials\n0,1,2,3,4,5,6,7,8\n"
                          + ",".join(map(str, range(17))) + "\n")
        cfg = small_config(tmp_path, family="from_file",
                           family_file=str(family), degree_ladder=(8, 16))
        summary = run_campaign(cfg)
        assert [row.degree for row in summary] == [8, 16]

    def test_from_file_missing_degree(self, tmp_path):
        family = tmp_path / "family.txt"
        family.write_text("0,1,2\n")
        cfg = small_config(tmp_path, family="from_file",
                           family_file=str(family), degree_ladder=(8,))
        with pytest.raises(ValueError):
            run_campaign(cfg)

    def test_missing_degree_fails_before_any_trial(self, tmp_path, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiment, "sample", no_trials)
        family = tmp_path / "family.txt"
        family.write_text("0,1,2,3,4,5,6,7,8\n")
        cfg = small_config(tmp_path, family="from_file",
                           family_file=str(family), degree_ladder=(8, 4096))
        with pytest.raises(ValueError, match="no polynomial of degree 4096"):
            run_campaign(cfg)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, tmp_path, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_campaign(small_config(tmp_path), workers=workers)

    def test_freq_E_within_predicted_bound(self, tmp_path):
        import math

        summary = run_campaign(small_config(tmp_path, trials_per_degree=200))
        for row in summary:
            se = math.sqrt(max(row.freq_E * (1 - row.freq_E), 1e-9) / row.trials)
            assert row.freq_E <= min(1.0, row.bound_E) + 3 * se
        # The summary writes the bound unclamped, then clamped: vacuous at 64, not at 16384.
        cfg = small_config(tmp_path, degree_ladder=(64, 16384), trials_per_degree=1)
        rows = [row.to_json_dict() for row in run_campaign(cfg)]
        raws = [bad_event_E_bound(n, cfg.c0, cfg.epsilon, cfg.alpha_exponent) for n in (64, 16384)]
        assert [row["bound_E_raw"] for row in rows] == raws
        assert raws == [pytest.approx(1.98, abs=5e-3), pytest.approx(0.445, abs=5e-4)]
        assert [row["bound_E_clamped"] for row in rows] == [1.0, raws[1]]


class TestEmit:
    def test_csv_layout(self, tmp_path):
        cfg = small_config(tmp_path)
        paths = emit_results(cfg, run_campaign(cfg))
        summary_lines = read(paths["summary"]).decode().splitlines()
        assert summary_lines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(summary_lines) == 3
        trial_path = os.path.join(cfg.output_dir, "trials_degree_32.csv")
        trial_lines = read(trial_path).decode().splitlines()
        assert trial_lines[0] == ",".join(TRIAL_COLUMNS)
        assert len(trial_lines) == 26

    def test_manifest_contents(self, tmp_path):
        cfg = small_config(tmp_path)
        paths = emit_results(cfg, run_campaign(cfg))
        manifest = json.loads(read(paths["manifest"]))
        assert manifest["artifact"] == "newmanlab"
        assert manifest["rng_algorithm"].startswith("numpy-pcg64")
        assert manifest["master_seed"] == 20080613
        assert manifest["config_sha256"] == cfg.sha256()
        assert manifest["trial_columns"] == TRIAL_COLUMNS
        assert manifest["summary_columns"] == SUMMARY_COLUMNS
        assert manifest["trial_files"] == {
            "32": "trials_degree_32.csv", "64": "trials_degree_64.csv"}

    def test_byte_identical_across_runs(self, tmp_path):
        cfg_a = small_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = small_config(tmp_path, output_dir=str(tmp_path / "b"))
        paths_a = emit_results(cfg_a, run_campaign(cfg_a))
        paths_b = emit_results(cfg_b, run_campaign(cfg_b))
        for key in ("summary", "manifest"):
            assert read(paths_a[key]) == read(paths_b[key])
        for degree in (32, 64):
            name = f"trials_degree_{degree}.csv"
            assert read(os.path.join(cfg_a.output_dir, name)) == read(
                os.path.join(cfg_b.output_dir, name))

    def test_summary_recomputable_from_written_csv(self, tmp_path):
        cfg = small_config(tmp_path)
        paths = emit_results(cfg, run_campaign(cfg))
        summary_lines = read(paths["summary"]).decode().splitlines()
        header = summary_lines[0].split(",")
        for line in summary_lines[1:]:
            row = dict(zip(header, line.split(",")))
            degree = int(row["degree"])
            trials_path = os.path.join(cfg.output_dir, f"trials_degree_{degree}.csv")
            trial_lines = read(trials_path).decode().splitlines()
            cols = trial_lines[0].split(",")
            records = [dict(zip(cols, ln.split(","))) for ln in trial_lines[1:]]
            trials = len(records)
            assert row["trials"] == str(trials)
            count_E = sum(r["flag_E"] == "1" for r in records)
            count_Ek = sum(int(r["num_Ek"]) > 0 for r in records)
            count_D = sum(r["flag_D"] == "1" for r in records)
            count_clean = sum(
                r["flag_E"] == "0" and r["flag_D"] == "0" and r["num_Ek"] == "0"
                for r in records
            )
            assert row["freq_E"] == repr(count_E / trials)
            assert row["freq_Ek"] == repr(count_Ek / trials)
            assert row["freq_D"] == repr(count_D / trials)
            assert row["freq_clean"] == repr(count_clean / trials)
            succ = [r for r in records if int(r["l1_q"]) > 0]
            mean_product = sum(
                (Fraction(int(r["product_num"]), int(r["product_den"])) for r in succ),
                Fraction(0),
            ) / len(succ)
            assert row["mean_product_num"] == str(round(mean_product * MEAN_PROXY_DEN))
            assert row["mean_product_den_proxy"] == str(MEAN_PROXY_DEN)

    def test_byte_identical_across_worker_counts(self, tmp_path):
        cfg_a = small_config(tmp_path, output_dir=str(tmp_path / "w1"))
        cfg_b = small_config(tmp_path, output_dir=str(tmp_path / "w4"))
        emit_results(cfg_a, run_campaign(cfg_a, workers=1))
        emit_results(cfg_b, run_campaign(cfg_b, workers=4))
        for name in ("summary.csv", "manifest.json",
                     "trials_degree_32.csv", "trials_degree_64.csv"):
            assert read(os.path.join(cfg_a.output_dir, name)) == read(
                os.path.join(cfg_b.output_dir, name)), name

    def test_json_format_mirrors_csv_fields(self, tmp_path):
        cfg = small_config(tmp_path, format="json")
        paths = emit_results(cfg, run_campaign(cfg))
        rows = json.loads(read(paths["summary"]))
        assert len(rows) == 2
        assert set(SUMMARY_COLUMNS) <= set(rows[0])
        trials = json.loads(read(os.path.join(cfg.output_dir, "trials_degree_32.json")))
        assert list(trials[0]) == TRIAL_COLUMNS

    def test_empty_ladder_gives_header_only(self, tmp_path):
        cfg = small_config(tmp_path, degree_ladder=())
        paths = emit_results(cfg, run_campaign(cfg))
        lines = read(paths["summary"]).decode().splitlines()
        assert lines == [",".join(SUMMARY_COLUMNS)]
        assert os.path.exists(paths["manifest"])

    def test_empty_trial_columns_for_empty_q(self):
        # alpha = 8**(-9/10) keeps about 1 in 6.5 coefficients of 1 + ... + x**8,
        # so seed 3 leaves nothing in 10 of the first 40 trials.
        p = NewmanPolynomial.all_ones(8)
        cfg = SparsifyConfig(alpha_exponent=Fraction(9, 10), epsilon=0.5, seed=3)
        records = [record_from_trial(sample(p, cfg, t)) for t in range(40)]
        empty = [r for r in records if r.is_empty]
        assert len(empty) == 10
        assert all(r.flags.E and r.flags.D and not r.flags.clean for r in empty)
        lines = trial_table_text(empty, "csv").splitlines()
        assert lines[0] == ",".join(TRIAL_COLUMNS)
        assert lines[1] == "1,11425928242767342472,0,,,,,,,1,1,0,"
        assert all(line.split(",")[2:11] == ["0"] + [""] * 6 + ["1", "1"]
                   for line in lines[1:])

    # SHA-256 of small_config's artifacts: a refactor leaves them unchanged,
    # and a change to them is a change to the artifact format.
    DIGESTS = {
        "summary.csv": "7837b8cc7703aa1247ccfc68a6081a58968022a609a83816156836ab3f8cacfb",
        "trials_degree_32.csv": "c14f4d2eaa0694dd645481ec70fc99b068297a143c9404957731eff2499fbc0b",
        "trials_degree_64.csv": "e6252153bd88148786ea5c69548ab67d9e832d62674bf00a91d4603dc93474d8",
        "summary.json": "e470564cde9a59d01331238914c4cb2e20747d3e40159458a7f51bda51d1b8cc",
        "trials_degree_32.json": "e399b7413d674dbdb9f2f7b9b77acf7936c918b8127529990dd16ff1531fa316",
        "trials_degree_64.json": "56d75506353dfabff141eac50f4c59ce320952ff35c9390790b2bbaf4558aeec",
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_artifact_digests_are_pinned(self, tmp_path, fmt):
        cfg = small_config(tmp_path, format=fmt)
        emit_results(cfg, run_campaign(cfg))
        for name in (f"summary.{fmt}", f"trials_degree_32.{fmt}", f"trials_degree_64.{fmt}"):
            digest = hashlib.sha256(read(os.path.join(cfg.output_dir, name))).hexdigest()
            assert digest == self.DIGESTS[name], name

    # alpha = 8**(-9/10): with seed 6 neither trial of rung 8 keeps a term,
    # so every aggregate of that rung renders as empty.
    EMPTY_RUNG_DIGESTS = {
        "csv": "c69df6575f9997f71a5fd2a89b1b3e76f4bf5432ffe5f563d3b66384b6b4c039",
        "json": "9804e5dbf8956c990fafac5470302a2dfefa89f6007b494fbbc4ec253c2bb937",
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rung_without_survivors_digest_is_pinned(self, tmp_path, fmt):
        cfg = CampaignConfig(family="all_ones", degree_ladder=(8, 64), trials_per_degree=2,
                             alpha_exponent=Fraction(9, 10), epsilon=0.5, seed=6,
                             output_dir=str(tmp_path / "out"), format=fmt)
        summary = run_campaign(cfg)
        assert [row.to_json_dict()["successful_trials"] for row in summary] == [0, 2]
        paths = emit_results(cfg, summary)
        assert hashlib.sha256(read(paths["summary"])).hexdigest() == self.EMPTY_RUNG_DIGESTS[fmt]
