import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from retweet_reg import cli, data

FIXTURE = Path(__file__).parent / "fixtures" / "tweets_120.tsv"
REPORT_KEYS = {"n", "mae", "rmae", "mbe", "rmbe", "rmse", "rrmse", "r2", "warnings"}


def run_cli(args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "retweet_reg.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def assert_usage_error(r):
    # exit 1 alone is also the interpreter's code when retweet_reg fails to import
    assert r.returncode == 1
    assert any(line.startswith("error: ") for line in r.stderr.splitlines()), r.stderr


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Prepared artifacts plus a short CNN combined training run."""
    out = tmp_path_factory.mktemp("cli_out")
    r = run_cli(["prepare", "--data", FIXTURE, "--out", out, "--seed", "7"])
    assert r.returncode == 0, r.stderr
    r = run_cli(
        ["train", "--data", FIXTURE, "--out", out, "--seed", "7", "--epochs", "4"]
    )
    assert r.returncode == 0, r.stderr
    return out


@pytest.fixture(scope="module")
def rnn_workdir(tmp_path_factory):
    """All three RNN modes trained briefly, for the multi-series plot."""
    out = tmp_path_factory.mktemp("cli_rnn")
    r = run_cli(["prepare", "--data", FIXTURE, "--out", out, "--seed", "7"])
    assert r.returncode == 0, r.stderr
    for mode in ("numeric_only", "text_only", "combined"):
        r = run_cli(
            [
                "train", "--data", FIXTURE, "--out", out, "--seed", "7",
                "--arch", "rnn", "--mode", mode, "--epochs", "2",
            ]
        )
        assert r.returncode == 0, r.stderr
    return out


# --- exit codes ---


def test_no_command_is_usage_error():
    assert_usage_error(run_cli([]))


def test_bad_mode_is_usage_error():
    assert_usage_error(run_cli(["train", "--mode", "bogus"]))


def test_unknown_flag_is_usage_error():
    assert_usage_error(run_cli(["prepare", "--frobnicate"]))


def test_bad_split_is_usage_error():
    assert_usage_error(run_cli(["evaluate", "--split", "weird"]))


def test_prepare_without_data_is_usage_error():
    assert_usage_error(run_cli(["prepare"]))


def test_missing_data_file_is_data_error(tmp_path):
    r = run_cli(["prepare", "--data", tmp_path / "nope.tsv", "--out", tmp_path])
    assert r.returncode == 2


def test_train_without_prepare_is_data_error(tmp_path):
    r = run_cli(["train", "--data", FIXTURE, "--out", tmp_path / "empty"])
    assert r.returncode == 2
    assert "prepare" in r.stderr


def test_config_file_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    assert_usage_error(run_cli(["prepare", "--config", cfg]))


@pytest.mark.parametrize(
    "bad", [{"split_ratios": 5}, {"epochs": "10"}, {"embed_dim": 0}, {"filters_l2": 3}]
)
def test_config_file_bad_value_is_usage_error(tmp_path, capsys, bad):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"data": str(FIXTURE), "out": str(tmp_path), **bad}))
    for command in ("prepare", "train", "evaluate", "predict", "plot", "gradcheck"):
        assert cli.main([command, "--config", str(cfg)]) == 1, command
        assert capsys.readouterr().err.startswith("error: "), command


@pytest.mark.parametrize(
    "flag", [["--epochs", "1"], ["--batch", "8"], ["--lr", "0.1"], ["--target-transform", "log1p"]]
)
def test_training_flag_outside_train_is_usage_error(workdir, capsys, flag):
    common = ["--data", str(FIXTURE), "--out", str(workdir), "--seed", "7"]
    for command in ("prepare", "evaluate", "predict", "plot", "gradcheck"):
        assert cli.main([command, *common, *flag]) == 1, command
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: ") for line in err), command


def test_config_file_not_json_is_usage_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"epochs": 3,')
    r = run_cli(["prepare", "--config", cfg])
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and str(cfg) in r.stderr
    assert "Traceback" not in r.stderr


def test_truncated_artifact_is_data_error(workdir, tmp_path):
    for name in ("vocab.json", "scaler.json", "splits.json"):
        shutil.copy(workdir / name, tmp_path / name)
    scaler = tmp_path / "scaler.json"
    scaler.write_text(scaler.read_text()[:40])
    r = run_cli(["train", "--data", FIXTURE, "--out", tmp_path, "--epochs", "1"])
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and str(scaler) in r.stderr
    assert "Traceback" not in r.stderr


def test_train_with_empty_validation_split_is_data_error(tmp_path):
    tiny = tmp_path / "tiny.tsv"
    tiny.write_text("".join(FIXTURE.read_text().splitlines(keepends=True)[:5]))
    out = tmp_path / "out"
    r = run_cli(["prepare", "--data", tiny, "--out", out])
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "at least 6" in r.stderr
    assert not out.exists()  # no artifact written
    # a split file with no validation part, next to full-fixture artifacts
    assert run_cli(["prepare", "--data", FIXTURE, "--out", out]).returncode == 0
    data.save_splits(out / "splits.json", 7, range(5), [], [])
    r = run_cli(["train", "--data", tiny, "--out", out, "--epochs", "1"])
    assert r.returncode == 2
    assert r.stderr.startswith("error: validation set is empty")
    assert "Traceback" not in r.stderr


def _zeroed_entry(checkpoint, name):
    entry = next(e for e in checkpoint["params"] if e["name"] == name)
    return {**entry, "data": [0.0] * len(entry["data"])}


def _nan_entry(entry):
    return {**entry, "data": [float("nan"), *entry["data"][1:]]}


WRONG_SHAPES = {
    "vocab_list": ("vocab.json", lambda p: [], "train"),
    "vocab_tokens_int": ("vocab.json", lambda p: {"version": 1, "tokens": 5}, "train"),
    "scaler_3_means": ("scaler.json", lambda p: {**p, "mean": p["mean"][:3]}, "train"),
    "split_index_100000": (
        "splits.json", lambda p: {**p, "train": [100000, *p["train"][1:]]}, "train"
    ),
    "checkpoint_without_params": (
        "checkpoint_cnn_combined.json",
        lambda p: {k: v for k, v in p.items() if k != "params"},
        "evaluate",
    ),
    "checkpoint_param_listed_twice": (
        "checkpoint_cnn_combined.json",
        lambda p: {**p, "params": [*p["params"], _zeroed_entry(p, "text.embed.table")]},
        "evaluate",
        "'text.embed.table' is listed twice",
    ),
    "checkpoint_param_missing": (
        "checkpoint_cnn_combined.json",
        lambda p: {**p, "params": [e for e in p["params"] if e["name"] != "text.conv1.bias"]},
        "evaluate",
        "missing ['text.conv1.bias']",
    ),
    "checkpoint_nan_param": (
        "checkpoint_cnn_combined.json",
        lambda p: {**p, "params": [_nan_entry(e) if e["name"] == "text.conv1.bias" else e
                                   for e in p["params"]]},
        "evaluate",
        "'text.conv1.bias' holds non-finite values",
    ),
    "schema_sidecar_empty": ("tweets.tsv.schema.json", lambda p: {}, "prepare"),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_wrong_shaped_artifact_is_data_error(workdir, tmp_path, case):
    name, rewrite, command, *expected = WRONG_SHAPES[case]
    tsv = tmp_path / "tweets.tsv"
    shutil.copy(FIXTURE, tsv)
    for artifact in ("vocab.json", "scaler.json", "splits.json", "checkpoint_cnn_combined.json"):
        shutil.copy(workdir / artifact, tmp_path / artifact)
    path = tmp_path / name
    payload = json.loads(path.read_text()) if path.exists() else None
    path.write_text(json.dumps(rewrite(payload)))
    r = run_cli([command, "--data", tsv, "--out", tmp_path])
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and str(path) in r.stderr
    assert all(text in r.stderr for text in expected), r.stderr
    assert "Traceback" not in r.stderr


# --- config plumbing ---


def test_config_file_drives_prepare(tmp_path):
    out = tmp_path / "from_config"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"data": str(FIXTURE), "out": str(out), "seed": 7}))
    r = run_cli(["prepare", "--config", cfg])
    assert r.returncode == 0
    assert (out / "vocab.json").exists()


# --- prepare ---


def test_prepare_summary_and_artifacts(workdir):
    r = run_cli(["prepare", "--data", FIXTURE, "--out", workdir, "--seed", "7"])
    assert r.returncode == 0
    assert "records: 120 valid, 0 dropped" in r.stdout
    assert "splits: 80 train / 20 validation / 20 test" in r.stdout
    assert "vocabulary:" in r.stdout
    for name in ("vocab.json", "scaler.json", "splits.json"):
        assert (workdir / name).exists()


def test_prepare_reports_dropped_lines(tmp_path):
    bad = tmp_path / "with_bad_line.tsv"
    bad.write_text(FIXTURE.read_text() + "not\tenough\tfields\n", encoding="utf-8")
    r = run_cli(["prepare", "--data", bad, "--out", tmp_path / "out"])
    assert r.returncode == 0
    assert "records: 120 valid, 1 dropped" in r.stdout


@pytest.mark.parametrize(
    "timestamp", ["99999999999999999999", "²", "-99999999999", "1570130000"]
)
def test_prepare_drops_bad_timestamp(tmp_path, timestamp):
    fields = FIXTURE.read_text(encoding="utf-8").splitlines()[0].split("\t")
    fields[2] = timestamp
    bad = tmp_path / "bad_timestamp.tsv"
    bad.write_text(FIXTURE.read_text(encoding="utf-8") + "\t".join(fields) + "\n",
                   encoding="utf-8")
    r = run_cli(["prepare", "--data", bad, "--out", tmp_path / "out"])
    assert r.returncode == 0, r.stderr
    assert "records: 120 valid, 1 dropped" in r.stdout


def test_predict_rejects_epoch_timestamp_by_line(workdir, tmp_path):
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()[:2]
    fields = lines[1].split("\t")
    fields[2] = "1570130000"
    bad = tmp_path / "epoch.tsv"
    bad.write_text(lines[0] + "\n" + "\t".join(fields) + "\n", encoding="utf-8")
    r = run_cli(["predict", "--data", FIXTURE, "--out", workdir, "--input", bad])
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "line 2" in r.stderr


def test_prepare_drops_undecodable_line(tmp_path):
    bad = tmp_path / "undecodable.tsv"
    bad.write_bytes(FIXTURE.read_bytes() + b"\xff\xfe bad\n")
    r = run_cli(["prepare", "--data", bad, "--out", tmp_path / "out"])
    assert r.returncode == 0, r.stderr
    assert "records: 120 valid, 1 dropped" in r.stdout


def test_prepare_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        r = run_cli(["prepare", "--data", FIXTURE, "--out", out, "--seed", "7"])
        assert r.returncode == 0
    for name in ("vocab.json", "scaler.json", "splits.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# --- train ---


def test_train_outputs(workdir):
    ckpt = workdir / "checkpoint_cnn_combined.json"
    log = workdir / "training_log_cnn_combined.jsonl"
    assert ckpt.exists() and log.exists()
    payload = json.loads(ckpt.read_text())
    assert payload["config"]["arch"] == "cnn"
    assert payload["config"]["mode"] == "combined"
    names = {p["name"] for p in payload["params"]}
    assert any(n.startswith("text.") for n in names)
    assert any(n.startswith("numeric.") for n in names)
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    assert [e["epoch"] for e in entries] == [1, 2, 3, 4]
    assert all(set(e) == {"epoch", "train_loss", "validation"} for e in entries)


def test_diverging_train_is_one_numeric_error_line(tmp_path):
    common = ["--data", FIXTURE, "--out", tmp_path, "--seed", "7", "--arch", "rnn"]
    assert run_cli(["prepare", *common]).returncode == 0
    r = run_cli(["train", *common, "--epochs", "2", "--lr", "1e308"])
    assert r.returncode == 3
    lines = r.stderr.splitlines()
    assert len(lines) == 1, r.stderr
    assert lines[0].startswith("error: ") and "parameter '" in lines[0]
    assert "RuntimeWarning" not in r.stderr


def test_train_bytes_do_not_depend_on_blas_environment(tmp_path):
    # unset, the package defaults to one BLAS thread; a count above one
    # would change the summation order of the convolution's matmuls
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in blas_vars}
    checkpoints = []
    for name, env in (("unset", unset), ("one", {**unset, "OPENBLAS_NUM_THREADS": "1"})):
        common = ["--data", FIXTURE, "--out", tmp_path / name, "--seed", "7"]
        assert run_cli(["prepare", *common], env).returncode == 0
        r = run_cli(["train", *common, "--epochs", "3"], env)
        assert r.returncode == 0, r.stderr
        checkpoints.append((tmp_path / name / "checkpoint_cnn_combined.json").read_bytes())
    assert checkpoints[0] == checkpoints[1]


# --- evaluate ---


def test_evaluate_writes_and_prints_report(workdir):
    r = run_cli(["evaluate", "--data", FIXTURE, "--out", workdir, "--seed", "7"])
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert set(report) == REPORT_KEYS
    assert report["n"] == 20
    path = workdir / "report_cnn_combined_test.json"
    assert path.exists()
    assert json.loads(path.read_text()) == report


def test_evaluate_named_split(workdir):
    r = run_cli(
        ["evaluate", "--data", FIXTURE, "--out", workdir, "--seed", "7",
         "--split", "validation"]
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["n"] == 20
    assert (workdir / "report_cnn_combined_validation.json").exists()


def test_evaluate_is_deterministic(workdir):
    runs = [
        run_cli(["evaluate", "--data", FIXTURE, "--out", workdir, "--seed", "7"])
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout


def test_evaluate_reads_target_transform_from_checkpoint(tmp_path):
    common = ["--data", FIXTURE, "--out", tmp_path, "--seed", "7", "--arch", "rnn"]
    assert run_cli(["prepare", *common]).returncode == 0
    r = run_cli(["train", *common, "--epochs", "3", "--target-transform", "log1p"])
    assert r.returncode == 0, r.stderr
    trained = r.stdout.split("validation mae ")[1].split(")")[0]
    r = run_cli(["evaluate", *common, "--split", "validation"])
    assert r.returncode == 0, r.stderr
    assert repr(json.loads(r.stdout)["mae"]) == trained


def test_version_1_checkpoint_asks_to_retrain(workdir, tmp_path):
    ckpt = json.loads((workdir / "checkpoint_cnn_combined.json").read_text())
    ckpt["version"] = 1
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(ckpt))
    r = run_cli(
        ["evaluate", "--data", FIXTURE, "--out", workdir, "--seed", "7", "--checkpoint", old]
    )
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "re-run train" in r.stderr


def test_evaluate_vocab_mismatch_is_data_error(workdir, tmp_path):
    # a checkpoint that is internally consistent but sized for a different
    # vocabulary than the prepared artifacts
    ckpt = json.loads((workdir / "checkpoint_cnn_combined.json").read_text())
    ckpt["config"]["vocab_size"] += 1
    for param in ckpt["params"]:
        if param["name"] == "text.embed.table":
            param["shape"][0] += 1
            param["data"].extend([0.0] * param["shape"][1])
    bad = tmp_path / "bad_ckpt.json"
    bad.write_text(json.dumps(ckpt))
    r = run_cli(
        ["evaluate", "--data", FIXTURE, "--out", workdir, "--seed", "7",
         "--checkpoint", bad]
    )
    assert r.returncode == 2
    assert "vocab" in r.stderr.lower()


# --- predict ---


def test_predict_row_per_input_in_order(workdir):
    r = run_cli(["predict", "--data", FIXTURE, "--out", workdir, "--seed", "7"])
    assert r.returncode == 0
    assert "wrote 120 predictions (2 null)" in r.stdout
    lines = (workdir / "predictions.tsv").read_text().splitlines()
    assert len(lines) == 120
    input_ids = [line.split("\t")[0] for line in FIXTURE.read_text().splitlines()]
    assert [line.split("\t")[0] for line in lines] == input_ids
    nulls = [i for i, line in enumerate(lines) if line.split("\t")[1] == "null"]
    assert len(nulls) == 2
    for i, line in enumerate(lines):
        if i not in nulls:
            float(line.split("\t")[1])  # parses as a finite real
    # one stderr warning per null row, naming the records
    assert r.stderr.count("prediction marked null") == 2
    assert f"record {nulls[0] + 1}" in r.stderr


def test_predict_deterministic(workdir):
    runs = [
        run_cli(["predict", "--data", FIXTURE, "--out", workdir, "--seed", "7"])
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    content = (workdir / "predictions.tsv").read_bytes()
    run_cli(["predict", "--data", FIXTURE, "--out", workdir, "--seed", "7"])
    assert (workdir / "predictions.tsv").read_bytes() == content


def test_predict_accepts_missing_labels(workdir, tmp_path):
    rows = FIXTURE.read_text().splitlines()[:3]
    unlabeled = []
    for row in rows:
        fields = row.split("\t")
        fields[11] = "null;"  # retweets column
        unlabeled.append("\t".join(fields))
    path = tmp_path / "unlabeled.tsv"
    path.write_text("\n".join(unlabeled) + "\n", encoding="utf-8")
    r = run_cli(
        ["predict", "--data", FIXTURE, "--out", workdir, "--seed", "7",
         "--input", path]
    )
    assert r.returncode == 0
    assert "wrote 3 predictions" in r.stdout


def test_predict_numeric_only_never_needs_text(rnn_workdir):
    r = run_cli(
        ["predict", "--data", FIXTURE, "--out", rnn_workdir, "--seed", "7",
         "--arch", "rnn", "--mode", "numeric_only"]
    )
    assert r.returncode == 0
    assert "(0 null)" in r.stdout


# --- gradcheck ---


def test_gradcheck_cli_passes(workdir):
    r = run_cli(["gradcheck", "--out", workdir])
    assert r.returncode == 0
    assert "gradcheck: pass" in r.stdout
    conv_lines = [l for l in r.stdout.splitlines() if l.startswith("layer") and "conv1d" in l]
    assert len(conv_lines) == 1
    assert float(conv_lines[0].split()[-1]) < 1e-5
    assert len([l for l in r.stdout.splitlines() if l.startswith("end-to-end")]) == 6


# --- plot ---


def test_plot_single_mode(workdir):
    r = run_cli(
        ["plot", "--data", FIXTURE, "--out", workdir, "--seed", "7", "--n", "15"]
    )
    assert r.returncode == 0
    lines = (workdir / "plot.csv").read_text().splitlines()
    assert lines[0] == "index,actual,predicted_combined"
    assert len(lines) == 16
    svg = (workdir / "plot.svg").read_text()
    assert svg.count("<circle") == 15 * 2  # one point per row per series


def test_plot_same_seed_same_sample(workdir):
    run_cli(["plot", "--data", FIXTURE, "--out", workdir, "--seed", "7", "--n", "10"])
    first = (workdir / "plot.csv").read_bytes()
    run_cli(["plot", "--data", FIXTURE, "--out", workdir, "--seed", "7", "--n", "10"])
    assert (workdir / "plot.csv").read_bytes() == first


def test_plot_clamps_oversized_n(workdir):
    r = run_cli(
        ["plot", "--data", FIXTURE, "--out", workdir, "--seed", "7", "--n", "999"]
    )
    assert r.returncode == 0
    assert "clamping" in r.stderr
    lines = (workdir / "plot.csv").read_text().splitlines()
    assert len(lines) == 21  # header + full 20-row test split


def test_plot_rejects_nonpositive_n(workdir):
    r = run_cli(
        ["plot", "--data", FIXTURE, "--out", workdir, "--seed", "7", "--n", "0"]
    )
    assert r.returncode == 1


def test_plot_all_three_modes(rnn_workdir):
    checkpoints = [
        rnn_workdir / f"checkpoint_rnn_{mode}.json"
        for mode in ("combined", "numeric_only", "text_only")
    ]
    args = ["plot", "--data", FIXTURE, "--out", rnn_workdir, "--seed", "7", "--n", "12"]
    for ckpt in checkpoints:
        args += ["--checkpoint", ckpt]
    r = run_cli(args)
    assert r.returncode == 0, r.stderr
    lines = (rnn_workdir / "plot.csv").read_text().splitlines()
    assert lines[0] == "index,actual,predicted_numeric,predicted_text,predicted_combined"
    assert len(lines) == 13
    svg = (rnn_workdir / "plot.svg").read_text()
    assert svg.count("<circle") == 12 * 4


def test_plot_rejects_duplicate_modes(rnn_workdir):
    ckpt = rnn_workdir / "checkpoint_rnn_combined.json"
    r = run_cli(
        ["plot", "--data", FIXTURE, "--out", rnn_workdir, "--seed", "7",
         "--checkpoint", ckpt, "--checkpoint", ckpt]
    )
    assert r.returncode == 1
