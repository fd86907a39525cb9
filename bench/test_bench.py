"""Tests of the benchmark's own pieces: the corpus generator and the
counts a later performance claim may rest on.

    python3 -m pytest bench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
from retweet_reg.data import load_tsv  # noqa: E402

COUNT_SUFFIXES = (".flops", ".cols_bytes", ".useful_window_share", ".sorted_elems",
                  ".param_elems")


def _corpus(seed):
    return corpus.with_malformed(corpus.planted_rows(500, seed), 0.04, seed + 1)


def test_same_seed_gives_identical_bytes(tmp_path):
    paths = []
    for name in ("a.tsv", "b.tsv"):
        rows, _ = _corpus(3)
        corpus.write_tsv(tmp_path / name, rows)
        paths.append(tmp_path / name)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert _corpus(3) != _corpus(4)


def test_planted_drop_count_matches_load_tsv(tmp_path):
    rows, planted = _corpus(5)
    assert all(planted[kind] == 5 for kind in corpus.MALFORMED_KINDS)
    corpus.write_tsv(tmp_path / "c.tsv", rows)
    records, dropped = load_tsv(tmp_path / "c.tsv")
    assert dropped == sum(planted.values())
    assert len(records) == len(rows) - dropped


@pytest.mark.parametrize("kind", corpus.MALFORMED_KINDS)
def test_each_malformed_kind_is_dropped(tmp_path, kind):
    good, bad = corpus.planted_rows(2, 9)
    corpus.write_tsv(tmp_path / "k.tsv", [good, corpus.break_row(bad, kind)])
    records, dropped = load_tsv(tmp_path / "k.tsv")
    assert (len(records), dropped) == (1, 1)


def _traced_metrics(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    return {w: _traced_metrics(w) for w in ("train_cnn", "train_rnn", "score_cnn")}


def _counts(metrics):
    return {name: v for name, v in metrics.items() if name.endswith(COUNT_SUFFIXES)}


def test_computed_counts_repeat_exactly(traced):
    first = _counts(traced["train_cnn"])
    assert first == _counts(_traced_metrics("train_cnn"))
    assert all(first.values()), first
    assert first["nn.text.conv1.useful_window_share"] == 32 / 126


def test_every_per_layer_metric_is_measured(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]]
    assert [n for n in names if not any(traced[w][n] for w in traced)] == []


def test_scoring_runs_no_backward_and_no_adam(traced):
    score = traced["score_cnn"]
    assert [n for n, v in score.items() if v and (n.endswith(".bwd_s") or n.startswith("optim."))] == []
