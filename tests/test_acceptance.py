"""Acceptance checks for the whole toolkit.

Each test prints one PASS/FAIL line through the `criterion` fixture;
pytest echoes them in a terminal summary section. Tolerances for oracle
comparisons scale with value magnitude (1e-12 absolute is finer than
float64 resolution once values pass ~100).
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import synth
from retweet_reg import gradcheck, metrics, nn, optim
from retweet_reg.data import (
    DEFAULT_COLUMNS,
    TEXT_COLUMN,
    build_vocab,
    encode_records,
    engineer_features,
    fit_scaler,
    parse_tsv_line,
    tokenize,
)
from retweet_reg.models import ModelConfig, build_model
from retweet_reg.seeding import derive_seed

FIXTURE = Path(__file__).parent / "fixtures" / "tweets_120.tsv"


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "retweet_reg.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )


def scaled_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# 1. gradient suite


def test_gradient_suite(criterion):
    started = time.perf_counter()
    result = gradcheck.run_all(seed=0)
    elapsed = time.perf_counter() - started
    ok = result["passed"] and elapsed < 30.0
    criterion(
        "gradient suite",
        ok,
        f"max relative error {result['max_error']:.3e} < 1e-4 over "
        f"{len(result['layers'])} layers and {len(result['end_to_end'])} "
        f"end-to-end modes, {elapsed:.1f}s (<30s)",
    )
    assert result["passed"], result
    assert elapsed < 30.0


# 2. metric oracles


def naive_mae(a, p):
    return sum(abs(x - y) for x, y in zip(a, p)) / len(a)


def naive_mbe(a, p):
    return sum(x - y for x, y in zip(a, p)) / len(a)


def naive_rmse(a, p):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, p)) / len(a))


def naive_rel(v, p):
    return v / (sum(p) / len(p)) * 100.0


def naive_r2(a, p):
    mean = sum(a) / len(a)
    rss = sum((x - y) ** 2 for x, y in zip(a, p))
    tss = sum((x - mean) ** 2 for x in a)
    return 1.0 - rss / tss


def test_metric_oracles(criterion):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 20))
        actual = rng.normal(5.0, 10.0, size=n)
        predicted = rng.normal(5.0, 10.0, size=n)
        a, p = actual.tolist(), predicted.tolist()
        pairs = [
            (metrics.mae(actual, predicted), naive_mae(a, p)),
            (metrics.mbe(actual, predicted), naive_mbe(a, p)),
            (metrics.rmse(actual, predicted), naive_rmse(a, p)),
        ]
        if abs(np.mean(predicted)) > 1e-9:
            for value, naive in list(pairs):
                pairs.append((metrics.relative(value, predicted), naive_rel(naive, p)))
        if np.ptp(actual) > 1e-9:
            pairs.append((metrics.r2(actual, predicted), naive_r2(a, p)))
        for ours, naive in pairs:
            worst = max(worst, abs(ours - naive) / max(1.0, abs(ours), abs(naive)))

    worked = (
        metrics.r2([0.0, 1.0], [1.0, 0.0]) == -3.0
        and metrics.mae([0.0, 2.0], [1.0, 1.0]) == 1.0
        and metrics.rmse([0.0, 0.0], [3.0, 4.0]) == math.sqrt(12.5)
        and metrics.mbe([2.0, 2.0], [1.0, 1.0]) == 1.0
    )
    ok = worst <= 1e-12 and worked
    criterion(
        "metric oracles",
        ok,
        f"seven metrics vs naive loops on 10,000 pairs, worst scaled "
        f"deviation {worst:.2e} (≤1e-12); worked examples exact: {worked}",
    )
    assert worst <= 1e-12
    assert worked


# 3. pooling and folding oracles


def brute_kmax(row, k):
    order = sorted(range(len(row)), key=lambda i: (-row[i], i))[:k]
    keep = sorted(order)
    return [row[i] for i in keep], keep


def test_pooling_and_folding_oracles(criterion):
    rng = np.random.default_rng(102)
    ties = 0
    for i in range(10_000):
        length = int(rng.integers(1, 15))
        k = int(rng.integers(1, length + 1))
        if i % 2:
            row = rng.integers(0, 5, size=length).astype(np.float64)  # tie-heavy
        else:
            row = rng.normal(size=length)
        if len(set(row.tolist())) < length:
            ties += 1
        layer = nn.KMaxPool(k)
        pooled = layer.forward(row[None, None, :])
        # each selected position receives exactly one upstream one
        picked = np.flatnonzero(layer.backward(np.ones_like(pooled))[0, 0])
        want_vals, want_idx = brute_kmax(row.tolist(), k)
        assert pooled[0, 0].tolist() == want_vals, (row, k)
        assert picked.tolist() == want_idx, (row, k)

    fold_rows = 0
    for _ in range(1_000):
        rows = 2 * int(rng.integers(1, 6))
        x = rng.normal(size=(rows, int(rng.integers(1, 8))))
        out = nn.fold(x)
        fold_rows += rows
        for j in range(rows // 2):
            assert np.array_equal(out[j], x[2 * j] + x[2 * j + 1])

    criterion(
        "pooling/folding oracles",
        True,
        f"KMaxPool values and selected positions equal brute force on "
        f"10,000 rows ({ties} with ties); "
        f"fold equals pairwise row sums exactly on {fold_rows} rows",
    )


# 4. adam single step


def test_adam_unit_check(criterion):
    p = nn.ParamSlot("w", np.zeros(1))
    p.accumulate(np.ones(1))
    state = optim.AdamState()
    optim.adam_step(state, [p])
    closed_form = -0.001 / (1.0 + 1e-7)
    gap = abs(p.value[0] - closed_form)
    ok = gap < 1e-9
    criterion(
        "adam unit check",
        ok,
        f"single step from 0 with g=1 gives {p.value[0]:.10f}, "
        f"within {gap:.1e} of the closed form (tolerance 1e-9)",
    )
    assert ok


# 5. smoke training


def test_smoke_training(criterion, tmp_path):
    data = tmp_path / "smoke.tsv"
    synth.write_lines(data, synth.smoke_rows())
    out = tmp_path / "out"
    started = time.perf_counter()

    r = run_cli(["prepare", "--data", data, "--out", out, "--seed", "11"])
    assert r.returncode == 0, r.stderr
    for mode in ("combined", "text_only"):
        r = run_cli(
            ["train", "--data", data, "--out", out, "--seed", "11",
             "--arch", "cnn", "--mode", mode]
        )
        assert r.returncode == 0, r.stderr

    reports = {}
    for mode in ("combined", "text_only"):
        r = run_cli(
            ["evaluate", "--data", data, "--out", out, "--seed", "11",
             "--arch", "cnn", "--mode", mode]
        )
        assert r.returncode == 0, r.stderr
        reports[mode] = json.loads(r.stdout)
    elapsed = time.perf_counter() - started

    log_path = out / "training_log_cnn_combined.jsonl"
    log = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(log) == 100
    ratio = log[-1]["train_loss"] / log[0]["train_loss"]
    r2 = reports["combined"]["r2"]
    mae_combined = reports["combined"]["mae"]
    mae_text = reports["text_only"]["mae"]

    ok = (
        ratio <= 0.10
        and r2 >= 0.5
        and mae_combined < mae_text
        and elapsed < 300.0
    )
    criterion(
        "smoke training",
        ok,
        f"600 synthetic examples, cnn combined, 100 epochs: final/epoch-1 "
        f"loss {ratio:.3f} (≤0.10), test r2 {r2:.3f} (≥0.5), combined mae "
        f"{mae_combined:.2f} < text-only mae {mae_text:.2f}, "
        f"{elapsed:.0f}s (<300s)",
    )
    assert ratio <= 0.10
    assert r2 >= 0.5
    assert mae_combined < mae_text
    assert elapsed < 300.0


# 6. overfit capacity


def test_overfit_capacity(criterion):
    schema = DEFAULT_COLUMNS + (TEXT_COLUMN,)
    records = [
        parse_tsv_line(row, schema, line_number=i + 1)
        for i, row in enumerate(synth.fixture_rows()[:16])
    ]
    scaler = fit_scaler([engineer_features(r) for r in records])
    vocab = build_vocab(tokenize(r.text) for r in records if r.text)
    ds = encode_records(records, scaler, vocab, length=30)

    first_hits = {}
    for arch in ("cnn", "rnn"):
        cfg = ModelConfig(arch=arch, mode="combined", vocab_size=len(vocab))
        model = build_model(cfg, np.random.default_rng(derive_seed(0, "init")))
        log, _ = optim.fit(
            model, ds, ds, epochs=500, batch_size=16,
            seed=derive_seed(0, "shuffle"),
        )
        hit = next(
            (e["epoch"] for e in log
             if e["validation"]["r2"] is not None and e["validation"]["r2"] > 0.99),
            None,
        )
        first_hits[arch] = hit

    ok = all(hit is not None for hit in first_hits.values())
    criterion(
        "overfit capacity",
        ok,
        "r2 > 0.99 memorizing 16 examples: "
        + ", ".join(
            f"{arch} at epoch {hit if hit is not None else '>500'}"
            for arch, hit in first_hits.items()
        ),
    )
    assert ok, first_hits


# 7. determinism


PIPELINE_FILES = (
    "vocab.json",
    "scaler.json",
    "splits.json",
    "checkpoint_cnn_combined.json",
    "training_log_cnn_combined.jsonl",
    "report_cnn_combined_test.json",
    "predictions.tsv",
    "plot.csv",
    "plot.svg",
)


def run_pipeline(out):
    base = ["--data", FIXTURE, "--out", out, "--seed", "7"]
    for args in (
        ["prepare", *base],
        ["train", *base],
        ["evaluate", *base],
        ["predict", *base],
        ["plot", *base, "--n", "15"],
    ):
        r = run_cli(args)
        assert r.returncode == 0, (args[0], r.stderr)


def test_pipeline_determinism(criterion, tmp_path):
    started = time.perf_counter()
    run_pipeline(tmp_path / "a")
    single_run = time.perf_counter() - started
    run_pipeline(tmp_path / "b")
    differing = [
        name
        for name in PIPELINE_FILES
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    ok = not differing and single_run < 60.0
    criterion(
        "pipeline determinism",
        ok,
        f"two full runs on the 120-row fixture: {len(PIPELINE_FILES)} artifacts "
        f"byte-identical"
        + (f" except {differing}" if differing else "")
        + f"; one run takes {single_run:.0f}s (<60s)",
    )
    assert not differing, differing
    assert single_run < 60.0


# 8. shape parity


def test_shape_parity(criterion):
    cnn = build_model(
        ModelConfig(arch="cnn", mode="text_only", vocab_size=30),
        np.random.default_rng(0),
    )
    emb, conv1, pool1, act1, conv2, foldl, pool2, _, _ = cnn.text_branch.layers
    ids = np.zeros((1, 30), dtype=np.int64)
    x = emb.forward(ids)
    embedded = x.shape  # (1, 100, 30)
    padded_positions = x.shape[2] + 2 * conv1.pad  # 30 + 98 = 128
    x = act1.forward(pool1.forward(conv1.forward(x)))
    pooled_l1 = x.shape[1:]  # (64, 5)
    x = foldl.forward(conv2.forward(x))
    folded_channels = x.shape[1]  # 32

    rnn = build_model(
        ModelConfig(arch="rnn", mode="text_only", vocab_size=30),
        np.random.default_rng(0),
    )
    rnn_params = sum(
        p.value.size for p in rnn.params() if p.name.startswith("text.rnn.")
    )

    ok = (
        embedded == (1, 100, 30)
        and padded_positions == 128
        and pooled_l1 == (64, 5)
        and folded_channels == 32
        and rnn_params == 4256
    )
    criterion(
        "shape parity",
        ok,
        f"embedding (100x30) padded to {padded_positions} positions, layer-1 "
        f"pooled map {pooled_l1[0]}x{pooled_l1[1]}, {folded_channels} channels "
        f"after folding, text-branch rnn holds {rnn_params} parameters",
    )
    assert ok
