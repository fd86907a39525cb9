"""The benchmark's workloads and the loop that measures them.

Every workload is closed-loop with one client in one process: the next
operation starts when the previous one has returned. Each builds its
inputs from the seed alone, and checks the program's outputs as it goes.

- train_cnn: cnn/combined trained with `optim.fit`, one epoch per call,
  carrying the AdamState forward, on a 600-row planted-signal corpus.
  The text branch's first convolution and its k-max pool dominate an
  epoch; the data layer runs only in set-up.
- train_rnn: rnn/combined on the same corpus. No convolution: the
  recurrence, the embedding backward and Adam dominate. It is the
  control for any change to convolution or k-max pooling.
- score_cnn: one `prepare` over a 20,000-row corpus with planted
  malformed lines, a cnn/combined checkpoint trained in set-up, then a
  loop of `predict` calls through `retweet_reg.cli.main` on separate
  64-row TSVs. Forward only, plus checkpoint reads and parsing, so a
  change that speeds up training at their expense shows here.
"""

import io
import math
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import corpus
from retweet_reg import cli, data, models, optim
from retweet_reg.config import RunConfig
from retweet_reg.seeding import derive_seed

PREDICT_REL_TOL = 1e-9


class Workload:
    """Set-up, one timed operation, and the correctness checks around it.

    `failures` collects every failed check; an operation during which
    one is added counts as failed. Set-up runs SETUP_REPEATS times and
    its median is reported, so one slow repetition does not decide
    setup_s."""

    SETUP_REPEATS = 5

    def __init__(self, seed: int, work: Path, tracer):
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.tracer = tracer
        self.trace_setup = False
        self.failures = []
        self.prepare_rows_per_s = []
        self.val_mae = None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"check failed: {message}", file=sys.stderr)

    @contextmanager
    def traced(self):
        """Trace the enclosed set-up step on the set-up repetition chosen
        for tracing; warm-up and model training in set-up stay untraced."""
        self.tracer.active = self.trace_setup
        try:
            yield
        finally:
            self.tracer.active = False

    def command(self, argv) -> tuple:
        """Run one command through `cli.main`; returns (exit code,
        seconds, captured output)."""
        buf = io.StringIO()
        with self.tracer.span(f"cli.{argv[0]}"), redirect_stdout(buf), redirect_stderr(buf):
            started = time.perf_counter()
            code = cli.main([str(a) for a in argv])
            elapsed = time.perf_counter() - started
        return code, elapsed, buf.getvalue()

    def prepare(self, path: Path, lines: int, dropped: int) -> None:
        with self.traced():
            code, elapsed, output = self.command(
                ["prepare", "--data", path, "--out", self.out, "--seed", self.seed])
        self.check(code == 0, f"prepare exited {code}: {output}")
        expected = f"records: {lines - dropped} valid, {dropped} dropped"
        self.check(expected in output, f"prepare reported {output!r}, planted {expected!r}")
        self.prepare_rows_per_s.append(lines / elapsed)

    def check_quality(self, mae: float, baseline: float) -> None:
        self.check(
            math.isfinite(mae) and mae < baseline,
            f"validation mae {mae} is not below the training-mean baseline {baseline}",
        )

    def done(self) -> bool:
        """Whether the run has what it needs to report (val_mae)."""
        return self.val_mae is not None


def _baseline_mae(train, valid) -> float:
    return float(np.mean(np.abs(valid.labels - train.labels.mean())))


class TrainWorkload(Workload):
    """Train from scratch for a fixed number of epochs, then start again
    with the same initial weights; every repetition must reach the same
    validation MAE. One operation is one epoch."""

    ROWS = 600
    unit = "epoch"

    def __init__(self, seed, work, tracer, arch: str, epochs: int):
        super().__init__(seed, work, tracer)
        self.arch = arch
        self.epochs = epochs
        self.model = None
        self.epoch = 0

    def set_up(self) -> None:
        path = self.work / "data.tsv"
        corpus.write_tsv(path, corpus.planted_rows(self.ROWS, derive_seed(self.seed, "corpus")))
        self.prepare(path, self.ROWS, 0)
        self.cfg = RunConfig(data=str(path), out=str(self.out), seed=self.seed,
                             arch=self.arch, mode="combined")
        # the loading steps of `train`, in its order
        with self.traced():
            vocab = data.load_vocab(self.out / "vocab.json")
            scaler = data.load_scaler(self.out / "scaler.json")
            splits = data.load_splits(self.out / "splits.json")
            records, _ = data.load_tsv(path)
            self.train, self.valid = (
                data.encode_records([records[i] for i in splits[part]], scaler, vocab,
                                    length=self.cfg.seq_len)
                for part in ("train", "validation")
            )
        self.model_config = self.cfg.to_model_config(len(vocab))
        self.baseline = _baseline_mae(self.train, self.valid)
        self.model = None
        self._fit_epoch(self._build(), self.cfg.to_adam_state(), 1)  # warm-up

    def _build(self):
        return models.build_model(
            self.model_config, np.random.default_rng(derive_seed(self.seed, "init")))

    def _fit_epoch(self, model, adam, epoch: int) -> dict:
        log, _ = optim.fit(
            model, self.train, self.valid, epochs=1, batch_size=self.cfg.batch_size,
            seed=derive_seed(self.seed, f"shuffle-{epoch}"), adam=adam,
        )
        return log[0]

    def op(self) -> tuple:
        if self.model is None or self.epoch == self.epochs:
            self.model = self._build()
            self.tracer.watch_model(self.model)
            self.adam = self.cfg.to_adam_state()
            self.epoch = 0
        self.epoch += 1
        started = time.perf_counter()
        entry = self._fit_epoch(self.model, self.adam, self.epoch)
        elapsed = time.perf_counter() - started
        if self.epoch == self.epochs:
            mae = entry["validation"]["mae"]
            self.check_quality(mae, self.baseline)
            if self.val_mae is None:
                self.val_mae = mae
            self.check(mae == self.val_mae,
                       f"repeated training reached mae {mae}, first reached {self.val_mae}")
        return elapsed, len(self.train)


class ScoreWorkload(Workload):
    """Prepare a large corpus, then score 64-row TSVs with `predict`.
    One operation is one `predict` call."""

    SETUP_REPEATS = 3  # each set-up trains a checkpoint
    ROWS = 20_000
    MALFORMED_SHARE = 0.04
    INPUTS = 16
    INPUT_ROWS = 64
    # the checkpoint only has to be better than the mean predictor, so it
    # trains briefly at a raised learning rate
    CKPT_TRAIN_ROWS = 400
    CKPT_VALID_ROWS = 100
    CKPT_EPOCHS = 4
    CKPT_LEARNING_RATE = 0.01
    unit = "call"

    def __init__(self, seed, work, tracer):
        super().__init__(seed, work, tracer)
        self.calls = 0

    def set_up(self) -> None:
        path = self.work / "corpus.tsv"
        rows, planted = corpus.with_malformed(
            corpus.planted_rows(self.ROWS, derive_seed(self.seed, "corpus")),
            self.MALFORMED_SHARE, derive_seed(self.seed, "malformed"),
        )
        corpus.write_tsv(path, rows)
        self.prepare(path, self.ROWS, sum(planted.values()))

        first_id = self.ROWS
        files = {}
        for name, n in (("ckpt_train", self.CKPT_TRAIN_ROWS), ("ckpt_valid", self.CKPT_VALID_ROWS),
                        *((f"input{k:02d}", self.INPUT_ROWS) for k in range(self.INPUTS))):
            files[name] = self.work / f"{name}.tsv"
            corpus.write_tsv(files[name],
                             corpus.planted_rows(n, derive_seed(self.seed, name), first_id))
            first_id += n
        self.inputs = [files[f"input{k:02d}"] for k in range(self.INPUTS)]

        vocab = data.load_vocab(self.out / "vocab.json")
        scaler = data.load_scaler(self.out / "scaler.json")
        cfg = RunConfig(seed=self.seed, arch="cnn", mode="combined",
                        learning_rate=self.CKPT_LEARNING_RATE)

        def encode(path):
            records, _ = data.load_tsv(path, allow_missing_label=True, strict=True)
            return data.encode_records(records, scaler, vocab, length=cfg.seq_len)

        train, valid = encode(files["ckpt_train"]), encode(files["ckpt_valid"])
        model = models.build_model(cfg.to_model_config(len(vocab)),
                                   np.random.default_rng(derive_seed(self.seed, "init")))
        log, _ = optim.fit(model, train, valid, epochs=self.CKPT_EPOCHS,
                           batch_size=cfg.batch_size, seed=derive_seed(self.seed, "shuffle"),
                           adam=cfg.to_adam_state())
        self.val_mae = log[-1]["validation"]["mae"]
        self.check_quality(self.val_mae, _baseline_mae(train, valid))
        with self.traced():
            models.save_checkpoint(model, self.out / "checkpoint_cnn_combined.json")
        self.expected = [models.predict_dataset(model, encode(p)) for p in self.inputs]
        self._predict(0)  # warm-up

    def _predict(self, k: int) -> float:
        code, elapsed, output = self.command(["predict", "--out", self.out, "--input", self.inputs[k]])
        self.check(code == 0, f"predict exited {code}: {output}")
        if code == 0:
            lines = (self.out / "predictions.tsv").read_text(encoding="utf-8").splitlines()
            got = np.array([float(line.split("\t")[1]) for line in lines])
            want = self.expected[k]
            self.check(
                got.shape == want.shape
                and bool(np.all(np.abs(got - want) <= PREDICT_REL_TOL * np.abs(want))),
                f"predict output for {self.inputs[k].name} differs from predict_dataset",
            )
        return elapsed

    def op(self) -> tuple:
        k = self.calls % self.INPUTS
        self.calls += 1
        return self._predict(k), self.INPUT_ROWS


WORKLOADS = {
    "train_cnn": lambda seed, work, tracer: TrainWorkload(seed, work, tracer, "cnn", epochs=12),
    "train_rnn": lambda seed, work, tracer: TrainWorkload(seed, work, tracer, "rnn", epochs=40),
    "score_cnn": ScoreWorkload,
}


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.crashed = False

    def run(self, workload, fn):
        """Call fn() as one operation. An exception is reported and ends
        the run; a failed check marks the operation failed."""
        before = len(workload.failures)
        self.attempted += 1
        try:
            result = fn()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.crashed = True
            return None
        if len(workload.failures) > before:
            self.failed += 1
        return result


def measure_setup(workload, tally: Tally, traced: bool) -> list:
    """Set up the workload's SETUP_REPEATS times; returns the seconds of
    each. With `traced`, the last repetition's data work is traced."""
    seconds = []
    for rep in range(workload.SETUP_REPEATS):
        workload.trace_setup = traced and rep == workload.SETUP_REPEATS - 1
        started = time.perf_counter()
        tally.run(workload, workload.set_up)
        seconds.append(time.perf_counter() - started)
        if tally.crashed:
            break
    return seconds


def measure_ops(workload, tally: Tally, seconds: float, finish: bool) -> tuple:
    """Run operations until `seconds` have passed (and, with `finish`,
    until the workload is done). Returns (op seconds, examples)."""
    times = []
    examples = 0
    deadline = time.perf_counter() + seconds
    while not tally.crashed and (
        time.perf_counter() < deadline or (finish and not workload.done())
    ):
        result = tally.run(workload, workload.op)
        if result is not None:
            times.append(result[0])
            examples += result[1]
    return times, examples
