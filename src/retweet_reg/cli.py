"""Command-line surface: prepare, train, evaluate, predict, gradcheck, plot.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure
(non-finite values or a failed gradient check). Primary outputs carry no
timestamps, so identical inputs and seeds give byte-identical files.
"""

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_run_config
from .data import (
    FEATURE_NAMES,
    build_vocab,
    encode_records,
    engineer_features,
    fit_scaler,
    load_scaler,
    load_splits,
    load_tsv,
    load_vocab,
    save_scaler,
    save_splits,
    save_vocab,
    split_indices,
    tokenize,
)
from .errors import (
    BuildError,
    DataFormatError,
    NumericError,
    RetweetRegError,
    UsageError,
    ValidationError,
)
from .gradcheck import run_all
from .jsonio import write_json, write_jsonl
from .metrics import compute_report
from .models import (
    MODES,
    TARGET_TRANSFORMS,
    build_model,
    load_checkpoint,
    predict_dataset,
    save_checkpoint,
)
from .optim import fit
from .seeding import derive_seed
from .svgplot import scatter_svg

PLOT_COLUMNS = {
    "numeric_only": "predicted_numeric",
    "text_only": "predicted_text",
    "combined": "predicted_combined",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage errors are 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


@functools.cache  # once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration file")
    common.add_argument("--data", metavar="PATH", help="dataset TSV")
    common.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    common.add_argument("--seed", type=int, help="base seed for every random choice")
    common.add_argument("--arch", choices=("cnn", "rnn"))
    common.add_argument("--mode", choices=MODES)
    # only train takes these; the other commands read the checkpoint
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--epochs", type=int)
    training.add_argument("--batch", type=int, dest="batch_size", help="mini-batch size")
    training.add_argument("--lr", type=float, dest="learning_rate", help="Adam learning rate")
    training.add_argument(
        "--target-transform", choices=sorted(TARGET_TRANSFORMS), dest="target_transform"
    )

    parser = _Parser(
        prog="retweet-reg",
        description="Retweet-count regression from numeric features, tweet text, or both.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser(
        "prepare", parents=[common],
        help="parse the dataset, fit scaler and vocabulary, write split indices",
    )
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser(
        "train", parents=[common, training],
        help="train a model and keep the best-validation checkpoint",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "evaluate", parents=[common], help="metrics report for a split"
    )
    p.add_argument("--checkpoint", metavar="PATH")
    p.add_argument("--split", choices=("train", "validation", "test"), default="test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "predict", parents=[common], help="per-tweet predictions for a TSV"
    )
    p.add_argument("--checkpoint", metavar="PATH")
    p.add_argument("--input", metavar="PATH", help="TSV to predict (default: --data)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "gradcheck", parents=[common],
        help="finite-difference verification of every gradient",
    )
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser(
        "plot", parents=[common],
        help="actual-vs-predicted CSV and SVG over sampled test tweets",
    )
    p.add_argument(
        "--checkpoint", metavar="PATH", action="append",
        help="repeatable, one checkpoint per input mode",
    )
    p.add_argument("--n", type=int, default=50, help="test tweets to sample (default 50)")
    p.set_defaults(func=cmd_plot)
    return parser


def resolve_config(args, require_data: bool = True) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    # each flag's dest is the field it sets; a flag left out keeps the file's value
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate(require_data=require_data)
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _artifact_paths(cfg: RunConfig):
    out = Path(cfg.out)
    return out / "vocab.json", out / "scaler.json", out / "splits.json"


def _default_checkpoint(cfg: RunConfig) -> Path:
    return Path(cfg.out) / f"checkpoint_{cfg.arch}_{cfg.mode}.json"


def _load_prepared(cfg: RunConfig):
    vocab_path, scaler_path, splits_path = _artifact_paths(cfg)
    for p in (vocab_path, scaler_path, splits_path):
        if not p.exists():
            raise DataFormatError(f"missing artifact {p}; run prepare first")
    vocab = load_vocab(vocab_path)
    scaler = load_scaler(scaler_path)
    splits = load_splits(splits_path)
    records, _ = load_tsv(cfg.data)
    covered = sum(len(splits[k]) for k in ("train", "validation", "test"))
    if covered != len(records):
        raise DataFormatError(
            f"split file covers {covered} records but {cfg.data} parses to "
            f"{len(records)}; re-run prepare"
        )
    return records, vocab, scaler, splits


def _load_model(cfg: RunConfig, checkpoint_arg, vocab):
    """The checkpoint's model and its path, checked against the prepared
    vocabulary and the numeric features."""
    path = Path(checkpoint_arg) if checkpoint_arg else _default_checkpoint(cfg)
    if not path.exists():
        raise DataFormatError(f"missing checkpoint {path}; run train first")
    model = load_checkpoint(path)
    for field, want, source in (("vocab_size", len(vocab), _artifact_paths(cfg)[0]),
                                ("numeric_dim", len(FEATURE_NAMES), "the numeric features")):
        got = getattr(model.config, field)
        if got != want:
            raise BuildError(f"{path}: {field} {got} does not match {source} ({want})")
    return model, path


def _encode(records, scaler, vocab, seq_len, source):
    """encode_records; token ids too large to allocate name `source`, the
    file that set seq_len."""
    try:
        return encode_records(records, scaler, vocab, length=seq_len)
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from None


def cmd_prepare(args) -> int:
    cfg = resolve_config(args)
    # a line's features and text take about half the memory of its record
    rows, dropped = load_tsv(cfg.data, keep=lambda r: (engineer_features(r), r.text))
    if not rows:
        raise DataFormatError(f"{cfg.data}: no valid records")
    train_idx, valid_idx, test_idx = split_indices(len(rows), derive_seed(cfg.seed, "split"))
    train_rows = [rows[i] for i in train_idx]
    scaler = fit_scaler([features for features, _ in train_rows])
    vocab = build_vocab(tokenize(text) for _, text in train_rows if text)
    _out_dir(cfg)
    vocab_path, scaler_path, splits_path = _artifact_paths(cfg)
    save_vocab(vocab, vocab_path)
    save_scaler(scaler, scaler_path)
    save_splits(splits_path, cfg.seed, train_idx, valid_idx, test_idx)
    print(f"records: {len(rows)} valid, {dropped} dropped")
    print(
        f"splits: {len(train_idx)} train / {len(valid_idx)} validation / {len(test_idx)} test"
    )
    print(f"vocabulary: {len(vocab)} ids ({len(vocab) - 2} tokens)")
    print(f"artifacts: {vocab_path} {scaler_path} {splits_path}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    records, vocab, scaler, splits = _load_prepared(cfg)
    # seq_len and the layer sizes come from the --config file, if any
    train_ds, valid_ds = (
        _encode([records[i] for i in splits[name]], scaler, vocab, cfg.seq_len, args.config)
        for name in ("train", "validation")
    )
    try:
        model = build_model(
            cfg.to_model_config(len(vocab)),
            np.random.default_rng(derive_seed(cfg.seed, "init")),
        )
    except BuildError as exc:
        raise BuildError(f"{exc} ({args.config})" if args.config else str(exc)) from None
    log, best = fit(
        model,
        train_ds,
        valid_ds,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        seed=derive_seed(cfg.seed, "shuffle"),
        adam=cfg.to_adam_state(),
    )
    out = _out_dir(cfg)
    log_path = out / f"training_log_{cfg.arch}_{cfg.mode}.jsonl"
    write_jsonl(log_path, log)
    model.store.values[...] = best["params"]
    ckpt_path = _default_checkpoint(cfg)
    save_checkpoint(model, ckpt_path)
    print(f"best epoch: {best['epoch']} (validation mae {best['mae']})")
    print(f"checkpoint: {ckpt_path}")
    print(f"training log: {log_path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    records, vocab, scaler, splits = _load_prepared(cfg)
    model, ckpt = _load_model(cfg, args.checkpoint, vocab)
    dataset = _encode([records[i] for i in splits[args.split]], scaler, vocab,
                      model.config.seq_len, ckpt)
    report = compute_report(dataset.labels, predict_dataset(model, dataset))
    out = _out_dir(cfg)
    report_path = out / (
        f"report_{model.config.arch}_{model.config.mode}_{args.split}.json"
    )
    write_json(report_path, report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    cfg = resolve_config(args, require_data=False)
    input_path = args.input or cfg.data
    if not input_path:
        raise UsageError("no input TSV; pass --input or --data")
    vocab_path, scaler_path, _ = _artifact_paths(cfg)
    for p in (vocab_path, scaler_path):
        if not p.exists():
            raise DataFormatError(f"missing artifact {p}; run prepare first")
    vocab = load_vocab(vocab_path)
    scaler = load_scaler(scaler_path)
    model, ckpt = _load_model(cfg, args.checkpoint, vocab)
    records, _ = load_tsv(input_path, allow_missing_label=True, strict=True)
    needs_text = model.text_branch is not None
    usable = []
    for i, record in enumerate(records):
        if needs_text and not record.text:
            print(
                f"warning: record {i + 1} ({record.tweet_id}) has no text; "
                f"prediction marked null",
                file=sys.stderr,
            )
        else:
            usable.append(i)
    predictions = {}
    if usable:
        dataset = _encode([records[i] for i in usable], scaler, vocab, model.config.seq_len,
                          ckpt)
        predictions = dict(zip(usable, predict_dataset(model, dataset)))
    out = _out_dir(cfg)
    path = out / "predictions.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        for i, record in enumerate(records):
            value = predictions.get(i)
            cell = "null" if value is None else repr(float(value))
            fh.write(f"{record.tweet_id}\t{cell}\n")
    null_count = len(records) - len(usable)
    print(f"wrote {len(records)} predictions ({null_count} null): {path}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args, require_data=False)
    result = run_all(seed=cfg.seed)
    for name in sorted(result["layers"]):
        print(f"layer       {name:<22} {result['layers'][name]:.3e}")
    for name in sorted(result["end_to_end"]):
        print(f"end-to-end  {name:<22} {result['end_to_end'][name]:.3e}")
    if not result["passed"]:
        raise NumericError(
            f"gradient check failed: max error {result['max_error']:.3e} "
            f"exceeds tolerance {result['tolerance']:.0e}"
        )
    print(
        f"gradcheck: pass (max error {result['max_error']:.3e}, "
        f"tolerance {result['tolerance']:.0e})"
    )
    return 0


def cmd_plot(args) -> int:
    cfg = resolve_config(args)
    records, vocab, scaler, splits = _load_prepared(cfg)
    checkpoint_args = args.checkpoint or [None]
    # in the order of the plot's columns
    models = sorted((_load_model(cfg, p, vocab) for p in checkpoint_args),
                    key=lambda loaded: MODES.index(loaded[0].config.mode))
    modes = [m.config.mode for m, _ in models]
    if len(set(modes)) != len(modes):
        raise UsageError(f"checkpoints repeat a mode: {', '.join(sorted(modes))}")
    test_indices = splits["test"]
    n = args.n
    if n < 1:
        raise UsageError(f"--n must be positive, got {n}")
    if n > len(test_indices):
        print(
            f"warning: requested {n} samples but the test split holds "
            f"{len(test_indices)}; clamping",
            file=sys.stderr,
        )
        n = len(test_indices)
    rng = np.random.default_rng(derive_seed(cfg.seed, "plot-sample"))
    pick = np.sort(rng.choice(len(test_indices), size=n, replace=False))
    global_idx = [int(test_indices[i]) for i in pick]
    sampled = [records[i] for i in global_idx]
    columns = [("actual", [float(r.retweets) for r in sampled])]
    for model, ckpt in models:
        dataset = _encode(sampled, scaler, vocab, model.config.seq_len, ckpt)
        values = predict_dataset(model, dataset)
        columns.append((PLOT_COLUMNS[model.config.mode], [float(v) for v in values]))
    out = _out_dir(cfg)
    csv_path = out / "plot.csv"
    lines = [",".join(["index"] + [name for name, _ in columns])]
    for row in range(n):
        cells = [str(global_idx[row])]
        for name, values in columns:
            v = values[row]
            cells.append(str(int(v)) if name == "actual" else repr(v))
        lines.append(",".join(cells))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    svg_path = out / "plot.svg"
    svg_path.write_text(
        scatter_svg(columns, title="actual vs predicted retweet counts"),
        encoding="utf-8",
    )
    print(f"plotted {n} test samples: {csv_path} {svg_path}")
    return 0


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        raise UsageError("a command is required")
    return args.func(args)


def main(argv=None) -> int:
    try:
        return _run(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RetweetRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
