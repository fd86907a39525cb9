"""Regressor assembly: CNN and RNN architectures in three input modes.

A model is one or two branches (text, numeric) whose flattened outputs
go into a single dense output unit. In combined mode the text block
comes first in the concatenation, so the head weight's leading columns
belong to the text branch.
"""

import base64
from dataclasses import asdict, dataclass, fields
from itertools import zip_longest
from typing import Optional

import numpy as np

from .errors import BuildError, DataFormatError, InferenceError, NumericError, ValidationError
from .jsonio import read_json, write_json
from .nn import (
    Activation,
    Conv1d,
    Dense,
    Embedding,
    Flatten,
    Fold,
    KMaxPool,
    ParamStore,
    Sequential,
    SimpleRnn,
)

ARCHITECTURES = ("cnn", "rnn")
MODES = ("numeric_only", "text_only", "combined")
# label transform applied before the loss, and its inverse, which turns
# the model's outputs back into retweet counts
TARGET_TRANSFORMS = {
    "none": (lambda y: y, lambda z: z),
    "log1p": (np.log1p, np.expm1),
}
CHECKPOINT_VERSION = 4
# a checkpoint's parameter values: the raw little-endian float64 bytes of
# the store vector, base64-encoded, so they round-trip bit for bit
CHECKPOINT_DTYPE = "<f8"


@dataclass
class ModelConfig:
    arch: str = "cnn"
    mode: str = "combined"
    vocab_size: int = 2
    embed_dim: int = 100
    seq_len: int = 30
    pad: int = 49
    filters_l1: int = 64
    filters_l2: int = 64
    filter_width: int = 3
    k_pool: int = 5
    rnn_hidden: int = 32
    numeric_dim: int = 12
    cnn_activation: str = "relu"
    target_transform: str = "none"

    def validate(self) -> None:
        # every field, a subclass's too; float fields take ints, none takes a bool
        for f in fields(self):
            value = getattr(self, f.name)
            allowed = (int, float) if f.type is float else f.type
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise BuildError(f"{f.name} must be of type {f.type.__name__}, got {value!r}")
        if self.arch not in ARCHITECTURES:
            raise BuildError(f"arch must be one of {ARCHITECTURES}, got {self.arch!r}")
        if self.mode not in MODES:
            raise BuildError(f"mode must be one of {MODES}, got {self.mode!r}")
        for field in ("vocab_size", "embed_dim", "seq_len", "filters_l1", "filters_l2",
                      "filter_width", "k_pool", "rnn_hidden", "numeric_dim"):
            if getattr(self, field) < 1:
                raise BuildError(f"{field} must be positive, got {getattr(self, field)}")
        if self.pad < 0:
            raise BuildError(f"pad must be non-negative, got {self.pad}")
        if self.vocab_size < 2:
            raise BuildError("vocab_size must cover the pad and oov ids")
        if self.seq_len + 2 * self.pad < self.filter_width:
            raise BuildError(
                f"padded sequence length {self.seq_len + 2 * self.pad} is shorter "
                f"than the filter width {self.filter_width}"
            )
        if self.filters_l2 % 2:
            raise BuildError(f"filters_l2 must be even for folding, got {self.filters_l2}")
        if self.cnn_activation not in ("relu", "tanh"):
            raise BuildError(f"cnn_activation must be relu or tanh, got {self.cnn_activation!r}")
        if self.target_transform not in TARGET_TRANSFORMS:
            raise BuildError(
                f"target_transform must be one of {sorted(TARGET_TRANSFORMS)}, "
                f"got {self.target_transform!r}"
            )


class Model:
    """A mode-tagged regressor: optional text branch, optional numeric
    branch, and a dense head over the concatenated flattened features."""

    def __init__(self, config: ModelConfig, text_branch: Optional[Sequential],
                 numeric_branch: Optional[Sequential], head: Dense, text_width: int):
        self.config = config
        self.text_branch = text_branch
        self.numeric_branch = numeric_branch
        self.head = head
        self.text_width = text_width
        self.store = ParamStore(
            p for part in (text_branch, numeric_branch, head) if part is not None
            for p in part.params()
        )

    def params(self) -> ParamStore:
        return self.store

    def forward(self, numeric: Optional[np.ndarray] = None,
                token_ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Predictions on the transformed target scale. Overflow in a
        layer raises no numpy warning: a non-finite prediction raises
        NumericError below, as does NaN reaching a k-max pool."""
        with np.errstate(over="ignore", invalid="ignore"):
            parts = []
            if self.text_branch is not None:
                if token_ids is None:
                    raise InferenceError(f"mode {self.config.mode!r} needs token ids")
                parts.append(self.text_branch.forward(np.asarray(token_ids)))
            if self.numeric_branch is not None:
                if numeric is None:
                    raise InferenceError(f"mode {self.config.mode!r} needs numeric features")
                numeric = np.asarray(numeric, dtype=np.float64)
                if numeric.ndim != 2 or numeric.shape[1] != self.config.numeric_dim:
                    raise InferenceError(
                        f"numeric features must be (batch, {self.config.numeric_dim}), "
                        f"got {numeric.shape}"
                    )
                # one channel for the conv stack, 1-dim timesteps for the rnn
                parts.append(self.numeric_branch.forward(numeric[:, None, :]))
            feats = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
            out = self.head.forward(feats)[:, 0]
            if not np.all(np.isfinite(out)):
                raise NumericError("non-finite prediction in forward pass")
            return out

    def backward(self, grad_pred: np.ndarray) -> None:
        """Add every parameter gradient into the store. Overflow raises no
        numpy warning here either: optim.adam_step rejects a non-finite
        gradient, naming its parameter."""
        with np.errstate(over="ignore", invalid="ignore"):
            gfeats = self.head.backward(np.asarray(grad_pred, dtype=np.float64)[:, None])
            if self.text_branch is not None and self.numeric_branch is not None:
                self.text_branch.backward(gfeats[:, : self.text_width])
                self.numeric_branch.backward(gfeats[:, self.text_width :])
            elif self.text_branch is not None:
                self.text_branch.backward(gfeats)
            else:
                self.numeric_branch.backward(gfeats)


def _cnn_branch(cfg: ModelConfig, prefix: str, rng):
    """DCNN tower: wide conv -> k-max -> act -> wide conv -> fold -> k-max
    -> act -> flatten. Returns (branch, flattened width).

    A k-max pool reads each conv, so the conv pads only as far as the
    pool can reach (`Conv1d`'s pool_k); the fold between conv2 and its
    pool keeps the windows that see only padding equal. Only the text
    conv1 pads further than that, so only it gets shorter.

    The conv weights are drawn before the text embedding table; seeded
    weights depend on that order.
    """
    w, k = cfg.filter_width, cfg.k_pool
    if prefix == "text":
        in_channels, length, pad = cfg.embed_dim, cfg.seq_len, cfg.pad
    else:
        # the 12 features run through the same tower as a 1-channel
        # sequence; no 128-wide padding here, just width-1 each side
        in_channels, length, pad = 1, cfg.numeric_dim, w - 1
    layers = [
        Conv1d(in_channels, cfg.filters_l1, w, pad, rng, name=f"{prefix}.conv1", pool_k=k),
        KMaxPool(k),
        Activation(cfg.cnn_activation),
        Conv1d(cfg.filters_l1, cfg.filters_l2, w, w - 1, rng, name=f"{prefix}.conv2",
               pool_k=k),
        Fold(),
        KMaxPool(k),
        Activation(cfg.cnn_activation),
        Flatten(),
    ]
    if prefix == "text":
        # conv1 reads the embedding's rows once per distinct token id
        layers.insert(0, Embedding(cfg.vocab_size, cfg.embed_dim, rng, name="text.embed"))
    # pool sizes clamp to the incoming lengths; validate() keeps both positive
    l1 = length + 2 * pad - w + 1
    return Sequential(layers), (cfg.filters_l2 // 2) * min(k, min(k, l1) + w - 1)


def _rnn_branch(cfg: ModelConfig, prefix: str, rng):
    """Elman RNN over every timestep, flattened. Returns (branch,
    flattened width).

    The text embedding table is drawn before the text RNN's weights;
    seeded weights depend on that order."""
    if prefix == "text":
        # the rnn projects the embedding's rows once per distinct token id
        layers = [
            Embedding(cfg.vocab_size, cfg.embed_dim, rng, name="text.embed"),
            SimpleRnn(cfg.embed_dim, cfg.rnn_hidden, rng, name="text.rnn"),
        ]
        steps = cfg.seq_len
    else:
        layers = [SimpleRnn(1, cfg.rnn_hidden, rng, name="numeric.rnn")]
        steps = cfg.numeric_dim
    return Sequential([*layers, Flatten()]), cfg.rnn_hidden * steps


def build_model(cfg: ModelConfig, rng) -> Model:
    """Text branch, numeric branch, then head, in that order of weight
    draws; a branch the mode does not use is left out. A configuration
    too large to allocate is a BuildError."""
    cfg.validate()
    branch = _cnn_branch if cfg.arch == "cnn" else _rnn_branch
    text_branch = numeric_branch = None
    text_width = numeric_width = 0
    try:
        if cfg.mode != "numeric_only":
            text_branch, text_width = branch(cfg, "text", rng)
        if cfg.mode != "text_only":
            numeric_branch, numeric_width = branch(cfg, "numeric", rng)
        head = Dense(text_width + numeric_width, 1, rng, name="head.out")
        return Model(cfg, text_branch, numeric_branch, head, text_width)
    except MemoryError as exc:
        raise BuildError(f"model too large to allocate: {exc}") from None


def loss_mse(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and its gradient w.r.t. the predictions."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValidationError(
            f"prediction and target lengths differ: {pred.shape} vs {target.shape}"
        )
    n = pred.size
    if n == 0:
        raise ValidationError("cannot compute a loss over an empty batch")
    diff = pred - target
    with np.errstate(over="ignore"):  # reported by the check below
        loss = float(np.mean(diff * diff))
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss")
    return loss, 2.0 * diff / n


def predict_dataset(model: Model, dataset, batch_size: int = 256) -> np.ndarray:
    """Predicted retweet counts over a whole encoded dataset, in order:
    the model's outputs through the inverse of its target transform."""
    parts = []
    for start in range(0, len(dataset), batch_size):
        chunk = slice(start, start + batch_size)
        parts.append(
            model.forward(
                numeric=dataset.numeric[chunk], token_ids=dataset.token_ids[chunk]
            )
        )
    _, inverse_t = TARGET_TRANSFORMS[model.config.target_transform]
    return inverse_t(np.concatenate(parts) if parts else np.zeros(0))


# ---------------------------------------------------------------------------
# checkpoints

def _layout(store: ParamStore) -> list:
    return [[p.name, list(p.value.shape)] for p in store]


def save_checkpoint(model: Model, path) -> None:
    raw = model.store.values.astype(CHECKPOINT_DTYPE).tobytes()
    write_json(path, {
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "layout": _layout(model.store),
        "dtype": CHECKPOINT_DTYPE,
        "values": base64.b64encode(raw).decode("ascii"),
    })


def load_checkpoint(path) -> Model:
    try:
        payload = read_json(path, version=CHECKPOINT_VERSION)
    except DataFormatError as exc:
        raise BuildError(f"{exc}; re-run train to write a current checkpoint") from None
    config, layout, dtype, values = (
        payload.get(k) for k in ("config", "layout", "dtype", "values")
    )
    if not (isinstance(config, dict) and isinstance(layout, list) and isinstance(values, str)):
        raise BuildError(f"{path}: a checkpoint holds a config object, a layout list "
                         f"and a base64 values string")
    if dtype != CHECKPOINT_DTYPE:
        raise BuildError(f"{path}: dtype must be {CHECKPOINT_DTYPE!r}, got {dtype!r}")
    try:
        cfg = ModelConfig(**config)
    except TypeError as exc:
        raise BuildError(f"{path}: config does not match ModelConfig: {exc}") from None
    # build with a throwaway generator, then overwrite every parameter
    try:
        model = build_model(cfg, np.random.default_rng(0))
    except BuildError as exc:
        raise BuildError(f"{path}: {exc}") from None
    store = model.store
    pairs = zip_longest(layout, _layout(store), fillvalue="end of layout")
    for i, (got, want) in enumerate(pairs):
        if got != want:
            raise BuildError(f"{path}: layout entry {i}: found {got}, expected {want}")
    try:
        raw = base64.b64decode(values, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise BuildError(f"{path}: values is not valid base64") from None
    want_bytes = store.values.size * store.values.itemsize
    if len(raw) != want_bytes:
        raise BuildError(f"{path}: values must decode to {want_bytes} bytes "
                         f"({store.values.size} float64 numbers), got {len(raw)}")
    flat = np.frombuffer(raw, CHECKPOINT_DTYPE)
    name = store.first_nonfinite(flat)
    if name is not None:
        raise BuildError(f"{path}: parameter {name!r} holds non-finite values")
    store.values[...] = flat
    return model
