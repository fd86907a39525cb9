"""Run configuration: everything a command needs beyond the dataset.

A run is reproducible from the dataset file plus one RunConfig; every
random choice downstream derives from the single seed here.
"""

import dataclasses
import sys
from dataclasses import dataclass, field

from .data import FEATURE_NAMES
from .errors import BuildError, DataFormatError, UsageError
from .jsonio import read_json
from .models import ModelConfig
from .optim import AdamState


@dataclass
class RunConfig(ModelConfig):
    """The model fields and their defaults come from ModelConfig, except
    two that are not settable here: the prepared vocabulary decides
    vocab_size (see to_model_config), and feature engineering decides
    numeric_dim."""

    vocab_size: int = field(default=ModelConfig.vocab_size, init=False, repr=False)
    numeric_dim: int = field(default=len(FEATURE_NAMES), init=False, repr=False)
    data: str = ""
    out: str = "out"
    seed: int = 7
    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 0.001

    def validate(self, require_data: bool = True) -> None:
        if require_data and not self.data:
            raise UsageError("no dataset given; pass --data or set it in the config file")
        try:
            super().validate()
        except BuildError as exc:
            raise UsageError(str(exc)) from None
        if self.epochs < 1:
            raise UsageError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise UsageError(f"batch size must be positive, got {self.batch_size}")
        if not 0 < self.learning_rate <= sys.float_info.max:  # False for NaN too
            raise UsageError(
                f"learning rate must be finite and positive, got {self.learning_rate}"
            )

    def to_model_config(self, vocab_size: int) -> ModelConfig:
        model = {f.name: getattr(self, f.name) for f in dataclasses.fields(ModelConfig)}
        return ModelConfig(**{**model, "vocab_size": vocab_size})

    def to_adam_state(self) -> AdamState:
        return AdamState(alpha=self.learning_rate)


def load_run_config(path) -> RunConfig:
    """Read a RunConfig from a JSON file; unknown keys are rejected so
    typos do not silently fall back to defaults. Each error names the
    file, a bad value too, even one that a flag would override."""
    try:
        payload = read_json(path)
    except DataFormatError as exc:
        raise UsageError(str(exc)) from None
    known = {f.name for f in dataclasses.fields(RunConfig) if f.init}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise UsageError(f"{path}: unknown config keys: {', '.join(unknown)}")
    cfg = RunConfig(**payload)
    try:
        cfg.validate(require_data=False)
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from None
    return cfg
