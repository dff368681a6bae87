"""Plain ``key = value`` configuration files for training and generation."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Union, get_type_hints

from .synth import SynthConfig


class ConfigError(Exception):
    """Unknown key, bad value, or unreadable config file."""


@dataclass
class TrainConfig:
    seed: int = 42
    d: int = 64                   # user embedding dimension
    L: int = 8                    # attention heads
    N: int = 10                   # walks sampled per (user, meta-path)
    l: int = 5                    # max walk length (>= longest pattern)
    E: int = 2000                 # reinforcement episodes
    T: int = 20                   # episode horizon
    gamma: float = 0.9
    epsilon: float = 0.18
    lam: float = 0.08             # entropy regularization weight
    lr_pretrain: float = 0.001
    lr_rl: float = 0.0001
    batch: int = 8                # users per pretrain update, episodes per RL update
    pretrain_episodes: int = 10_000


# Fields whose file key differs from the field name ("lambda" is a Python
# keyword); the field name itself is not accepted for them.
_FILE_KEY = {"lam": "lambda", "clicks_per_user": "clicks"}


def _parse_kv(path: Union[str, Path]) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
    return pairs


def _load(cls, path: Union[str, Path], kind: str):
    """A `cls` dataclass with the file's values cast to each field's type:
    float for float fields, int for every other (``Optional[int]`` too)."""
    hints = get_type_hints(cls)
    keys = {_FILE_KEY.get(f.name, f.name): f.name for f in fields(cls)}
    cfg = cls()
    for key, text in _parse_kv(path).items():
        name = keys.get(key)
        if name is None:
            raise ConfigError(f"{path}: unknown {kind} key {key!r}")
        caster = float if hints[name] is float else int
        try:
            setattr(cfg, name, caster(text))
        except ValueError:
            raise ConfigError(f"{path}: bad value {text!r} for key {key!r}") from None
    return cfg


def load_train_config(path: Union[str, Path]) -> TrainConfig:
    cfg = _load(TrainConfig, path, "training")
    if cfg.d % cfg.L != 0:
        raise ConfigError(f"{path}: L ({cfg.L}) must divide d ({cfg.d})")
    return cfg


def load_synth_config(path: Union[str, Path]) -> SynthConfig:
    return _load(SynthConfig, path, "generator")
