"""Pipeline configuration and the flat key=value config-file format.

Config files hold one ``key = value`` assignment per line (TOML scalar
syntax: ints, floats, booleans, quoted strings; ``#`` starts a comment).
Command-line flags override file values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .features import ExtractionConfig
from .gmm import FitConfig

# Python types accepted for each annotated field type; bool is a subclass of
# int, so it is excluded from the numeric fields separately.
_ACCEPTED_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def check_type(name: str, value, kind: str) -> None:
    """Raise TypeError unless ``value`` is of ``kind`` ("int", "float",
    "bool" or "str"); ints pass as floats, bools pass only as bools."""
    if isinstance(value, bool) != (kind == "bool") or not isinstance(
        value, _ACCEPTED_TYPES[kind]
    ):
        raise TypeError(f"{name} must be {kind}, got {value!r}")


def check_field_types(obj) -> None:
    """``check_type`` every field of dataclass ``obj`` annotated with one of
    those kinds or a fixed-length tuple of them (a list passes as a tuple).
    Fields of other types are left alone."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type.startswith("tuple["):
            kinds = [k.strip() for k in f.type[len("tuple["):-1].split(",")]
            if not isinstance(value, (tuple, list)) or len(value) != len(kinds):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
            for item, kind in zip(value, kinds):
                check_type(f.name, item, kind)
        elif f.type in _ACCEPTED_TYPES:
            check_type(f.name, value, f.type)


@dataclass
class PipelineConfig:
    """End-to-end parameters; the defaults reproduce the reference protocol
    (threshold 40, stride 2, 25-frame windows, 1024 components for full-scale
    runs; synthetic desk-scale runs typically use n_components = 4)."""

    tau: float = 40.0
    frame_stride: int = 2
    window_frames: int = 25
    n_components: int = 1024
    em_max_iters: int = 200
    em_rel_tol: float = 1e-5
    var_floor: float = 1e-3
    kmeans_iters: int = 20
    hs_alpha: float = 15.0
    hs_iters: int = 200
    seed: int = 0
    per_scenario: bool = False

    def __post_init__(self) -> None:
        try:
            check_field_types(self)
            self.extraction_config()
            self.fit_config()
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if self.window_frames < 1:
            raise ConfigError("window_frames must be >= 1")

    def extraction_config(self) -> ExtractionConfig:
        return ExtractionConfig(self.tau, self.frame_stride, self.hs_alpha, self.hs_iters)

    def fit_config(self, seed: int | None = None) -> FitConfig:
        return FitConfig(
            self.n_components,
            max_iters=self.em_max_iters,
            rel_tol=self.em_rel_tol,
            var_floor=self.var_floor,
            seed=self.seed if seed is None else seed,
            kmeans_iters=self.kmeans_iters,
        )

    def retained_window(self) -> int:
        """Window length in retained frames: the configured original-frame
        window divided by the stride, rounded up."""
        return math.ceil(self.window_frames / self.frame_stride)


def _parse_scalar(text: str, path, lineno: int):
    text = text.strip()
    if text.startswith(('"', "'")):
        if len(text) < 2 or text[-1] != text[0]:
            raise ConfigError(f"{path}:{lineno}: unterminated string")
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: cannot parse value {text!r}") from None


def read_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    values = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        comment = raw.find("#")
        if comment >= 0 and not raw.strip().startswith(('"', "'")):
            raw = raw[:comment]
        values[key.strip()] = _parse_scalar(raw, path, lineno)
    return values


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Build a PipelineConfig from an optional file plus overrides (flag
    values win over file values). Unknown keys are an error."""
    values = read_config_file(path) if path is not None else {}
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    known = {f.name for f in fields(PipelineConfig)}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return PipelineConfig(**values)
