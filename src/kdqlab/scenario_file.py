"""User scenario files: JSON objects with complex entries as [re, im] pairs.

A file the loader can repair, such as a ``state_a`` that is not normalized,
loads with a ``UserWarning``; a file it cannot use raises ``ScenarioFileError``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .qcore import MAX_DIM, OrthonormalBasis, StateVector

_ALLOWED_KEYS = {
    "dim",
    "state_a",
    "basis_m",
    "basis_b",
    "action_phase",
    "labels_m",
    "labels_b",
    "kappa",
}

# normalization corrections larger than this are reported as a UserWarning
_NORM_WARN = 1e-6


class ScenarioFileError(ValueError):
    """The scenario file cannot be parsed into a valid configuration."""


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed user configuration: preparation, two bases, optional extras."""

    state_a: StateVector
    basis_m: OrthonormalBasis
    basis_b: OrthonormalBasis
    action_phase: tuple[float, ...] | None
    kappa: tuple[float, ...] | None


def _float(value: int | float, where: str) -> float:
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ScenarioFileError(f"{where}: {exc}") from exc


def _complex_pair(value: object, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in value)
    ):
        raise ScenarioFileError(f"{where}: complex entries must be [re, im] number pairs, got {value!r}")
    return complex(_float(value[0], where), _float(value[1], where))


def _complex_vector(value: object, dim: int, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        raise ScenarioFileError(f"{where}: expected a list of {dim} [re, im] pairs")
    return np.array([_complex_pair(entry, f"{where}[{k}]") for k, entry in enumerate(value)])


def _real_list(value: object, dim: int, where: str) -> tuple[float, ...]:
    if (
        not isinstance(value, list)
        or len(value) != dim
        or not all(isinstance(entry, (int, float)) and not isinstance(entry, bool) for entry in value)
    ):
        raise ScenarioFileError(f"{where}: expected a list of {dim} numbers")
    values = tuple(_float(entry, where) for entry in value)
    if not all(math.isfinite(v) for v in values):
        raise ScenarioFileError(f"{where}: entries must be finite numbers, got {list(values)}")
    return values


def _labels(value: object, dim: int, prefix: str, where: str) -> tuple[str, ...]:
    if value is None:
        return tuple(f"{prefix}{k}" for k in range(dim))
    if not isinstance(value, list) or len(value) != dim or not all(isinstance(lab, str) for lab in value):
        raise ScenarioFileError(f"{where}: expected a list of {dim} strings")
    return tuple(value)


def _basis(rows: object, labels: tuple[str, ...], dim: int, where: str) -> OrthonormalBasis:
    if not isinstance(rows, list) or len(rows) != dim:
        raise ScenarioFileError(f"{where}: expected {dim} basis vectors (rows)")
    vectors = []
    for k, row in enumerate(rows):
        amp = _complex_vector(row, dim, f"{where}[{k}]")
        try:
            vectors.append(StateVector(amp))
        except ValueError as exc:
            raise ScenarioFileError(f"{where}[{k}]: {exc}") from exc
    try:
        return OrthonormalBasis(labels, tuple(vectors))
    except ValueError as exc:
        raise ScenarioFileError(f"{where}: {exc}") from exc


def parse_scenario_text(text: str) -> ScenarioFile:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also integers over 4300 digits and nesting too deep
        raise ScenarioFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioFileError("top-level value must be a JSON object")
    unknown = sorted(set(raw) - _ALLOWED_KEYS)
    if unknown:
        raise ScenarioFileError(f"unknown keys {unknown}; allowed keys are {sorted(_ALLOWED_KEYS)}")
    for required in ("dim", "state_a", "basis_m", "basis_b"):
        if required not in raw:
            raise ScenarioFileError(f"missing required key {required!r}")

    dim = raw["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= MAX_DIM:
        raise ScenarioFileError(f"dim must be an integer in 1..{MAX_DIM}, got {dim!r}")

    amp = _complex_vector(raw["state_a"], dim, "state_a")
    try:  # normalize's one range test on the norm also rejects NaN, infinite and overflowing amplitudes
        state_a = StateVector.normalize(amp)
    except ValueError as exc:
        raise ScenarioFileError("state_a does not normalize to a valid state") from exc
    norm = float(np.linalg.norm(amp))  # finite now: normalize accepted it
    if abs(norm - 1.0) > _NORM_WARN:
        warnings.warn(f"state_a renormalized (norm was {norm:.12g})", stacklevel=2)

    basis_m = _basis(raw["basis_m"], _labels(raw.get("labels_m"), dim, "m", "labels_m"), dim, "basis_m")
    basis_b = _basis(raw["basis_b"], _labels(raw.get("labels_b"), dim, "b", "labels_b"), dim, "basis_b")

    action_phase = None
    if raw.get("action_phase") is not None:
        action_phase = _real_list(raw["action_phase"], dim, "action_phase")
    kappa = None
    if raw.get("kappa") is not None:
        kappa = _real_list(raw["kappa"], dim, "kappa")

    return ScenarioFile(
        state_a=state_a,
        basis_m=basis_m,
        basis_b=basis_b,
        action_phase=action_phase,
        kappa=kappa,
    )


def load_scenario_file(path: str | Path) -> ScenarioFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFileError(f"cannot read {path}: {exc}") from exc
    return parse_scenario_text(text)
