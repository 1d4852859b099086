"""Scenario files: JSON objects with complex entries as [re, im] pairs, loaded into a ``ScenarioFile``.

``ScenarioFile`` is the one value of a scenario: a file loads into it, and each
built-in scenario declares its own. ``scenarios.evaluate`` turns either into
the joint table and the declared transformation. A file the loader can
repair, such as a ``state_a`` that is not normalized, loads with a
``UserWarning``; a file it cannot use raises ``ScenarioFileError``.
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
    """One scenario: preparation, two labeled bases, optional action phases on m and pointer eigenvalues.

    A scenario file and a built-in scenario are both this value; ``scenarios.evaluate`` gives its joint
    table and, where ``action_phase`` is set, the transformation those phases declare.
    """

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


def _optional_reals(raw: dict[str, object], key: str, dim: int) -> tuple[float, ...] | None:
    # an absent or null key reads as None
    value = raw.get(key)
    if value is None:
        return None
    if (
        not isinstance(value, list)
        or len(value) != dim
        or not all(isinstance(entry, (int, float)) and not isinstance(entry, bool) for entry in value)
    ):
        raise ScenarioFileError(f"{key}: expected a list of {dim} numbers")
    values = tuple(_float(entry, key) for entry in value)
    if not all(math.isfinite(v) for v in values):
        raise ScenarioFileError(f"{key}: entries must be finite numbers, got {list(values)}")
    return values


def _basis(raw: dict[str, object], axis: str, dim: int) -> OrthonormalBasis:
    # basis_<axis>, labeled by labels_<axis>, or by <axis>0, <axis>1, ... where that key is absent or null;
    # the labels are checked first
    labels = raw.get(f"labels_{axis}")
    if labels is None:
        labels = [f"{axis}{k}" for k in range(dim)]
    elif not isinstance(labels, list) or len(labels) != dim or not all(isinstance(lab, str) for lab in labels):
        raise ScenarioFileError(f"labels_{axis}: expected a list of {dim} strings")
    where, rows = f"basis_{axis}", raw[f"basis_{axis}"]
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
        return OrthonormalBasis(tuple(labels), tuple(vectors))
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
    try:
        try:  # a state that passes the unit-norm test is kept as given, bit for bit
            state_a = StateVector(amp)
        except ValueError:  # normalize's one range test on the norm also rejects NaN, infinite and overflowing amplitudes
            state_a = StateVector.normalize(amp)
    except ValueError as exc:
        raise ScenarioFileError("state_a does not normalize to a valid state") from exc
    norm = float(np.linalg.norm(amp))  # finite now: normalize accepted it
    if abs(norm - 1.0) > _NORM_WARN:
        warnings.warn(f"state_a renormalized (norm was {norm:.12g})", stacklevel=2)

    return ScenarioFile(
        state_a=state_a,
        basis_m=_basis(raw, "m", dim),
        basis_b=_basis(raw, "b", dim),
        action_phase=_optional_reals(raw, "action_phase", dim),
        kappa=_optional_reals(raw, "kappa", dim),
    )


def load_scenario_file(path: str | Path) -> ScenarioFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFileError(f"cannot read {path}: {exc}") from exc
    return parse_scenario_text(text)
