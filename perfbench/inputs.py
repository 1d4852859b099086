"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the workload seed: the same seed gives
the same configurations and byte-identical scenario files. Generators use
only numpy, never the program under test, so they cannot hide its defects.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ENGINE_DIMS = (2, 3, 4, 8, 16)


def rng_for(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tag])


def haar_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via phase-fixed QR; its columns are the basis vectors."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag)).conj()


def haar_config(rng: np.random.Generator, dim: int) -> dict:
    """Preparation, two bases (as rows) and two action-phase spectra."""
    return {
        "dim": dim,
        "state_a": haar_state(rng, dim),
        "basis_m": haar_unitary(rng, dim).T.copy(),
        "basis_b": haar_unitary(rng, dim).T.copy(),
        "phase": rng.uniform(-math.pi, math.pi, dim),
        "other_phase": rng.uniform(-math.pi, math.pi, dim),
    }


def _pairs(vector: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vector]


def scenario_file_payload(config: dict, action_phase: bool = False, kappa: tuple | None = None) -> dict:
    """JSON object in the program's scenario-file format."""
    payload = {
        "dim": config["dim"],
        "state_a": _pairs(config["state_a"]),
        "basis_m": [_pairs(row) for row in config["basis_m"]],
        "basis_b": [_pairs(row) for row in config["basis_b"]],
    }
    if action_phase:
        payload["action_phase"] = [float(p) for p in config["phase"]]
    if kappa is not None:
        payload["kappa"] = [float(k) for k in kappa]
    return payload


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    return path
