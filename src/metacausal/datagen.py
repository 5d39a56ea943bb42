"""Synthetic bivariate switching-mechanism datasets.

Each dataset mixes k directed linear mechanisms y = alpha*x + beta + noise
(or the same with x and y swapped), with zero-centered Laplace noise and
class probabilities that may deviate from uniform by a configurable factor.
Generation is a pure function of (mechanisms, probabilities, seed).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .stats import check_finite, sample_laplace

__all__ = [
    "Direction",
    "MechanismParams",
    "GeneratorInfo",
    "Dataset",
    "class_probabilities",
    "sample_mechanisms",
    "generate_dataset",
    "random_dataset",
    "write_dataset_csv",
    "read_dataset_csv",
]

# Sampling ranges for randomly drawn mechanisms.
SLOPE_MAGNITUDE_RANGE = (0.2, 5.0)
INTERCEPT_RANGE = (-5.0, 5.0)
SCALE_RANGE = (0.1, 4.0)
CAUSE_RANGE = (-5.0, 5.0)


class Direction(str, Enum):
    """Causal direction of a mechanism: which variable is the cause."""

    XY = "xy"  # x causes y
    YX = "yx"  # y causes x


@dataclass(frozen=True)
class MechanismParams:
    """One directed linear mechanism with Laplace noise on the effect."""

    alpha: float
    beta: float
    b: float
    direction: Direction = Direction.XY

    def predict(self, cause):
        return self.alpha * np.asarray(cause, dtype=float) + self.beta

    def residuals(self, x, y):
        """Effect-side residuals in this mechanism's own direction."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.direction is Direction.XY:
            return y - self.predict(x)
        return x - self.predict(y)

    def to_json_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "b": self.b, "direction": self.direction.value}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "MechanismParams":
        """Inverse of :meth:`to_json_dict`, whose keys are the field names; a
        missing key or an unknown direction raises ValueError."""
        try:
            alpha, beta, b, direction = (payload[f.name] for f in fields(cls))
        except KeyError as exc:
            raise ValueError(f"mechanism lacks key {exc}") from exc
        return cls(float(alpha), float(beta), float(b), Direction(direction))


@dataclass(frozen=True)
class GeneratorInfo:
    """Ground-truth generator of a dataset, kept for evaluation."""

    mechanisms: tuple[MechanismParams, ...]
    class_probs: tuple[float, ...]
    seed: int | None = None


@dataclass
class Dataset:
    """Bivariate samples with optional mechanism labels and generator info."""

    points: np.ndarray  # (m, 2) columns x, y
    labels: np.ndarray | None = None
    generator: GeneratorInfo | None = None

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must have shape (m, 2), got {points.shape}")
        check_finite("points", points)
        # Column-major, so that x and y are contiguous views.
        self.points = np.asfortranarray(points)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if len(self.labels) != len(self.points):
                raise ValueError("labels must match the number of points")

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def m(self) -> int:
        return len(self.points)


def class_probabilities(k: int, d: float) -> np.ndarray:
    """Maximally deviated class probabilities for k classes.

    floor(k/2) classes receive (1+d)/k, floor(k/2) receive (1-d)/k, and one
    middle class keeps 1/k when k is odd.  Ordered largest first.  ``d`` must
    lie in [0, 1): a deviation of 1 would empty a class.
    """
    if k < 1:
        raise ValueError(f"class count must be >= 1, got {k}")
    if not 0.0 <= d < 1.0:
        raise ValueError(f"class deviation must lie in [0, 1), got {d}")
    half = k // 2
    probs = [(1.0 + d) / k] * half
    if k % 2 == 1:
        probs.append(1.0 / k)
    probs += [(1.0 - d) / k] * half
    return np.array(probs)


def sample_mechanisms(k: int, rng: np.random.Generator) -> tuple[MechanismParams, ...]:
    """Draw k random mechanisms.

    Slope magnitude ~ U[0.2, 5] with a random sign, intercept ~ U[-5, 5],
    noise scale ~ U[0.1, 4], direction uniform over {XY, YX}.
    """
    mechs = []
    for _ in range(k):
        mag = rng.uniform(*SLOPE_MAGNITUDE_RANGE)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        beta = rng.uniform(*INTERCEPT_RANGE)
        b = rng.uniform(*SCALE_RANGE)
        direction = Direction.XY if rng.uniform() < 0.5 else Direction.YX
        mechs.append(MechanismParams(sign * mag, beta, b, direction))
    return tuple(mechs)


def generate_dataset(
    mechs,
    probs,
    rng: np.random.Generator,
    n_per_class_avg: int = 500,
    seed: int | None = None,
) -> Dataset:
    """Sample ``len(mechs) * n_per_class_avg`` labeled points from the mixture.

    Each point picks a mechanism according to ``probs``; the cause variable
    is uniform on [-5, 5] and the effect adds Laplace noise of that
    mechanism's scale.  ``seed`` is recorded in the generator metadata only
    (the draw itself uses ``rng``).
    """
    mechs = tuple(mechs)
    probs = np.asarray(probs, dtype=float)
    if len(probs) != len(mechs):
        raise ValueError("probs must match the number of mechanisms")
    if abs(float(probs.sum()) - 1.0) > 1e-12:
        raise ValueError("class probabilities must sum to 1")
    m = len(mechs) * n_per_class_avg
    labels = rng.choice(len(mechs), size=m, p=probs)
    cause = rng.uniform(*CAUSE_RANGE, size=m)
    noise = np.empty(m)
    for j, mech in enumerate(mechs):
        sel = labels == j
        noise[sel] = sample_laplace(rng, mech.b, size=int(sel.sum()))
    points = np.empty((m, 2), order="F")
    for j, mech in enumerate(mechs):
        sel = labels == j
        effect = mech.alpha * cause[sel] + mech.beta + noise[sel]
        if mech.direction is Direction.XY:
            points[sel, 0], points[sel, 1] = cause[sel], effect
        else:
            points[sel, 1], points[sel, 0] = cause[sel], effect
    return Dataset(points, labels, GeneratorInfo(mechs, tuple(map(float, probs)), seed))


def random_dataset(
    k: int,
    d: float,
    seed: int,
    n_per_class_avg: int = 500,
) -> Dataset:
    """Random mechanisms plus a dataset, reproducible from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    mechs = sample_mechanisms(k, rng)
    probs = class_probabilities(k, d)
    return generate_dataset(mechs, probs, rng, n_per_class_avg=n_per_class_avg, seed=seed)


def write_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Write ``x,y[,label]`` CSV plus a generator-metadata JSON sidecar."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        if dataset.labels is not None:
            writer.writerow(["x", "y", "label"])
            for (x, y), lab in zip(dataset.points, dataset.labels):
                writer.writerow([repr(float(x)), repr(float(y)), int(lab)])
        else:
            writer.writerow(["x", "y"])
            for x, y in dataset.points:
                writer.writerow([repr(float(x)), repr(float(y))])
    if dataset.generator is not None:
        sidecar = path.with_suffix(path.suffix + ".meta.json")
        gen = dataset.generator
        payload = {
            "mechanisms": [mech.to_json_dict() for mech in gen.mechanisms],
            "class_probs": list(gen.class_probs),
            "seed": gen.seed,
        }
        sidecar.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


class CsvFormatError(ValueError):
    """Malformed dataset CSV; carries the offending row number."""

    def __init__(self, message: str, row: int):
        super().__init__(f"row {row}: {message}")
        self.row = row


class SidecarFormatError(ValueError):
    """Malformed generator-metadata sidecar; the message names its path."""


def read_dataset_csv(path: str | Path) -> Dataset:
    """Read a dataset CSV and its sidecar.

    Bad or empty CSV data raise CsvFormatError; a sidecar with bad JSON, a
    missing key or an unknown direction raises SidecarFormatError.
    """
    path = Path(path)
    points: list[tuple[float, float]] = []
    labels: list[int] = []
    with path.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["x", "y"]:
            raise CsvFormatError("expected header starting with 'x,y'", 1)
        has_labels = len(header) >= 3 and header[2].strip() == "label"
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                point = (float(row[0]), float(row[1]))
                if has_labels:
                    labels.append(int(row[2]))
            except (ValueError, IndexError) as exc:
                raise CsvFormatError(str(exc), rownum) from exc
            if not np.all(np.isfinite(point)):
                raise CsvFormatError(f"non-finite value in {row[:2]}", rownum)
            points.append(point)
    if not points:
        raise CsvFormatError("no data rows after the header", 2)
    generator = None
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    if sidecar.exists():
        try:
            payload = json.loads(sidecar.read_text(encoding="utf-8"))
            mechs = tuple(MechanismParams.from_json_dict(m) for m in payload["mechanisms"])
            generator = GeneratorInfo(mechs, tuple(payload["class_probs"]), payload.get("seed"))
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise SidecarFormatError(f"malformed sidecar {sidecar}: {problem}") from exc
    return Dataset(
        np.array(points, dtype=float),
        np.array(labels, dtype=int) if labels else None,
        generator,
    )
