"""Toy 2-D datasets, covariate shifts, and CSV persistence.

Domains: ``train``, ``iid_test``, ``ood``, and ``shifted`` with an intensity
in 1..5. OOD sets carry sentinel labels (all 0) that must never reach a
fitting routine; shifts perturb features only and keep labels, so the label
function is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DOMAINS = ("train", "iid_test", "ood", "shifted")
SHIFT_KINDS = ("gaussian_noise", "rotation", "translation")

# Five-level gaussian-noise ladder used by the default shift suite.
DEFAULT_SHIFT_SCALES = (0.05, 0.1, 0.2, 0.4, 0.8)


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class LabeledSet:
    """Feature matrix (n x d), integer labels (n,), and a domain tag."""

    features: np.ndarray
    labels: np.ndarray
    domain: str
    intensity: int = 0  # 1..5 for shifted sets, 0 otherwise

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise DataError("features must be a non-empty 2-D matrix")
        if labels.shape != (feats.shape[0],):
            raise DataError("labels length must match feature rows")
        if not np.all(np.isfinite(feats)):
            raise DataError("features must be finite")
        if labels.min() < 0:
            raise DataError("labels must be non-negative")
        if self.domain not in DOMAINS:
            raise DataError(f"unknown domain {self.domain!r}")
        if self.domain == "shifted" and not 1 <= self.intensity <= 5:
            raise DataError("shifted sets need intensity in 1..5")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def tag(self) -> str:
        """Short name used for artifact files: train, iid_test, ood, shifted_3."""
        if self.domain == "shifted":
            return f"shifted_{self.intensity}"
        return self.domain


@dataclass(frozen=True)
class ShiftSpec:
    """A shift family: kind plus a strictly increasing 5-level scale ladder."""

    kind: str = "gaussian_noise"
    scales: tuple[float, float, float, float, float] = DEFAULT_SHIFT_SCALES

    def __post_init__(self):
        if self.kind not in SHIFT_KINDS:
            raise DataError(f"unknown shift kind {self.kind!r}")
        if len(self.scales) != 5:
            raise DataError("shift spec needs exactly 5 intensity scales")
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise DataError("shift scales must be strictly increasing")


def make_two_moons(n_per_class: int, noise_sd: float, seed: int,
                   domain: str = "train") -> LabeledSet:
    """Two interleaved half-circle classes in R^2 (unit radius; the second
    arc is flipped and shifted to x+1.0, dipping to y=-0.5)."""
    if n_per_class < 1:
        raise DataError("n_per_class must be >= 1")
    if noise_sd < 0:
        raise DataError("noise_sd must be >= 0")
    rng = np.random.default_rng(seed)
    theta0 = rng.uniform(0.0, math.pi, n_per_class)
    theta1 = rng.uniform(0.0, math.pi, n_per_class)
    arc0 = np.column_stack([np.cos(theta0), np.sin(theta0)])
    arc1 = np.column_stack([1.0 - np.cos(theta1), 0.5 - np.sin(theta1)])
    feats = np.vstack([arc0, arc1])
    if noise_sd > 0:
        feats = feats + rng.normal(0.0, noise_sd, feats.shape)
    labels = np.concatenate([np.zeros(n_per_class, int), np.ones(n_per_class, int)])
    return LabeledSet(feats, labels, domain)


TWO_MOONS_CENTERS = (np.array([0.0, 0.0]), np.array([1.0, 0.5]))

# Width ratio of the long axis to the short axis of each oval.
OVAL_ASPECT = 4.0


def make_two_ovals(n_per_class: int, separation: float, noise_sd: float, seed: int,
                   domain: str = "train") -> LabeledSet:
    """Two flat Gaussian blobs whose centers differ by `separation` along x;
    the long axis (y) is OVAL_ASPECT times wider than the short axis."""
    if n_per_class < 1:
        raise DataError("n_per_class must be >= 1")
    if noise_sd < 0:
        raise DataError("noise_sd must be >= 0")
    rng = np.random.default_rng(seed)
    half = separation / 2.0
    feats = []
    for cx in (-half, half):
        x = np.full(n_per_class, cx)
        y = np.zeros(n_per_class)
        if noise_sd > 0:
            x = x + rng.normal(0.0, noise_sd, n_per_class)
            y = y + rng.normal(0.0, OVAL_ASPECT * noise_sd, n_per_class)
        feats.append(np.column_stack([x, y]))
    labels = np.concatenate([np.zeros(n_per_class, int), np.ones(n_per_class, int)])
    return LabeledSet(np.vstack(feats), labels, domain)


def make_ood_cluster(n: int, center, spread: float, seed: int) -> LabeledSet:
    """Isotropic Gaussian cluster tagged ood; labels are a sentinel 0."""
    if n < 1:
        raise DataError("n must be >= 1")
    center = np.asarray(center, dtype=np.float64)
    rng = np.random.default_rng(seed)
    feats = np.tile(center, (n, 1))
    if spread > 0:
        feats = feats + rng.normal(0.0, spread, feats.shape)
    return LabeledSet(feats, np.zeros(n, int), "ood")


def default_ood_center(train: LabeledSet, sigmas: float = 6.0) -> np.ndarray:
    """Centroid + sigmas * std along the (1,1) diagonal: far enough out that
    any reasonable density fit assigns it negligible mass."""
    centroid = train.features.mean(axis=0)
    scale = float(train.features.std(axis=0).mean())
    direction = np.ones(train.features.shape[1])
    direction /= np.linalg.norm(direction)
    return centroid + sigmas * scale * direction


def apply_shift(base: LabeledSet, spec: ShiftSpec, intensity: int, seed: int) -> LabeledSet:
    """Perturb the features of an iid_test set at the given intensity.

    Labels are copied unchanged (covariate shift); fitting on the result is
    forbidden by the domain tag.
    """
    if base.domain != "iid_test":
        raise DataError("shifts apply to iid_test sets only")
    if not 1 <= intensity <= 5:
        raise DataError("intensity must be in 1..5")
    scale = spec.scales[intensity - 1]
    rng = np.random.default_rng(seed)
    feats = base.features
    if spec.kind == "gaussian_noise":
        feats = feats + rng.normal(0.0, 1.0, feats.shape) * scale
    elif spec.kind == "rotation":
        center = feats.mean(axis=0)
        c, s = math.cos(scale), math.sin(scale)
        rot = np.array([[c, -s], [s, c]])
        feats = (feats - center) @ rot.T + center
    elif spec.kind == "translation":
        direction = rng.normal(0.0, 1.0, feats.shape[1])
        direction /= np.linalg.norm(direction)
        feats = feats + scale * direction
    return LabeledSet(feats, base.labels.copy(), "shifted", intensity=intensity)


def shift_suite(iid_test: LabeledSet, spec: ShiftSpec, seed: int) -> list[LabeledSet]:
    """One shifted copy of iid_test per intensity 1..5."""
    return [apply_shift(iid_test, spec, i, seed + i) for i in range(1, 6)]


# -- CSV persistence -------------------------------------------------------
# Header: x0,...,x{d-1},label,domain,intensity. Floats use 17 significant
# digits, which round-trips float64 exactly.


def save_csv(dataset: LabeledSet, path) -> None:
    d = dataset.features.shape[1]
    cols = [f"x{i}" for i in range(d)] + ["label", "domain", "intensity"]
    lines = [",".join(cols)]
    for row, label in zip(dataset.features, dataset.labels):
        vals = [format(v, ".17g") for v in row]
        vals += [str(int(label)), dataset.domain, str(dataset.intensity)]
        lines.append(",".join(vals))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> LabeledSet:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: no rows")
    header = lines[0].split(",")
    if len(header) < 4 or header[-3:] != ["label", "domain", "intensity"]:
        raise DataError(f"{path}: bad header {lines[0]!r}")
    if len(lines) == 1:
        raise DataError(f"{path}: no data rows")
    d = len(header) - 3
    feats, labels, domains, intensities = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        try:
            feats.append([float(c) for c in cells[:d]])
            labels.append(int(cells[d]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
        domains.append(cells[d + 1])
        intensities.append(cells[d + 2])
    if len(set(domains)) != 1 or len(set(intensities)) != 1:
        raise DataError(f"{path}: mixed domain/intensity tags in one file")
    try:
        intensity = int(intensities[0])
    except ValueError:
        raise DataError(f"{path}: non-integer intensity {intensities[0]!r}") from None
    return LabeledSet(np.array(feats), np.array(labels), domains[0], intensity=intensity)


def require_fittable(dataset: LabeledSet) -> LabeledSet:
    """Leakage guard: only the train domain may reach a fitting routine."""
    if dataset.domain != "train":
        raise DataError(f"refusing to fit on a set tagged {dataset.tag!r}")
    return dataset
