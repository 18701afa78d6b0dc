"""Dataset model, synthetic generation, and the on-disk feature format.

A dataset directory holds:

  meta.json       UTF-8 JSON: version, R, D_feat, A, tau, C, sample_count,
                  dtype ("f32" | "f64"), endianness ("little")
  features.bin    raw little-endian floats, sample-major then patch-major
                  then feature
  attributes.csv  header row, then C rows x A columns of class attributes
  semantics.csv   A rows x tau columns of attribute semantic vectors (no header)
  splits.csv      header "sample_index,class_index,split"; split is one of
                  train, test_seen, test_unseen

Every invariant (shape consistency, finite values, disjoint seen/unseen,
train labels within seen) is validated on load, and violations name the
offending record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, allocating
from .rng import SeededRng
from .semantics import SemanticSpace

FORMAT_VERSION = 1
SPLIT_NAMES = ("train", "test_seen", "test_unseen")


@dataclass
class SyntheticSpec:
    """Recipe parameters for the synthetic zero-shot task."""

    c_seen: int = 8
    c_unseen: int = 4
    num_attributes: int = 12
    r_patches: int = 9
    d_feat: int = 64
    tau: int = 32
    samples_per_class: int = 40
    noise_std: float = 0.1
    signal_patches_per_attribute: int = 2
    train_fraction: float = 0.75

    def validate(self) -> None:
        if self.c_seen < 2:
            raise ConfigError("need at least 2 seen classes")
        if self.c_unseen < 1:
            raise ConfigError("need at least 1 unseen class")
        if self.num_attributes < 2:
            raise ConfigError("need at least 2 attributes")
        if self.samples_per_class < 2:
            raise ConfigError("need samples_per_class >= 2 for a train/test split")
        for name in ("tau", "d_feat"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.noise_std >= 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0 < self.train_fraction < 1:
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.num_attributes > self.d_feat:
            raise ConfigError("attribute bases need num_attributes <= d_feat")
        if not 1 <= self.signal_patches_per_attribute <= self.r_patches:
            raise ConfigError("signal_patches_per_attribute out of range")


@dataclass
class ZslDataset:
    features: np.ndarray           # [n_samples, R, D_feat]
    labels: np.ndarray             # [n_samples] int
    semantics: SemanticSpace
    seen_classes: list[int]
    unseen_classes: list[int]
    splits: dict[str, np.ndarray] = field(default_factory=dict)  # name -> sample indices

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        seen, unseen = set(self.seen_classes), set(self.unseen_classes)
        if seen & unseen:
            raise DataFormatError(
                f"seen and unseen classes overlap: {sorted(seen & unseen)}")
        if "train" in self.splits:
            train_labels = set(self.labels[self.splits["train"]].tolist())
            if not train_labels <= seen:
                raise DataFormatError(
                    f"train labels outside seen classes: {sorted(train_labels - seen)}")
        n_classes = self.semantics.class_attr.shape[0]
        for c in seen | unseen:
            if not 0 <= c < n_classes:
                raise DataFormatError(f"class index {c} has no attribute row")

    @property
    def d_feat(self) -> int:
        return self.features.shape[2]


def generate_synthetic(spec: SyntheticSpec, seed: int) -> ZslDataset:
    """Deterministic synthetic GZSL task.

    Attribute identities are orthonormalized random basis vectors in feature
    space; each class activates a distinct attribute subset, each sample
    plants the active attribute bases into a few random patches, and Gaussian
    noise is layered on top.  The feature array is allocated once and filled
    in place.
    """
    spec.validate()
    rng = SeededRng(seed)
    a, d_feat, r = spec.num_attributes, spec.d_feat, spec.r_patches
    c_total = spec.c_seen + spec.c_unseen

    # (1) orthonormal-ish attribute bases via Gram-Schmidt
    with allocating("the attribute bases",
                    "synthetic.num_attributes and synthetic.d_feat"):
        basis = rng.normal((a, d_feat))
    for i in range(a):
        for j in range(i):
            basis[i] -= (basis[i] @ basis[j]) * basis[j]
        norm = np.linalg.norm(basis[i])
        if norm < 1e-8:
            basis[i] = rng.normal((d_feat,))
            norm = np.linalg.norm(basis[i])
        basis[i] /= norm

    # (2) class attribute vectors in [0,1]^A with distinct supports
    supports: set[tuple[int, ...]] = set()
    with allocating("the class attributes", "synthetic.c_seen, "
                    "synthetic.c_unseen and synthetic.num_attributes"):
        class_attr = np.zeros((c_total, a))
    for c in range(c_total):
        for _ in range(1000):
            mask = rng.uniform((a,)) < 0.5
            if not mask.any():
                continue
            key = tuple(np.nonzero(mask)[0].tolist())
            if key not in supports:
                supports.add(key)
                break
        else:
            raise ConfigError("could not draw distinct attribute supports; "
                              "increase num_attributes")
        class_attr[c] = np.where(mask, rng.uniform((a,), 0.6, 1.0),
                                 rng.uniform((a,), 0.0, 0.4))

    # (5) attribute semantic vectors, fixed per dataset
    with allocating("the attribute semantic vectors",
                    "synthetic.num_attributes and synthetic.tau"):
        attr_vectors = rng.normal((a, spec.tau))

    # (3)+(4) samples: each draws its noise, then a few patches for each
    # active attribute of its class; the bases are planted after the draws
    with allocating("the samples", "synthetic.c_seen, synthetic.c_unseen, "
                    "synthetic.samples_per_class, synthetic.r_patches and "
                    "synthetic.d_feat"):
        labels = np.repeat(np.arange(c_total), spec.samples_per_class)
        features = np.zeros((labels.size, r, d_feat))
    active = [np.nonzero(row > 0.5)[0].tolist() for row in class_attr]
    rows: list[list[int]] = [[] for _ in range(a)]  # sample * r + patch
    for i, c in enumerate(labels.tolist()):
        if spec.noise_std > 0:
            features[i] = rng.normal((r, d_feat), scale=spec.noise_std)
        for attr in active[c]:
            chosen = rng.choice(r, spec.signal_patches_per_attribute)
            rows[attr].extend((i * r + chosen).tolist())
    # attribute by attribute in ascending order, so every patch adds its
    # products to its noise in the order a per-sample loop would
    flat = features.reshape(-1, d_feat)
    for attr, idx in enumerate(rows):
        idx = np.array(idx, dtype=np.int64)
        flat[idx] += class_attr[labels[idx // r], attr][:, None] * basis[attr]

    seen = list(range(spec.c_seen))
    unseen = list(range(spec.c_seen, c_total))
    train_idx, test_seen_idx, test_unseen_idx = [], [], []
    for c in range(c_total):
        idx = np.nonzero(labels == c)[0]
        idx = idx[rng.permutation(idx.size)]
        if c in set(seen):
            n_train = max(1, min(idx.size - 1,
                                 int(round(spec.train_fraction * idx.size))))
            train_idx.extend(idx[:n_train].tolist())
            test_seen_idx.extend(idx[n_train:].tolist())
        else:
            test_unseen_idx.extend(idx.tolist())

    semantics = SemanticSpace(attr_vectors=attr_vectors,
                              compact_vectors=np.zeros((a, 1)),
                              class_attr=class_attr)
    return ZslDataset(features=features, labels=labels, semantics=semantics,
                      seen_classes=seen, unseen_classes=unseen,
                      splits={"train": np.array(sorted(train_idx), dtype=np.int64),
                              "test_seen": np.array(sorted(test_seen_idx), dtype=np.int64),
                              "test_unseen": np.array(sorted(test_unseen_idx), dtype=np.int64)})


# -- on-disk format ----------------------------------------------------------


def save_dataset(dataset: ZslDataset, path) -> None:
    """Write ``dataset`` as a directory in the format above, features as f64."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    n, r, d_feat = dataset.features.shape
    a = dataset.semantics.num_attributes
    tau = dataset.semantics.attr_vectors.shape[1]
    c = dataset.semantics.class_attr.shape[0]
    meta = {"version": FORMAT_VERSION, "R": r, "D_feat": d_feat, "A": a,
            "tau": tau, "C": c, "sample_count": n, "dtype": "f64",
            "endianness": "little"}
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2)
                                    + "\n", encoding="utf-8")
    np.asarray(dataset.features, dtype="<f8").tofile(path / "features.bin")

    header = ",".join(f"a{i}" for i in range(a))
    rows = [header] + [",".join(repr(float(v)) for v in row)
                       for row in dataset.semantics.class_attr]
    (path / "attributes.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    rows = [",".join(repr(float(v)) for v in row)
            for row in dataset.semantics.attr_vectors]
    (path / "semantics.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    lines = ["sample_index,class_index,split"]
    assignment = {}
    for name in SPLIT_NAMES:
        for i in dataset.splits.get(name, np.array([], dtype=np.int64)):
            assignment[int(i)] = name
    for i in range(n):
        if i in assignment:
            lines.append(f"{i},{int(dataset.labels[i])},{assignment[i]}")
    (path / "splits.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DataFormatError(msg)


def _read_text(file: Path) -> str:
    """The UTF-8 text of a dataset file; a DataFormatError names it if it
    does not decode."""
    try:
        return file.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{file.name} is not UTF-8 text: {e}") from e


def load_features(path) -> ZslDataset:
    """Load and fully validate a dataset directory."""
    path = Path(path)
    for name in ("meta.json", "features.bin", "attributes.csv", "splits.csv",
                 "semantics.csv"):
        _require((path / name).exists(), f"missing dataset file {name}")
    try:
        meta = json.loads(_read_text(path / "meta.json"))
    except (json.JSONDecodeError, RecursionError) as e:
        raise DataFormatError(f"meta.json is not valid JSON: {e}") from e
    _require(isinstance(meta, dict), "meta.json must hold a JSON object")
    for key in ("version", "R", "D_feat", "A", "tau", "C", "sample_count",
                "dtype", "endianness"):
        _require(key in meta, f"meta.json missing key {key!r}")
    _require(type(meta["version"]) is int and meta["version"] == FORMAT_VERSION,
             f"unsupported format version {meta['version']!r}")
    _require(meta["endianness"] == "little",
             f"unsupported endianness {meta['endianness']!r}")
    _require(meta["dtype"] in ("f32", "f64"),
             f"unsupported dtype {meta['dtype']!r}")
    n, r, d_feat = meta["sample_count"], meta["R"], meta["D_feat"]
    a, tau, c = meta["A"], meta["tau"], meta["C"]
    for key, val in (("sample_count", n), ("R", r), ("D_feat", d_feat),
                     ("A", a), ("tau", tau), ("C", c)):
        _require(type(val) is int and val >= 1,
                 f"meta.json {key} must be a positive integer, got {val!r}")

    np_dtype = {"f32": "<f4", "f64": "<f8"}[meta["dtype"]]
    itemsize = 4 if meta["dtype"] == "f32" else 8
    expected = n * r * d_feat * itemsize
    size = (path / "features.bin").stat().st_size
    _require(size == expected,
             f"features.bin holds {size} bytes, expected {expected}")
    # the array read is the one kept; only an f32 file is converted
    features = np.fromfile(path / "features.bin", dtype=np_dtype)
    features = features.astype(np.float64, copy=False).reshape(n, r, d_feat)
    # a NaN carries through min and max, and an infinity is one of them, so
    # no mask the size of the features is built
    _require(bool(np.isfinite(features.min()) and np.isfinite(features.max())),
             "features.bin contains non-finite values")

    class_attr = _read_csv_matrix(path / "attributes.csv", c, a, header=True)
    attr_vectors = _read_csv_matrix(path / "semantics.csv", a, tau, header=False)

    labels = np.full(n, -1, dtype=np.int64)
    splits: dict[str, list[int]] = {name: [] for name in SPLIT_NAMES}
    lines = _read_text(path / "splits.csv").strip().splitlines()
    _require(len(lines) >= 1 and lines[0].strip() == "sample_index,class_index,split",
             "splits.csv must start with header 'sample_index,class_index,split'")
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.strip().split(",")
        _require(len(parts) == 3, f"splits.csv line {ln}: expected 3 fields")
        try:
            idx, cls = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise DataFormatError(f"splits.csv line {ln}: non-integer field") from e
        _require(0 <= idx < n, f"splits.csv line {ln}: sample index {idx} out of range")
        _require(0 <= cls < c, f"splits.csv line {ln}: class index {cls} out of range")
        _require(parts[2] in SPLIT_NAMES,
                 f"splits.csv line {ln}: unknown split {parts[2]!r}")
        _require(labels[idx] == -1, f"splits.csv line {ln}: sample {idx} listed twice")
        labels[idx] = cls
        splits[parts[2]].append(idx)

    _require(bool(np.all(labels >= 0)),
             f"splits.csv does not cover sample(s) {np.nonzero(labels < 0)[0][:5].tolist()}")
    seen = sorted(set(labels[splits["train"]].tolist())
                  | set(labels[splits["test_seen"]].tolist()))
    unseen = sorted(set(labels[splits["test_unseen"]].tolist()))
    _require(not set(seen) & set(unseen),
             f"classes {sorted(set(seen) & set(unseen))} appear in both seen and "
             f"unseen splits")

    semantics = SemanticSpace(attr_vectors=attr_vectors,
                              compact_vectors=np.zeros((a, 1)),
                              class_attr=class_attr)
    return ZslDataset(features=features, labels=labels, semantics=semantics,
                      seen_classes=seen, unseen_classes=unseen,
                      splits={k: np.array(v, dtype=np.int64)
                              for k, v in splits.items()})


def _read_csv_matrix(file: Path, rows: int, cols: int, header: bool) -> np.ndarray:
    lines = _read_text(file).strip().splitlines()
    if header:
        _require(len(lines) == rows + 1,
                 f"{file.name}: expected header + {rows} rows, found {len(lines)} lines")
        lines = lines[1:]
    else:
        _require(len(lines) == rows,
                 f"{file.name}: expected {rows} rows, found {len(lines)}")
    values = []
    for i, line in enumerate(lines):
        parts = line.strip().split(",")
        _require(len(parts) == cols,
                 f"{file.name} row {i}: expected {cols} columns, found {len(parts)}")
        try:
            values.append([float(p) for p in parts])
        except ValueError as e:
            raise DataFormatError(f"{file.name} row {i}: non-numeric value") from e
    # built from the rows read, so its size is never taken from meta.json
    out = np.array(values, dtype=np.float64)
    _require(bool(np.all(np.isfinite(out))),
             f"{file.name} contains non-finite values")
    return out
