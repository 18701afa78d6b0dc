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

The seen classes are those of the train and test_seen samples, the unseen
classes those of the test_unseen samples. Every invariant (shape
consistency, finite values, each sample in one split, disjoint seen and
unseen classes) is validated on load, and violations name the record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, allocating
from .rng import SeededRng
from .semantics import SemanticSpace

FORMAT_VERSION = 1
SPLIT_NAMES = ("train", "test_seen", "test_unseen")
DATASET_FILES = ("meta.json", "features.bin", "attributes.csv", "splits.csv",
                 "semantics.csv")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe parameters for the synthetic zero-shot task. A recipe that
    cannot be generated raises a ConfigError naming the field when built."""

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

    def __post_init__(self):
        # samples_per_class 2 is the least that gives a train/test split
        for name, least in (("c_seen", 2), ("c_unseen", 1),
                            ("num_attributes", 2), ("r_patches", 1),
                            ("d_feat", 1), ("tau", 1),
                            ("samples_per_class", 2),
                            ("signal_patches_per_attribute", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, "
                                  f"got {getattr(self, name)}")
        if not 0 <= self.noise_std < np.inf:
            raise ConfigError(
                f"noise_std must be in [0, inf), got {self.noise_std}")
        if not 0 < self.train_fraction < 1:
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.num_attributes > self.d_feat:
            raise ConfigError(
                f"num_attributes must be <= d_feat {self.d_feat} (one "
                f"attribute basis per feature), got {self.num_attributes}")
        if self.signal_patches_per_attribute > self.r_patches:
            raise ConfigError(
                f"signal_patches_per_attribute must be <= r_patches "
                f"{self.r_patches}, got {self.signal_patches_per_attribute}")


@dataclass
class ZslDataset:
    """Features, labels, semantics and split indices; the seen and unseen
    classes are read from the splits. ``generate_synthetic`` and
    ``load_features`` make it valid, so it checks nothing itself."""

    features: np.ndarray           # [n_samples, R, D_feat] float64
    labels: np.ndarray             # [n_samples] int64
    semantics: SemanticSpace
    splits: dict[str, np.ndarray]  # split name -> sample indices

    # sorted sets: the first np.unique call imports ~0.9 MB of modules
    @property
    def seen_classes(self) -> list[int]:
        return sorted(set(self.labels[self.splits["train"]].tolist())
                      | set(self.labels[self.splits["test_seen"]].tolist()))

    @property
    def unseen_classes(self) -> list[int]:
        return sorted(set(self.labels[self.splits["test_unseen"]].tolist()))

    @property
    def d_feat(self) -> int:
        return self.features.shape[2]


def generate_synthetic(spec: SyntheticSpec, seed: int) -> ZslDataset:
    """Deterministic synthetic GZSL task.

    Attribute identities are orthonormalized random basis vectors in feature
    space; each class activates a distinct attribute subset, each sample
    plants the active attribute bases into a few random patches, and Gaussian
    noise is layered on top.  The feature array is allocated once, by the
    draw of its noise, and the bases are planted in place.
    """
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
                              "increase synthetic.num_attributes")
        class_attr[c] = np.where(mask, rng.uniform((a,), 0.6, 1.0),
                                 rng.uniform((a,), 0.0, 0.4))

    # (5) attribute semantic vectors, fixed per dataset
    with allocating("the attribute semantic vectors",
                    "synthetic.num_attributes and synthetic.tau"):
        attr_vectors = rng.normal((a, spec.tau))

    # (3)+(4) samples: the noise of all samples in one draw, then the
    # patches of every (sample, active attribute) row in one draw; the bases
    # are planted after the draws
    with allocating("the samples", "synthetic.c_seen, synthetic.c_unseen, "
                    "synthetic.samples_per_class, synthetic.r_patches and "
                    "synthetic.d_feat"):
        labels = np.repeat(np.arange(c_total), spec.samples_per_class)
        features = rng.normal((labels.size, r, d_feat), scale=spec.noise_std)
    k = spec.signal_patches_per_attribute
    # one row per (sample, active attribute), sample-major; the first k of a
    # uniform random permutation of the patches are a uniform k-subset
    sample, attr_of = np.nonzero(class_attr[labels] > 0.5)
    chosen = np.argsort(rng.uniform((sample.size, r)), axis=1,
                        kind="stable")[:, :k]
    # attribute by attribute in ascending order, so every patch adds its
    # products to its noise in the order a per-sample loop would
    flat = features.reshape(-1, d_feat)
    for attr in range(a):
        idx = (sample[attr_of == attr, None] * r
               + chosen[attr_of == attr]).ravel()
        flat[idx] += class_attr[labels[idx // r], attr][:, None] * basis[attr]
    # as load_features checks: a noise_std near float64's limit draws inf
    if not (np.isfinite(features.min()) and np.isfinite(features.max())):
        raise ConfigError(f"synthetic.noise_std {spec.noise_std} draws "
                          f"non-finite features")

    train_idx, test_seen_idx, test_unseen_idx = [], [], []
    for c in range(c_total):
        idx = np.nonzero(labels == c)[0]
        idx = idx[rng.permutation(idx.size)]
        if c < spec.c_seen:
            n_train = max(1, min(idx.size - 1,
                                 int(round(spec.train_fraction * idx.size))))
            train_idx.extend(idx[:n_train].tolist())
            test_seen_idx.extend(idx[n_train:].tolist())
        else:
            test_unseen_idx.extend(idx.tolist())

    semantics = SemanticSpace(attr_vectors=attr_vectors, class_attr=class_attr)
    return ZslDataset(features=features, labels=labels, semantics=semantics,
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

    # every sample lies in exactly one split
    split_of = {i: name for name in SPLIT_NAMES
                for i in dataset.splits[name].tolist()}
    lines = ["sample_index,class_index,split"] + [
        f"{i},{c},{split_of[i]}" for i, c in enumerate(dataset.labels.tolist())]
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


def check_dataset_files(path) -> None:
    """Refuse a missing dataset file, or one that is not a regular file,
    before any is opened: opening a named pipe would wait for a writer."""
    for file in map(Path(path).joinpath, DATASET_FILES):
        _require(file.exists(), f"missing dataset file {file}")
        _require(file.is_file(), f"dataset file {file} is not a regular file")


def load_features(path) -> ZslDataset:
    """Load and fully validate a dataset directory."""
    path = Path(path)
    check_dataset_files(path)
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

    labels = [-1] * n
    splits: dict[str, list[int]] = {name: [] for name in SPLIT_NAMES}
    lines = _read_text(path / "splits.csv").strip().splitlines()
    _require(len(lines) >= 1 and lines[0].strip() == "sample_index,class_index,split",
             "splits.csv must start with header 'sample_index,class_index,split'")
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.strip().split(",")
        if len(parts) != 3:
            raise DataFormatError(f"splits.csv line {ln}: expected 3 fields")
        try:
            idx, cls = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise DataFormatError(f"splits.csv line {ln}: non-integer field") from e
        if not 0 <= idx < n:
            raise DataFormatError(f"splits.csv line {ln}: sample index {idx} out of range")
        if not 0 <= cls < c:
            raise DataFormatError(f"splits.csv line {ln}: class index {cls} out of range")
        if parts[2] not in SPLIT_NAMES:
            raise DataFormatError(f"splits.csv line {ln}: unknown split {parts[2]!r}")
        if labels[idx] != -1:
            raise DataFormatError(f"splits.csv line {ln}: sample {idx} listed twice")
        labels[idx] = cls
        splits[parts[2]].append(idx)
    labels = np.array(labels, dtype=np.int64)

    _require(bool(np.all(labels >= 0)),
             f"splits.csv does not cover sample(s) {np.nonzero(labels < 0)[0][:5].tolist()}")

    semantics = SemanticSpace(attr_vectors=attr_vectors, class_attr=class_attr)
    dataset = ZslDataset(features=features, labels=labels, semantics=semantics,
                         splits={k: np.array(v, dtype=np.int64)
                                 for k, v in splits.items()})
    overlap = sorted(set(dataset.seen_classes) & set(dataset.unseen_classes))
    _require(not overlap, f"classes {overlap} appear in both seen and unseen splits")
    return dataset


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
