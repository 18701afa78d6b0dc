import numpy as np
import pytest

from hrt import ConfigError, HrtModel, ModelConfig
from hrt.cli import TINY_MODEL
from hrt.rng import SeededRng
from hrt.semantics import SemanticSpace


def tiny_semantics():
    """Semantic arrays sized for TINY_MODEL."""
    a, c = TINY_MODEL["num_attributes"], TINY_MODEL["num_classes"]
    rng = np.random.default_rng(0)
    return SemanticSpace(attr_vectors=rng.normal(size=(a, TINY_MODEL["tau"])),
                         compact_vectors=rng.normal(size=(a, TINY_MODEL["d_cap"])),
                         class_attr=rng.uniform(size=(c, a)))


def test_tiny_semantics_fit_tiny_model():
    HrtModel(ModelConfig(**TINY_MODEL), tiny_semantics())


@pytest.mark.parametrize("field,array", [
    ("tau", "sem.attr_vectors"),
    ("num_attributes", "sem.attr_vectors"),
    ("d_cap", "sem.compact_vectors"),
    ("num_classes", "sem.class_attr"),
])
def test_semantic_shape_mismatch_rejected_before_drawing(monkeypatch, field,
                                                         array):
    def no_draw(*args, **kwargs):
        raise AssertionError("a parameter was drawn")

    for name in ("normal", "uniform", "integers", "permutation", "choice"):
        monkeypatch.setattr(SeededRng, name, no_draw)
    config = ModelConfig(**{**TINY_MODEL, field: TINY_MODEL[field] + 2})
    with pytest.raises(ConfigError, match=f"'{array}' has shape"):
        HrtModel(config, tiny_semantics())


@pytest.mark.parametrize("field,array", [
    ("tau", "sem.attr_vectors"),
    ("num_classes", "sem.class_attr"),
])
def test_build_checks_semantic_shapes_before_compaction(monkeypatch, field,
                                                        array):
    def no_compaction(*args, **kwargs):
        raise AssertionError("the attribute vectors were compacted")

    monkeypatch.setattr("hrt.model.compact_semantics", no_compaction)
    config = ModelConfig(**{**TINY_MODEL, field: TINY_MODEL[field] + 2})
    semantics = tiny_semantics()
    with pytest.raises(ConfigError, match=f"'{array}' has shape"):
        HrtModel.build(config, semantics.attr_vectors, semantics.class_attr)
