from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from hrt import (ConfigError, HrtModel, LossConfig, ModelConfig,
                 NumericError, OptimizerConfig, SyntheticSpec, Tensor,
                 generate_synthetic, load_features, no_grad, save_dataset)
from hrt.config import DATASET_FIELDS, DEFAULTS, dataset_dims
from hrt.gradcheck import tiny_problem
from hrt.model import param_shapes
from hrt.rng import SeededRng
from hrt.semantics import SemanticSpace

# the gradient check's tiny model config, sized by its TINY_SPEC dataset
TINY_CONFIG = tiny_problem(0)[1].config


def tiny_semantics():
    """Semantic arrays sized for TINY_CONFIG."""
    a, c = TINY_CONFIG.num_attributes, TINY_CONFIG.num_classes
    rng = np.random.default_rng(0)
    return SemanticSpace(attr_vectors=rng.normal(size=(a, TINY_CONFIG.tau)),
                         compact_vectors=rng.normal(size=(a, TINY_CONFIG.d_cap)),
                         class_attr=rng.uniform(size=(c, a)))


@pytest.mark.parametrize("config_class,field,bad,message", [
    (ModelConfig, "d_cap", 0, "d_cap must be >= 1"),
    (SyntheticSpec, "c_unseen", 0, "c_unseen must be >= 1"),
    (LossConfig, "lambda1", -5.0, "lambda1 must be >= 0"),
    (OptimizerConfig, "lr", -1.0, "lr must be >= 0"),
], ids=["ModelConfig-d_cap", "SyntheticSpec-c_unseen", "LossConfig-lambda1",
        "OptimizerConfig-lr"])
def test_config_checks_itself_when_built_and_is_frozen(config_class, field,
                                                       bad, message):
    # a model config has no default sizes: it takes them from a dataset
    sizes = asdict(TINY_CONFIG) if config_class is ModelConfig else {}
    with pytest.raises(ConfigError, match=message):
        config_class(**{**sizes, field: bad})
    with pytest.raises(FrozenInstanceError):
        setattr(config_class(**sizes), field, bad)


def fail(what):
    """A stand-in for a function that must not be called."""
    def patched(*args, **kwargs):
        raise AssertionError(what)
    return patched


def test_tiny_semantics_fit_tiny_model():
    HrtModel(TINY_CONFIG, tiny_semantics())


@pytest.mark.parametrize("field,array", [
    ("tau", "sem.attr_vectors"),
    ("num_attributes", "sem.attr_vectors"),
    ("d_cap", "sem.compact_vectors"),
    ("num_classes", "sem.class_attr"),
])
def test_semantic_shape_mismatch_rejected_before_drawing(monkeypatch, field,
                                                         array):
    for name in ("normal", "uniform", "integers", "permutation", "choice"):
        monkeypatch.setattr(SeededRng, name, fail("a parameter was drawn"))
    config = replace(TINY_CONFIG, **{field: getattr(TINY_CONFIG, field) + 2})
    with pytest.raises(ConfigError, match=f"'{array}' has shape"):
        HrtModel(config, tiny_semantics())


@pytest.mark.parametrize("field,array", [
    ("tau", "sem.attr_vectors"),
    ("num_classes", "sem.class_attr"),
])
def test_build_checks_semantic_shapes_before_compaction(monkeypatch, field,
                                                        array):
    monkeypatch.setattr("hrt.model.compact_semantics",
                        fail("the attribute vectors were compacted"))
    config = replace(TINY_CONFIG, **{field: getattr(TINY_CONFIG, field) + 2})
    semantics = tiny_semantics()
    with pytest.raises(ConfigError, match=f"'{array}' has shape"):
        HrtModel.build(config, semantics.attr_vectors, semantics.class_attr)


@pytest.mark.parametrize("fault,message", [
    ("misshapen", "has shape \\(3, 3\\), config needs"),
    ("missing", "is missing")], ids=["misshapen", "missing"])
@pytest.mark.parametrize("name", sorted(param_shapes(TINY_CONFIG)))
def test_parameter_array_rejected_by_name_before_wrapping(monkeypatch, name,
                                                          fault, message):
    arrays = {n: p.data.copy() for n, p in tiny_problem(0)[1].params.items()}
    if fault == "missing":
        del arrays[name]
    else:
        arrays[name] = np.zeros((3, 3))
    for draw in ("normal", "uniform", "integers", "permutation", "choice"):
        monkeypatch.setattr(SeededRng, draw, fail("a parameter was drawn"))
    monkeypatch.setattr("hrt.model.Parameter", fail("a parameter was wrapped"))
    with pytest.raises(ConfigError, match=f"array '{name}' {message}"):
        HrtModel(TINY_CONFIG, tiny_semantics(), arrays=arrays)


@pytest.mark.parametrize("name", ["attr_vectors", "class_attr"])
def test_build_rejects_nonfinite_semantics_before_compaction(monkeypatch,
                                                             name):
    monkeypatch.setattr("hrt.model.compact_semantics",
                        fail("the attribute vectors were compacted"))
    semantics = tiny_semantics()
    arrays = {"attr_vectors": semantics.attr_vectors.copy(),
              "class_attr": semantics.class_attr.copy()}
    arrays[name][0, 0] = np.nan
    with pytest.raises(NumericError, match=f"{name} contains non-finite"):
        HrtModel.build(TINY_CONFIG, **arrays)


def test_nonfinite_compact_vectors_rejected_at_construction():
    semantics = tiny_semantics()
    compact = semantics.compact_vectors.copy()
    compact[0, 0] = np.inf
    with pytest.raises(NumericError, match="compact_vectors contains"):
        HrtModel(TINY_CONFIG,
                 replace(semantics, compact_vectors=compact))


def test_dataset_semantics_are_not_compacted(tmp_path):
    # a dataset holds the attribute vectors and class rows; only
    # HrtModel.build compacts, so a model over a dataset's semantics is
    # refused by name
    spec = SyntheticSpec(c_seen=5, c_unseen=2, num_attributes=6,
                         r_patches=4, d_feat=16, tau=8, samples_per_class=2)
    generated = generate_synthetic(spec, 0)
    save_dataset(generated, tmp_path)
    for dataset in (generated, load_features(tmp_path)):
        assert dataset.semantics.compact_vectors is None
        with pytest.raises(ConfigError, match="'sem.compact_vectors'"):
            HrtModel(TINY_CONFIG, dataset.semantics)


def test_parameters_are_sized_by_config_keys_and_dataset_dimensions():
    # an allocation error names these; the dataset's sizes are no config keys
    named = {key for *_, keys in param_shapes(TINY_CONFIG).values()
             for key in keys}
    config_keys = {f"model.{k}" for k in DEFAULTS["model"]}
    dimensions = {f"the dataset's {k}" for k in DATASET_FIELDS}
    assert named <= config_keys | dimensions
    assert named & config_keys and named & dimensions


def test_forward_wraps_no_semantic_array(monkeypatch):
    # the model wraps its semantic constants once, at construction: a
    # forward constructs one tensor, from its input array
    dataset = generate_synthetic(SyntheticSpec(), 0)
    model = HrtModel.build(ModelConfig(**dataset_dims(dataset)),
                           dataset.semantics.attr_vectors,
                           dataset.semantics.class_attr)
    constructed = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    with no_grad():
        model.forward(dataset.features[0])
    assert len(constructed) == 1


def test_forward_rejects_a_nonfinite_patch_grid():
    # the forward checks the array it wraps, before any op reads it
    dataset, model = tiny_problem(0)
    x = dataset.features[0].copy()
    x[1, 2] = np.nan
    with no_grad(), pytest.raises(NumericError, match="tensor construction"):
        model.forward(x)


def test_model_over_built_semantics_draws_the_built_parameters(monkeypatch):
    # a model over another model's semantics, as the benchmark builds its
    # fresh training copies, neither compacts again nor draws anything but
    # the parameters HrtModel.build draws at the same seed
    semantics = tiny_semantics()
    built = {seed: HrtModel.build(TINY_CONFIG, semantics.attr_vectors,
                                  semantics.class_attr, seed=seed)
             for seed in (0, 7)}
    monkeypatch.setattr("hrt.model.compact_semantics",
                        fail("the attribute vectors were compacted"))
    model = built[0]
    x = np.random.default_rng(1).normal(size=(4, TINY_CONFIG.d_feat))
    for seed, expected in built.items():
        copy = HrtModel(model.config, model.semantics, seed=seed)
        assert copy.params.keys() == expected.params.keys()
        for name, p in expected.params.items():
            assert copy.params[name].data.tobytes() == p.data.tobytes()
        with no_grad():
            assert copy.forward(x).scores.data.tobytes() == \
                expected.forward(x).scores.data.tobytes()
