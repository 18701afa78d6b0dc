"""The benchmark's hook targets stay reachable.

``bench/hooks.py`` wraps hrt's functions where their callers look them up;
a rename that drops one of those names breaks the benchmark. These tests
load the hooks module as it is and install its hooks over the package.
"""

import ast
import importlib.util
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from hrt import ModelConfig, OptimizerConfig, Parameter, RmsPropState

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
HOOKS_FILE = BENCH_DIR / "hooks.py"


def bench_literal(name: str):
    """The literal ``bench/run.py`` assigns to ``name``, read with ``ast``:
    importing the module would pin this process's BLAS threads."""
    tree = ast.parse((BENCH_DIR / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/run.py assigns no {name} literal")


# the draws the benchmark cuts data generation at, as it names them
RNG_DRAWS = bench_literal("RNG_DRAWS")


@pytest.fixture(scope="module")
def hooks():
    spec = importlib.util.spec_from_file_location("bench_hooks", HOOKS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(hooks):
    targets = [(m, p) for m, p, _ in hooks.LAYER_HOOKS]
    targets += [("hrt.tensor", op) for op in hooks.op_names()]
    before = [hooks._resolve(m, p)[2] for m, p in targets]
    tracer = hooks.Tracer()
    tracer.install()
    try:
        assert set(tracer.calls) == {f"{m}.{p}" for m, p in targets}
        assert all(hooks._resolve(m, p)[2] is not fn
                   for (m, p), fn in zip(targets, before))
    finally:
        tracer.uninstall()
    assert all(hooks._resolve(m, p)[2] is fn
               for (m, p), fn in zip(targets, before))


def test_step_clock_targets_resolve(hooks):
    for module, paths in (("hrt.train", ("optimizer_step",)),
                          ("hrt.model", ("HrtModel.forward",)),
                          ("hrt.rng", RNG_DRAWS)):
        with hooks.StepClock(module, *paths):
            pass
    with hooks.StepClock() as steps:
        p = Parameter(np.zeros(2))
        p.grad = np.ones(2)
        # looked up on the module, as the training loop does (the package
        # attribute hrt.train is the train function)
        importlib.import_module("hrt.train").optimizer_step(
            RmsPropState(config=OptimizerConfig()), {"p": p})
    assert len(steps.stamps) == 1
    with hooks.StepClock("hrt.rng", *RNG_DRAWS) as draws:
        rng = importlib.import_module("hrt.rng").SeededRng(0)
        rng.normal((2,))
        rng.uniform((2,))
        rng.integers(0, 3)
        rng.permutation(3)
        rng.choice(3, 2)
    assert len(draws.stamps) == len(RNG_DRAWS)


def test_missing_target_is_named(hooks):
    with pytest.raises(hooks.HookError, match="hrt.train.no_such_function"):
        with hooks.StepClock("hrt.train", "no_such_function"):
            pass


def test_traced_epoch_keeps_the_bench_contract(hooks):
    """The call counts and op counts ``bench/run.py`` checks on a traced
    ``train_default`` run, on one epoch of a tiny dataset: per sample one
    forward pass, one backward pass and one call of each loss, one optimizer
    step per minibatch, the same op counts for every sample, and at least
    one call of every op the tracer wraps."""
    from hrt import HrtModel, LossConfig, generate_synthetic, train
    from hrt.config import dataset_dims
    from hrt.gradcheck import TINY_MODEL, TINY_SPEC

    dataset = generate_synthetic(replace(TINY_SPEC, samples_per_class=4), 0)
    model = HrtModel.build(ModelConfig(**dataset_dims(dataset), **TINY_MODEL),
                           dataset.semantics.attr_vectors,
                           dataset.semantics.class_attr, seed=0)
    n, batch = dataset.splits["train"].size, 4
    assert n % batch  # the last minibatch is a short one
    with hooks.Tracer() as tracer:
        train(dataset, model, LossConfig(), OptimizerConfig(), epochs=1,
              batch_size=batch)

    expected = dict.fromkeys(hooks.layer_targets(), 0)
    for target in ("hrt.model.HrtModel.forward", "hrt.model.encode",
                   "hrt.encoder.batched_primary_capsules",
                   "hrt.encoder.batched_em_routing",
                   "hrt.encoder.inverted_routing",
                   "hrt.model.adjust_class_attributes",
                   "hrt.model.content_attribute_scores",
                   "hrt.model.class_scores",
                   "hrt.train.cross_entropy", "hrt.train.calibration_loss",
                   "hrt.train.attribute_regression_loss", "hrt.train.predict",
                   "hrt.tensor.Tensor.backward"):
        expected[target] = n
    expected["hrt.train.optimizer_step"] = -(-n // batch)
    hooks.expect_calls(tracer.calls, expected)
    counts = tracer.per_sample_op_counts()
    assert counts.shape == (n, 3)
    assert (counts == counts[0]).all()
    # an op that only tests reach is code a training step does not need
    assert [op for op in hooks.op_names()
            if tracer.calls[f"hrt.tensor.{op}"] == 0] == []


@pytest.mark.parametrize("name", sorted(bench_literal("WORKLOADS")))
def test_workload_overlay_builds_a_model_config(name):
    # a config key the benchmark still sets must stay loadable
    from hrt import generate_synthetic
    from hrt.config import load_config, model_config_for, synthetic_spec_for

    _kind, overlay = bench_literal("WORKLOADS")[name]
    config = load_config(overrides=overlay)
    dataset = generate_synthetic(*synthetic_spec_for(config))
    model_config_for(config, dataset)


def test_bench_reads_only_model_config_fields():
    # the benchmark reads the model's dimensions from its config, so these
    # fields must stay while it does
    read = {m for path in BENCH_DIR.glob("*.py")
            for m in re.findall(r"model\.config\.(\w+)",
                                path.read_text(encoding="utf-8"))}
    assert read, "the benchmark no longer reads model.config"
    assert read <= {f.name for f in fields(ModelConfig)}


def test_bench_builds_no_model_config_itself():
    # ModelConfig has no default sizes, so the benchmark builds each model
    # config through config.model_config_for, which takes them from the data
    calls = [f"{path.name}:{n}" for path in sorted(BENCH_DIR.glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8")
                                      .splitlines(), start=1)
             if "ModelConfig(" in line]
    assert calls == []
