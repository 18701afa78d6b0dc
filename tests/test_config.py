from dataclasses import MISSING, fields

import numpy as np
import pytest

from hrt import ConfigError, ModelConfig
from hrt.config import DATASET_FIELDS, gamma_offsets, load_config

# the resolved default config, as `hrt` echoes it; DEFAULTS is built from the
# config dataclasses, so a change to one of their defaults shows here
RESOLVED_DEFAULTS = {
    "model": {"d_cap": 16, "n_primary": 128, "k_em": 5, "k_td": 2},
    "loss": {"lambda1": 0.1, "lambda2": 0.033},
    "gamma": {"seen_offset": -0.5, "unseen_offset": 1.0},
    "optimizer": {"lr": 1e-3, "momentum": 0.9, "rho": 0.99, "eps": 1e-8,
                  "weight_decay": 1e-4},
    "train": {"epochs": 200, "batch_size": 16, "seed": 0},
    "synthetic": {"c_seen": 8, "c_unseen": 4, "num_attributes": 12,
                  "r_patches": 9, "d_feat": 64, "tau": 32,
                  "samples_per_class": 40, "noise_std": 0.1,
                  "signal_patches_per_attribute": 2, "train_fraction": 0.75,
                  "seed": 0},
}


def test_resolved_defaults_pinned():
    config = load_config()
    assert config == RESOLVED_DEFAULTS
    # same types too: 1e-3 and 0.001 compare equal, 1 and 1.0 do as well
    for section, values in RESOLVED_DEFAULTS.items():
        for key, value in values.items():
            assert type(config[section][key]) is type(value), (section, key)


def test_model_sizes_come_only_from_the_dataset():
    # the sizes have no default that could restate the synthetic recipe
    with pytest.raises(TypeError, match="missing 4 required"):
        ModelConfig()
    assert tuple(f.name for f in fields(ModelConfig)
                 if f.default is MISSING) == DATASET_FIELDS


def test_int_for_float_offsets_accepted():
    config = load_config(overrides={
        "optimizer": {"lr": 1},
        "gamma": {"seen_offset": -1, "unseen_offset": 2}})
    assert config["optimizer"]["lr"] == 1
    gamma = gamma_offsets(config, 3, [0, 1], [2])
    assert np.array_equal(gamma, [-1.0, -1.0, 2.0])


def test_pose_mode_is_an_unknown_key():
    # the primary poses vote as they are; there is no pose layout to pick
    with pytest.raises(ConfigError, match="unknown config key 'model.pose_mode'"):
        load_config(overrides={"model": {"pose_mode": "vector"}})


def test_section_that_is_not_an_object_rejected():
    with pytest.raises(ConfigError, match="config key 'model' must be an object"):
        load_config(overrides={"model": 3})


def test_config_file_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must hold a JSON object"):
        load_config(path)
