"""Config parsing errors name the dotted path and reach the CLI as exit 2."""

import json

import pytest

from density_softmax import cli
from density_softmax.config import ConfigError, parse_config

BASE = {"dataset": {"generator": "two_moons"}}


def with_(section: str, fields: dict) -> dict:
    doc = json.loads(json.dumps(BASE))
    doc.setdefault(section, {}).update(fields)
    return doc


class TestParseConfig:
    def test_optimizer_l2_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config(with_("train", {"optimizer": {"l2": 0.01}}))
        assert info.value.path == "train.optimizer.l2"

    @pytest.mark.parametrize("section, fields, path", [
        ("encoder", {"width": 64, "latent_dim": 32}, "encoder"),
        ("train", {"epochs": -1}, "train"),
        ("dataset", {"generator": "two_moons", "shift": {"scales": [1, 1, 2, 3, 4]}},
         "dataset.shift"),
    ])
    def test_dataclass_validation_becomes_config_error(self, section, fields, path):
        with pytest.raises(ConfigError) as info:
            parse_config(with_(section, fields))
        assert info.value.path == path

    def test_single_member_ensemble_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config({**BASE, "ensemble_size": 1})
        assert info.value.path == "ensemble_size"


class TestCliExitCodes:
    def test_invalid_encoder_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(with_("encoder", {"width": 64, "latent_dim": 32})))
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG == 2
        assert "error: encoder: width must equal latent_dim" in capsys.readouterr().err
