"""The command line as it is run: `python -m density_softmax.cli` in a
subprocess for every subcommand, exit codes 0/2/3, byte-identical reruns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import density_softmax
from density_softmax.cli import main
from density_softmax.data import LabeledSet, save_csv
from density_softmax.model import EncoderConfig, init_model
from density_softmax.predictor import DensitySoftmaxModel
from density_softmax.serialize import density_softmax_container, save_container

SRC = Path(density_softmax.__file__).resolve().parents[1]

TINY = {"seed": 1,
        "dataset": {"generator": "two_moons", "n_per_class": 64,
                    "n_test_per_class": 32, "ood": {"n": 32}},
        "encoder": {"width": 8, "depth": 2},
        "train": {"epochs": 3, "batch_size": 32, "optimizer": {"lr": 0.003}},
        "reopt": {"epochs": 1, "batch_size": 32},
        "ensemble_size": 2}


def cli(*args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "density_softmax.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def ok(*args) -> subprocess.CompletedProcess:
    proc = cli(*args)
    assert proc.returncode == 0, proc.stderr
    return proc


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = write_config(root / "tiny.json", TINY)
    ok("run", "--config", config, "--out", root / "run")
    return root, config


class TestSubcommands:
    def test_run_is_byte_identical_across_reruns(self, work):
        root, config = work
        ok("run", "--config", config, "--out", root / "run_again")
        first = tree(root / "run")
        assert {"model.json", "model_erm.json", "loss_traces.json"} <= set(first)
        assert first == tree(root / "run_again")

    def test_compare_is_byte_identical_across_reruns(self, work):
        root, config = work
        outs = [root / "cmp_a", root / "cmp_b"]
        for out in outs:
            ok("compare", "--configs", config, "--out", out)
        first = tree(outs[0])
        assert {"compare.json", "compare.md", "tiny_model_ensemble.json"} <= set(first)
        assert first == tree(outs[1])

    def test_every_other_subcommand_exits_0(self, work):
        root, config = work
        run, data = root / "run", root / "run" / "data"
        ok("gen-data", "--config", config, "--out", root / "gen")
        # gen-data writes the very sets run trains and evaluates on
        assert tree(root / "gen") == {k: v for k, v in tree(run).items()
                                      if k.startswith("data/")}
        for model in ("model.json", "model_erm.json"):
            ok("surface", "--model", run / model, "--out", root / f"surf_{model}",
               "--resolution", 10, "--data", data)
            ok("reliability", "--model", run / model, "--set", data / "iid_test.csv",
               "--out", root / f"rel_{model}")
        ok("hist-likelihood", "--model", run / "model.json", "--data", data,
           "--sets", "train", "ood", "--out", root / "hist")
        ok("bench", "--models", run / "model.json", run / "model_erm.json",
           "--set", data / "iid_test.csv", "--warmup", 2, "--repetitions", 5,
           "--out", root / "bench")
        bench = json.loads((root / "bench" / "bench.json").read_text())
        assert [m["kind"] for m in bench["models"]] == ["density_softmax", "erm"]


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path):
        config = write_config(tmp_path / "bad.json", {**TINY, "colour": "blue"})
        proc = cli("run", "--config", config, "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert "error: colour: unknown field" in proc.stderr

    def test_missing_model_exits_2(self, tmp_path):
        proc = cli("surface", "--model", tmp_path / "absent.json", "--out", tmp_path / "s")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")

    def test_diverging_training_exits_3(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["train"]["optimizer"] = {"lr": 1e200}
        config = write_config(tmp_path / "diverge.json", doc)
        proc = cli("run", "--config", config, "--out", tmp_path / "out")
        assert proc.returncode == 3
        assert "error: pipeline stage 'erm' failed" in proc.stderr


class TestLatentOverflow:
    """A finite CSV row whose latent overflows in the encoder exits 2 with a
    DataError naming the file and the data row (in-process ``main``)."""

    @pytest.fixture(scope="class")
    def huge(self, work):
        root, _ = work
        data = root / "huge"
        data.mkdir(exist_ok=True)
        rows = np.array([[0.1, 0.2], [0.5, -0.3], [1.7e308, -1.7e308]])
        save_csv(LabeledSet(rows, np.array([0, 1, 0]), "iid_test"), data / "iid_test.csv")
        return root / "run" / "model.json", data / "iid_test.csv"

    def check_exit_2(self, capsys, argv, csv):
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {csv}: data row 2: its latent is not finite\n"

    def test_reliability(self, huge, tmp_path, capsys):
        model, csv = huge
        self.check_exit_2(capsys, ["reliability", "--model", model, "--set", csv,
                                   "--out", tmp_path], csv)

    def test_bench(self, huge, tmp_path, capsys):
        # the whole set is checked before timing, which predicts row by row
        model, csv = huge
        self.check_exit_2(capsys, ["bench", "--models", model, "--set", csv, "--warmup", 0,
                                   "--repetitions", 1, "--out", tmp_path], csv)
        assert not (tmp_path / "bench.json").exists()

    def test_hist_likelihood(self, huge, tmp_path, capsys):
        model, csv = huge
        self.check_exit_2(capsys, ["hist-likelihood", "--model", model, "--data", csv.parent,
                                   "--sets", "iid_test", "--out", tmp_path], csv)


@pytest.mark.parametrize("bounds, message", [
    ("-1e308,1e308,-1e308,1e308", "each span x1 - x0 and y1 - y0 must be finite"),
    ("-1.7e308,0,0,1.7e308",
     "the latent of grid point (-1.7e+308, 1.275e+308) is not finite"),
], ids=["span", "latent"])
def test_surface_bounds_that_overflow_exit_2(work, tmp_path, capsys, bounds, message):
    root, _ = work
    argv = ["surface", "--model", str(root / "run" / "model.json"), "--out", str(tmp_path),
            "--resolution", "5", f"--bounds={bounds}"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: bounds: {message}\n"


class TestInputWidth:
    """A CSV whose feature width is not the model's input width exits 2 with
    a message naming the file and both widths (in-process ``main``)."""

    @pytest.fixture(scope="class")
    def wide(self, work):
        root, _ = work
        data = root / "wide"
        data.mkdir(exist_ok=True)
        rows = np.random.default_rng(0).normal(size=(6, 3))
        for tag in ("iid_test", "train"):
            save_csv(LabeledSet(rows, np.array([0, 1] * 3), tag), data / f"{tag}.csv")
        return root / "run" / "model.json", data

    def check_exit_2(self, capsys, argv, csv):
        assert main([str(a) for a in argv]) == 2
        assert (capsys.readouterr().err
                == f"error: {csv}: 3 feature columns, the model takes 2 inputs\n")

    def test_bench(self, wide, tmp_path, capsys):
        model, data = wide
        self.check_exit_2(capsys, ["bench", "--models", model, "--set", data / "iid_test.csv",
                                   "--out", tmp_path], data / "iid_test.csv")

    def test_reliability(self, wide, tmp_path, capsys):
        model, data = wide
        self.check_exit_2(capsys, ["reliability", "--model", model, "--set",
                                   data / "iid_test.csv", "--out", tmp_path],
                          data / "iid_test.csv")

    def test_hist_likelihood(self, wide, tmp_path, capsys):
        model, data = wide
        self.check_exit_2(capsys, ["hist-likelihood", "--model", model, "--data", data,
                                   "--sets", "iid_test", "--out", tmp_path],
                          data / "iid_test.csv")

    def test_surface_overlay(self, wide, tmp_path, capsys):
        model, data = wide
        self.check_exit_2(capsys, ["surface", "--model", model, "--data", data,
                                   "--out", tmp_path], data / "train.csv")

    def test_surface_model(self, tmp_path, capsys):
        # the surface grid is 2-D, so a model with another input width is refused
        encoder, classifier = init_model(EncoderConfig(width=4, depth=1), 3, 2, 0)
        model = tmp_path / "wide_model.json"
        save_container(density_softmax_container(DensitySoftmaxModel(encoder, classifier)),
                       model)
        assert main(["surface", "--model", str(model), "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == ("error: model: surface plots need a 2-input "
                                          "model; this one takes 3 inputs\n")
