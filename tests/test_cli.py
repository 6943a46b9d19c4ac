"""The command line as it is run: `python -m density_softmax.cli` in a
subprocess for every subcommand, exit codes 0/2/3, byte-identical reruns."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import density_softmax
from density_softmax import predictor
from density_softmax.cli import main
from density_softmax.config import EncoderConfig
from density_softmax.data import LabeledSet, save_csv
from density_softmax.metrics import EvalReport
from density_softmax.model import init_model
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

    def test_compare_trains_one_erm_model_per_ensemble_member(self, work, tmp_path,
                                                               monkeypatch):
        """The pipeline's ERM model is ensemble member 0, so compare makes
        ensemble_size ERM fits, at the run's seed + 0..m-1 (in-process)."""
        _, config = work
        seeds, erm_train = [], predictor.erm_train

        def spy(*args):
            seeds.append(args[-1])
            return erm_train(*args)
        monkeypatch.setattr(predictor, "erm_train", spy)
        assert main(["compare", "--configs", str(config), "--out", str(tmp_path / "cmp")]) == 0
        assert seeds == [TINY["seed"] + i for i in range(TINY["ensemble_size"])]

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

    def test_figure_writing_subcommands_are_byte_identical_across_reruns(self, work):
        root, _ = work
        run, data = root / "run", root / "run" / "data"
        commands = {
            "surface": ["surface", "--model", run / "model.json", "--resolution", 10,
                        "--data", data],
            "hist": ["hist-likelihood", "--model", run / "model.json", "--data", data,
                     "--sets", "iid_test", "shifted_3", "ood"],
            "reliability": ["reliability", "--model", run / "model.json",
                            "--set", data / "shifted_3.csv"],
        }
        for name, argv in commands.items():
            outs = [root / f"rerun_{name}_a", root / f"rerun_{name}_b"]
            for out in outs:
                ok(*argv, "--out", out)
            first = tree(outs[0])
            assert first, name
            assert first == tree(outs[1]), name

    @pytest.mark.parametrize("name", ["density_softmax", "erm"])
    def test_ood_report_carries_the_runs_detection(self, work, name):
        """The ood report's auroc and aupr are its max-prob detection against
        iid_test, the figures ood_detection_<model>.json holds."""
        run = work[0] / "run"
        report = json.loads((run / f"report_{name}_ood.json").read_text())
        detection = json.loads((run / f"ood_detection_{name}.json").read_text())
        assert report["auroc"] is not None
        assert {k: report[k] for k in ("auroc", "aupr")} == detection["neg_max_prob"]

    def test_compare_columns_are_the_eval_report_fields(self, work, tmp_path, capsys):
        _, config = work
        out = tmp_path / "cmp"
        assert main(["compare", "--configs", str(config), "--out", str(out)]) == 0
        header = (out / "compare.md").read_text().splitlines()[0]
        fields = [f.name for f in dataclasses.fields(EvalReport) if f.name != "bins"]
        assert header == "| " + " | ".join(["config", "model"] + fields) + " |"
        rows = json.loads((out / "compare.json").read_text())
        assert all(sorted(row) == sorted(["config", "model"] + fields) for row in rows)


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path):
        config = write_config(tmp_path / "bad.json", {**TINY, "colour": "blue"})
        proc = cli("run", "--config", config, "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert "error: colour: unknown field" in proc.stderr

    def test_compare_refuses_configs_that_share_a_stem(self, tmp_path, capsys):
        """A config's file stem names its containers and rows, so two configs
        with one stem are refused before anything is trained or written."""
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = write_config(tmp_path / "a" / "tiny.json", TINY)
        second = write_config(tmp_path / "b" / "tiny.json",
                              {**TINY, "dataset": {**TINY["dataset"], "generator": "two_ovals"}})
        out = tmp_path / "cmp"
        assert main(["compare", "--configs", str(first), str(second), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: configs: {first} and {second} share the file stem 'tiny'\n")
        assert not out.exists()

    def test_repeated_set_tag_exits_2(self, work, tmp_path, capsys):
        run = work[0] / "run"
        out = tmp_path / "hist"
        argv = ["hist-likelihood", "--model", run / "model.json", "--data", run / "data",
                "--sets", "ood", "iid_test", "iid_test", "--out", out]
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == "error: sets: set tag 'iid_test' is given twice\n"
        assert not out.exists()

    def test_unknown_log_level_exits_2(self, tmp_path, monkeypatch):
        config = write_config(tmp_path / "tiny.json", TINY)
        monkeypatch.setenv("DS_LOG", "bogus")
        proc = cli("gen-data", "--config", config, "--out", tmp_path / "bogus")
        assert (proc.returncode, proc.stderr) == (2, "error: DS_LOG: unknown level 'BOGUS'\n")
        assert not (tmp_path / "bogus").exists()
        monkeypatch.setenv("DS_LOG", "debug")
        proc = ok("gen-data", "--config", config, "--out", tmp_path / "debug")
        assert "INFO density_softmax: wrote " in proc.stderr

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


class TestNonFiniteCell:
    """A CSV cell that reads nan or inf exits 2 with a DataError naming the
    file and the line (in-process ``main``)."""

    @pytest.fixture(scope="class")
    def nan_csv(self, work):
        root, _ = work
        csv = root / "nan_cell" / "iid_test.csv"
        csv.parent.mkdir(exist_ok=True)
        csv.write_text("x0,x1,label,domain,intensity\n0.1,0.2,0,iid_test,0\n"
                       "nan,0.3,1,iid_test,0\n")
        return root / "run" / "model.json", csv

    def check_exit_2(self, capsys, argv, csv):
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {csv}:3: non-finite cell 'nan'\n"

    def test_reliability(self, nan_csv, tmp_path, capsys):
        model, csv = nan_csv
        self.check_exit_2(capsys, ["reliability", "--model", model, "--set", csv,
                                   "--out", tmp_path], csv)

    def test_bench(self, nan_csv, tmp_path, capsys):
        model, csv = nan_csv
        self.check_exit_2(capsys, ["bench", "--models", model, "--set", csv, "--warmup", 0,
                                   "--repetitions", 1, "--out", tmp_path], csv)


class TestCsvLabels:
    """A CSV label the model has no class for exits 2 naming the file and
    its line or data row (in-process ``main``); ``reliability`` is the one
    subcommand that reads labels."""

    @pytest.mark.parametrize("label, where", [
        (7, ": data row 1: label 7 is not one of the model's 2 classes"),
        (-1, ":3: negative label -1"),
    ], ids=["above_k", "negative"])
    def test_reliability(self, work, tmp_path, capsys, label, where):
        root, _ = work
        csv = tmp_path / "labels.csv"
        csv.write_text("x0,x1,label,domain,intensity\n0.1,0.2,0,iid_test,0\n"
                       f"0.3,0.1,{label},iid_test,0\n")
        argv = ["reliability", "--model", root / "run" / "model.json", "--set", csv,
                "--out", tmp_path / "rel"]
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {csv}{where}\n"
        assert not (tmp_path / "rel").exists()


class TestCsvTags:
    """A CSV whose domain or intensity tag is invalid, or differs from the
    first row's, exits 2 naming the file and the line (in-process ``main``)."""

    @pytest.mark.parametrize("tags, second, line, problem", [
        ("shifted,9", "shifted,9", 2, "shifted sets need intensity in 1..5"),
        ("weird,0", "weird,0", 2, "unknown domain 'weird'"),
        ("iid_test,0", "shifted,2", 3,
         "mixed domain/intensity tags in one file (shifted,2 after iid_test,0)"),
    ], ids=["intensity", "domain", "mixed"])
    def test_reliability(self, work, tmp_path, capsys, tags, second, line, problem):
        root, _ = work
        csv = tmp_path / "tags.csv"
        csv.write_text(f"x0,x1,label,domain,intensity\n0.1,0.2,0,{tags}\n0.3,0.1,1,{second}\n")
        argv = ["reliability", "--model", root / "run" / "model.json", "--set", csv,
                "--out", tmp_path / "rel"]
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {csv}:{line}: {problem}\n"
        assert not (tmp_path / "rel").exists()


class TestSeedBoundary:
    """A seed numpy cannot draw from, or a --seed on a config whose root is
    not an object, exits 2 naming the seed field or the file (in-process
    ``main``)."""

    @pytest.mark.parametrize("flags, seed", [(["--seed", "-1"], 1), ([], -3)],
                             ids=["flag", "config"])
    def test_negative_seed(self, tmp_path, capsys, flags, seed):
        config = write_config(tmp_path / "tiny.json", {**TINY, "seed": seed})
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")] + flags
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed: must be >= 0\n"

    @pytest.mark.parametrize("root", [[1, 2], "tiny"], ids=["list", "string"])
    def test_seed_flag_on_a_root_that_is_not_an_object(self, tmp_path, capsys, root):
        config = write_config(tmp_path / "root.json", root)
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out"), "--seed", "3"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {config}: config root must be a JSON object\n"


class TestUnreadableInputs:
    """A path that names the wrong kind of file, or a file that is not UTF-8
    text, exits 2 with an error naming the path (in-process ``main``)."""

    def check_exit_2(self, capsys, argv, *expected):
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(part in err for part in expected), err

    def test_run_out_is_a_file(self, tmp_path, capsys):
        config = write_config(tmp_path / "tiny.json", TINY)
        out = tmp_path / "taken"
        out.write_text("")
        self.check_exit_2(capsys, ["run", "--config", config, "--out", out],
                          "Not a directory", f"'{out / 'data'}'")

    def test_reliability_out_is_a_file(self, work, tmp_path, capsys):
        root, _ = work
        out = tmp_path / "taken"
        out.write_text("")
        self.check_exit_2(capsys, ["reliability", "--model", root / "run" / "model.json",
                                   "--set", root / "run" / "data" / "iid_test.csv",
                                   "--out", out], "File exists", f"'{out}'")

    @pytest.mark.parametrize("flag", ["--model", "--set"])
    def test_input_is_a_directory(self, work, tmp_path, capsys, flag):
        root, _ = work
        argv = ["reliability", "--model", root / "run" / "model.json",
                "--set", root / "run" / "data" / "iid_test.csv", "--out", tmp_path / "rel"]
        argv[argv.index(flag) + 1] = tmp_path
        self.check_exit_2(capsys, argv, "Is a directory", f"'{tmp_path}'")

    def test_config_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_bytes(b'{"seed": "\xff"}')
        self.check_exit_2(capsys, ["run", "--config", config, "--out", tmp_path / "out"],
                          f"error: {config}: invalid JSON: 'utf-8' codec can't decode byte 0xff")

    def test_csv_is_not_utf8(self, work, tmp_path, capsys):
        root, _ = work
        csv = tmp_path / "bad.csv"
        csv.write_bytes(b"x0,x1,label,domain,intensity\n0.1,\xff,0,iid_test,0\n")
        self.check_exit_2(capsys, ["reliability", "--model", root / "run" / "model.json",
                                   "--set", csv, "--out", tmp_path / "rel"],
                          f"error: {csv}: not UTF-8 text (")

    def test_container_is_not_utf8(self, work, tmp_path, capsys):
        root, _ = work
        model = tmp_path / "bad_model.json"
        model.write_bytes(b'{"version": "\xff"}')
        self.check_exit_2(capsys, ["reliability", "--model", model,
                                   "--set", root / "run" / "data" / "iid_test.csv",
                                   "--out", tmp_path / "rel"],
                          f"error: {model}: 'utf-8' codec can't decode byte 0xff")


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


@pytest.mark.parametrize("argv, flag, minimum", [
    (["surface", "--model", "m.json", "--resolution", "0"], "--resolution", 1),
    (["surface", "--model", "m.json", "--resolution", "-1"], "--resolution", 1),
    (["reliability", "--model", "m.json", "--set", "x.csv", "--bins", "0"], "--bins", 1),
    (["hist-likelihood", "--model", "m.json", "--data", "d", "--sets", "ood",
      "--hist-bins", "0"], "--hist-bins", 1),
    (["bench", "--models", "m.json", "--set", "x.csv", "--repetitions", "0"],
     "--repetitions", 1),
    (["bench", "--models", "m.json", "--set", "x.csv", "--warmup", "-1"], "--warmup", 0),
], ids=["resolution_0", "resolution_-1", "bins_0", "hist_bins_0", "repetitions_0",
        "warmup_-1"])
def test_count_flag_out_of_range_exits_2(tmp_path, capsys, argv, flag, minimum):
    """A count flag is checked as it is parsed, before any file is read:
    exit 2 and an error naming the flag, not a traceback further down."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path)])
    assert exit_info.value.code == 2
    value = argv[argv.index(flag) + 1]
    assert (f"error: argument {flag}: expected a count >= {minimum}, got {value}"
            in capsys.readouterr().err)
