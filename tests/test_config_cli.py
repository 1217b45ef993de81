import csv
import json
import os
import subprocess
import sys

import pytest

from gvcl.cli import cmd_toy, main
from gvcl.config import (
    ExperimentConfig,
    _coerce,
    from_ini,
    load_config,
    save_config,
    to_ini,
)
from gvcl.objectives import GVCLConfig
from gvcl.runner import RunnerConfig, RunRecord


def rich_config():
    return ExperimentConfig(
        name="round_trip",
        dataset="split_mnist",
        methods=("gvcl_film", "ewc"),
        seeds=(0, 3, 7),
        data_seed=42,
        runner=RunnerConfig(
            gvcl=GVCLConfig(beta=0.2, lam=5.0, mc_samples=2, lr=5e-4, epochs=17,
                            batch_size=32, eval_samples=25),
            prior0_var=2.0,
            map_lr=0.01,
            map_epochs=33,
            fisher_samples=111,
            ewc_lam=10.0,
        ),
    )


def test_ini_round_trip_is_lossless():
    cfg = rich_config()
    assert from_ini(to_ini(cfg)) == cfg


def test_file_round_trip(tmp_path):
    cfg = rich_config()
    path = tmp_path / "exp.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dataset="imagenet")
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("gvcl", "bogus"))
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())


def test_missing_experiment_section():
    with pytest.raises(ValueError):
        from_ini("[runner]\nprior0_var = 1.0\n")


def test_defaults_fill_missing_sections():
    cfg = from_ini("[experiment]\nname = 'x'\ndataset = 'toy_clusters'\n")
    assert cfg.name == "x"
    assert cfg.runner == RunnerConfig()


def test_unknown_sections_and_keys_rejected():
    good = "[experiment]\nname = 'x'\n[runner]\nmap_lr = 0.1\n[gvcl]\neval_samples = 3\n"
    assert from_ini(good).runner.gvcl.eval_samples == 3
    for section, key in (("experiment", "seed"), ("runner", "map_rl"), ("gvcl", "eval_sample")):
        bad = good.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
        with pytest.raises(ValueError, match=key):
            from_ini(bad)
    with pytest.raises(ValueError, match="gvlc"):
        from_ini(good + "[gvlc]\nbeta = 0.5\n")
    with pytest.raises(ValueError, match="runner"):  # the nested section, not a key
        from_ini("[experiment]\nrunner = 1\n")


def test_coerce_dispatches_on_the_declared_type():
    assert _coerce("7", "int") == 7 and type(_coerce("7", "float")) is float
    assert _coerce("'a b'", "str") == "a b"
    assert _coerce("('gvcl', 'ewc')", "tuple") == ("gvcl", "ewc")
    assert _coerce("(0, 3)", tuple) == (0, 3)
    with pytest.raises(ValueError):
        _coerce("1.5", "int")
    for hint in ("bool", "list", "Optional[int]", "RunnerConfig"):
        with pytest.raises(TypeError, match="unsupported"):
            _coerce("1", hint)


def test_non_integer_seed_rejected_where_it_enters():
    with pytest.raises(ValueError, match="seeds must be integers"):
        from_ini("[experiment]\nseeds = (0, x)\n")
    for bad in ((0, "1"), (1.0,), (True,)):
        with pytest.raises(ValueError, match="seeds must be integers"):
            ExperimentConfig(seeds=bad)
    with pytest.raises(ValueError, match="seeds must be integers"):
        ExperimentConfig(data_seed=0.5)
    with pytest.raises(ValueError):
        from_ini("[experiment]\ndata_seed = x\n")


def test_unparsable_value_names_its_section_and_key():
    # one int field and one float field
    for section, key, text in (("gvcl", "epochs", "sixty"), ("runner", "map_lr", "fast")):
        with pytest.raises(ValueError, match=rf"^\[{section}\] {key}: .*'{text}'"):
            from_ini(f"[experiment]\nname = 'x'\n[{section}]\n{key} = {text}\n")


def test_import_does_not_load_scipy():
    # nor does running what solves exactly: verify's conjugate and limit
    # rows, and the criterion-4 reference
    code = (
        "import sys, gvcl.cli, gvcl.data, gvcl.toys\n"
        "assert gvcl.cli.cmd_verify() == 0\n"
        "gvcl.toys.ewc_reference_solution(gvcl.data.gen_toy_clusters(1234))\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.splitlines()[-1] == "False"


SHIPPED_CONFIGS = [
    ("toy_clusters", {"name": "toy_clusters_demo"}, {"eval_samples": 20}),
    (
        "split_mnist",
        {"name": "split_mnist", "dataset": "split_mnist",
         "methods": ("vcl", "gvcl", "gvcl_film", "ewc"), "seeds": (0, 1, 2)},
        {"epochs": 100, "batch_size": 256, "eval_samples": 20, "beta": 0.2, "lam": 100.0},
    ),
]


def test_shipped_config_loads():
    for name, experiment, gvcl in SHIPPED_CONFIGS:
        cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.ini"))
        assert {k: getattr(cfg, k) for k in experiment} == experiment, name
        assert {k: getattr(cfg.runner.gvcl, k) for k in gvcl} == gvcl, name


# -- CLI ----------------------------------------------------------------------


def test_cli_verify_exits_zero(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 10
    assert "ewc gradients vs finite differences" in out
    assert "beta-VI optimum -> Online-EWC limit" in out


def test_cli_toy_film_scale(tmp_path, capsys):
    assert main(["toy", "film_scale", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "film_scale.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["instance", "c_analytic", "c_grid", "gap"]
    assert len(rows) == 101
    assert all(float(r[3]) <= 0.011 for r in rows[1:])


def test_cli_toy_unknown_name_leaves_no_file(tmp_path):
    with pytest.raises(ValueError, match="bogus"):
        cmd_toy("bogus", str(tmp_path / "toys"))
    assert not (tmp_path / "toys").exists()


def test_config_rejects_bad_counts_where_they_enter():
    bad = [
        ("gvcl", "epochs", 0), ("gvcl", "batch_size", 0), ("gvcl", "eval_samples", -1),
        ("runner", "map_epochs", 0), ("runner", "fisher_samples", 0),
        ("runner", "prior0_var", 0.0), ("runner", "prior0_var", -1.0),
        # every float is finite, and rates, variances and decays are in range
        ("gvcl", "beta", float("nan")), ("gvcl", "lam", float("inf")), ("gvcl", "lr", -0.01),
        ("gvcl", "lr", 0.0), ("runner", "prior0_var", float("nan")),
        ("runner", "map_lr", -0.5), ("runner", "map_lr", float("inf")),
        ("runner", "map_lr_decay", 0.0), ("runner", "map_lr_decay", 1.5),
        ("runner", "patience", 0), ("runner", "ewc_lam", -5.0),
        ("runner", "ewc_lam", float("nan")), ("runner", "ewc_gamma", -0.1),
    ]
    for section, name, value in bad:
        cls = GVCLConfig if section == "gvcl" else RunnerConfig
        with pytest.raises(ValueError, match=name):
            cls(**{name: value})
        text = f"[experiment]\nname = 'x'\n[{section}]\n{name} = {value!r}\n"
        with pytest.raises(ValueError, match=name):
            from_ini(text)


def smoke_config():
    return ExperimentConfig(
        name="smoke",
        dataset="toy_clusters",
        methods=("gvcl", "map_sgd"),
        seeds=(0,),
        data_seed=5,
        runner=RunnerConfig(
            gvcl=GVCLConfig(epochs=2, batch_size=50, eval_samples=3),
            map_epochs=3,
            fisher_samples=10,
        ),
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_run_toy_clusters(tmp_path, jobs):
    ini = tmp_path / "smoke.ini"
    save_config(smoke_config(), ini)
    out = tmp_path / "runs"
    assert main(["run", str(ini), "--jobs", str(jobs), "--out", str(out)]) == 0

    exp = out / "smoke"
    for m in ("gvcl", "map_sgd"):
        assert (exp / m / "0" / "record.json").exists()
    with open(exp / "summary.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["method", "seed", "acc", "bwt", "ece", "error"]
    assert len(rows) == 3
    for r in rows[1:]:
        assert r[5] == ""  # no errors
        assert 0.0 <= float(r[2]) <= 1.0
    with open(exp / "calibration.csv") as f:
        cal = list(csv.reader(f))
    assert cal[0][0] == "method"
    assert len(cal) > 1


def test_cli_run_records_a_raising_cell_and_finishes_the_rest(tmp_path, monkeypatch, capsys):
    from gvcl import cli

    run = cli.run_continual

    def raise_for_map_sgd(method, *args, **kwargs):
        if method == "map_sgd":
            raise RuntimeError("boom")
        return run(method, *args, **kwargs)

    monkeypatch.setattr(cli, "run_continual", raise_for_map_sgd)
    ini = tmp_path / "smoke.ini"
    save_config(smoke_config(), ini)
    out = tmp_path / "runs"
    assert main(["run", str(ini), "--jobs", "1", "--out", str(out)]) == 1
    assert "map_sgd/0" in capsys.readouterr().err

    exp = out / "smoke"
    failed = RunRecord(**json.loads((exp / "map_sgd" / "0" / "record.json").read_text()))
    assert failed.error == "RuntimeError: boom" and failed.result_matrix == []
    done = RunRecord(**json.loads((exp / "gvcl" / "0" / "record.json").read_text()))
    assert done.error == "" and len(done.result_matrix) == 2
    with open(exp / "summary.csv") as f:
        rows = {r["method"]: r for r in csv.DictReader(f)}
    assert rows["map_sgd"]["error"] == "RuntimeError: boom" and rows["map_sgd"]["acc"] == ""
    assert rows["gvcl"]["error"] == "" and 0.0 <= float(rows["gvcl"]["acc"]) <= 1.0
    with open(exp / "calibration.csv") as f:
        assert {r["method"] for r in csv.DictReader(f)} == {"gvcl"}


def test_cli_run_rejects_jobs_below_one(tmp_path, capsys):
    # argument parsing fails before any config is read or any process starts
    for jobs in ("0", "-1"):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(tmp_path / "missing.ini"), "--jobs", jobs, "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert f"--jobs: expected an integer >= 1, got '{jobs}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_run_split_mnist_needs_data_root(tmp_path):
    cfg = ExperimentConfig(name="m", dataset="split_mnist", methods=("gvcl",), seeds=(0,))
    ini = tmp_path / "m.ini"
    save_config(cfg, ini)
    with pytest.raises(ValueError):
        main(["run", str(ini), "--out", str(tmp_path / "r")])
    with pytest.raises(FileNotFoundError):
        main(["run", str(ini), "--data-root", str(tmp_path), "--out", str(tmp_path / "r")])


def test_point_method_ece_scores_mean_predictions(tmp_path, monkeypatch):
    # ewc and map_sgd never train their log-variances, so their calibration
    # inputs must come from the trained means, not from a sampled net
    from pathlib import Path

    import numpy as np

    from gvcl import cli
    from gvcl.nets import predict

    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "toy_clusters.ini")
    tasks = cli.build_tasks(cfg.dataset, None, cfg.data_seed)
    nets = []
    run = cli.run_continual

    def keep_net(*args, **kwargs):
        record, net = run(*args, **kwargs)
        nets.append(net)
        return record, net

    monkeypatch.setattr(cli, "run_continual", keep_net)
    for method in ("ewc", "map_sgd"):
        _, _, record, _ = cli._run_cell((method, 0, cfg.runner, tasks, str(tmp_path / method)))
        probs = [predict(nets[-1], t.task_id, t.test.inputs, 0) for t in tasks]
        assert np.array_equal(record.confidence, np.concatenate([p.max(axis=1) for p in probs]))
        want = [(p.argmax(axis=1) == t.test.labels).astype(float) for p, t in zip(probs, tasks)]
        assert np.array_equal(record.correct, np.concatenate(want))
