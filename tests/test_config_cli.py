import csv
import os
import subprocess
import sys

import pytest

from gvcl.cli import main
from gvcl.config import (
    ExperimentConfig,
    _coerce,
    from_ini,
    load_config,
    save_config,
    to_ini,
)
from gvcl.objectives import GVCLConfig
from gvcl.runner import RunnerConfig


def rich_config():
    return ExperimentConfig(
        name="round_trip",
        dataset="synthetic_pair",
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


def test_import_does_not_load_scipy():
    code = "import sys, gvcl.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"


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
    assert out.count("PASS") == 7


def test_cli_toy_film_scale(tmp_path, capsys):
    assert main(["toy", "film_scale", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "film_scale.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["instance", "c_analytic", "c_grid", "gap"]
    assert len(rows) == 101
    assert all(float(r[3]) <= 0.011 for r in rows[1:])


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_run_toy_clusters(tmp_path, jobs):
    cfg = ExperimentConfig(
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
    ini = tmp_path / "smoke.ini"
    save_config(cfg, ini)
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
        _, _, record = cli._run_cell((method, 0, cfg.runner, tasks, str(tmp_path / method)))
        probs = [predict(nets[-1], t.task_id, t.test.inputs, mode="mean") for t in tasks]
        assert np.array_equal(record.confidence, np.concatenate([p.max(axis=1) for p in probs]))
        want = [(p.argmax(axis=1) == t.test.labels).astype(float) for p, t in zip(probs, tasks)]
        assert np.array_equal(record.correct, np.concatenate(want))
