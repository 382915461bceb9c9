"""``gotham`` command line: export-prototypes against a finished run, exit codes."""
import numpy as np
import pytest

from gotham import nn as network
from gotham.cli import main
from gotham.config import RunConfig
from gotham.graphstore import load_dataset, synth_generate, write_dataset
from gotham.trainer import evaluate_session, run_split, run_stream

KINDS = {
    "gfscil_plain": {"seen"},
    "gfscil_semantic": {"merged"},
    "gcl": {"merged", "unseen_semantic"},
}


def make_run(root, mode):
    """A tiny finished run: dataset in root/data, artifacts in root/run."""
    zero_shot = (4,) if mode == "gcl" else ()
    # 5 classes of 20 nodes: 3 base classes, then one streamed class per session
    synth = synth_generate(0, 5, 20, 0.3, 0.02, 8, n_base=3,
                           zero_shot_classes=zero_shot, k_shot=3)
    data, run = root / "data", root / "run"
    write_dataset(synth, data)
    cfg = RunConfig(dataset=str(data), mode=mode, out_dir=str(run), n_way=2,
                    k_shot=3, query_per_class=3, hidden_dim=16, out_dim=8,
                    seed=3, episodes_base=3, episodes_finetune=1)
    run_stream(load_dataset(data), cfg, out_dir=run)
    return data, run


def read_tsv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "class_id\tkind\tvector"
    kinds, vectors = {}, {}
    for line in lines[1:]:
        cls, kind, vec = line.split("\t")
        kinds[int(cls)] = kind
        vectors[int(cls)] = np.array([float(x) for x in vec.split()])
    return kinds, vectors


@pytest.fixture(scope="module")
def gcl_run(tmp_path_factory):
    return make_run(tmp_path_factory.mktemp("gcl"), "gcl")


@pytest.mark.parametrize("mode", sorted(KINDS))
def test_export_reproduces_evaluation(tmp_path, mode):
    data, run = make_run(tmp_path, mode)
    out = tmp_path / "protos.tsv"
    # no --dataset: the run's config.json names it
    assert main(["export-prototypes", "--run", str(run), "--out", str(out)]) == 0

    bundle = load_dataset(data)
    t = bundle.schedule.num_sessions
    kinds, vectors = read_tsv(out)
    assert sorted(kinds) == bundle.schedule.classes_at(t)
    assert set(kinds.values()) == KINDS[mode]
    for cls in bundle.schedule.unseen_at(t):
        assert kinds[cls] == "unseen_semantic"

    # the exported vectors classify the final session's eval nodes exactly as
    # the run did when it wrote summary.tsv
    cfg = RunConfig.from_json(run / "config.json")
    model = network.load_model(run / "model.ckpt")
    report = evaluate_session(model, bundle, t, vectors, run_split(bundle, cfg))
    summary = (run / "summary.tsv").read_text(encoding="utf-8").splitlines()
    overall = next(r for r in summary if r.startswith("overall\t"))
    assert f"{report.overall:.6f}" == overall.split("\t")[-1]


def test_export_earlier_session(tmp_path, gcl_run):
    data, run = gcl_run
    out = tmp_path / "s0.tsv"
    assert main(["export-prototypes", "--run", str(run), "--dataset", str(data),
                 "--session", "0", "--out", str(out)]) == 0
    kinds, _ = read_tsv(out)
    assert sorted(kinds) == load_dataset(data).schedule.classes_at(0)
    assert set(kinds.values()) == {"merged"}


def test_export_missing_run_dir_exits_2(tmp_path, gcl_run, capsys):
    data, _ = gcl_run
    code = main(["export-prototypes", "--run", str(tmp_path / "absent"),
                 "--dataset", str(data), "--out", str(tmp_path / "p.tsv")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_export_run_without_checkpoint_exits_2(tmp_path, gcl_run, capsys):
    data, run = gcl_run
    partial = tmp_path / "partial"
    partial.mkdir()
    (partial / "config.json").write_bytes((run / "config.json").read_bytes())
    code = main(["export-prototypes", "--run", str(partial),
                 "--dataset", str(data), "--out", str(tmp_path / "p.tsv")])
    assert code == 2
    assert "model.ckpt" in capsys.readouterr().err
    assert not (tmp_path / "p.tsv").exists()


@pytest.mark.parametrize("session", ["-1", "3"])
def test_export_session_out_of_range_exits_2(tmp_path, gcl_run, session, capsys):
    data, run = gcl_run
    code = main(["export-prototypes", "--run", str(run), "--dataset", str(data),
                 "--session", session, "--out", str(tmp_path / "p.tsv")])
    assert code == 2
    assert "out of range" in capsys.readouterr().err
    assert not (tmp_path / "p.tsv").exists()


def test_export_missing_dataset_exits_2(tmp_path, gcl_run, capsys):
    _, run = gcl_run
    code = main(["export-prototypes", "--run", str(run), "--dataset",
                 str(tmp_path / "absent"), "--out", str(tmp_path / "p.tsv")])
    assert code == 2
    assert "dataset directory not found" in capsys.readouterr().err


def test_run_ragged_features_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    write_dataset(synth_generate(0, 3, 4, 0.9, 0.1, 3), data)
    with open(data / "features.tsv", "a", encoding="utf-8") as fh:
        fh.write("1.0 2.0\n")
    cfg = tmp_path / "cfg.json"
    RunConfig(dataset=str(data)).to_json(cfg)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "inconsistent feature widths [2, 3]" in capsys.readouterr().err


@pytest.mark.parametrize("slope", [-0.01, 1.5, float("nan")])
def test_run_negative_slope_outside_unit_interval_exits_2(tmp_path, slope, capsys):
    data = tmp_path / "data"
    write_dataset(synth_generate(0, 3, 4, 0.9, 0.1, 3), data)
    cfg = tmp_path / "cfg.json"
    RunConfig(dataset=str(data), negative_slope=slope).to_json(cfg)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "negative_slope must lie in [0, 1]" in capsys.readouterr().err


def test_run_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize("flag,env,want", [
    ("5", "9", 5),        # --seed beats GOTHAM_SEED
    (None, "9", 9),       # GOTHAM_SEED beats the config's seed
    (None, None, 3),      # neither: the config's seed stays
], ids=["flag", "env", "config"])
def test_run_seed_precedence(tmp_path, monkeypatch, flag, env, want):
    data, run = tmp_path / "data", tmp_path / "run"
    write_dataset(synth_generate(0, 4, 20, 0.3, 0.02, 8, n_base=3, k_shot=3), data)
    cfg = RunConfig(dataset=str(data), out_dir=str(run), n_way=2, k_shot=3,
                    query_per_class=3, hidden_dim=8, out_dim=4, seed=3,
                    episodes_base=1, episodes_finetune=1)
    cfg.to_json(tmp_path / "config.json")
    if env is None:
        monkeypatch.delenv("GOTHAM_SEED", raising=False)
    else:
        monkeypatch.setenv("GOTHAM_SEED", env)
    argv = ["run", "--config", str(tmp_path / "config.json")]
    assert main(argv + (["--seed", flag] if flag else [])) == 0
    assert RunConfig.from_json(run / "config.json").seed == want
