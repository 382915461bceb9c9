"""``gotham`` command line: export-prototypes against a finished run, the
theorem sweep, exit codes."""
import json

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
    classes = sorted(vectors)
    report = evaluate_session(model, bundle, t, classes,
                              np.array([vectors[c] for c in classes]),
                              run_split(bundle, cfg))
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


def test_export_nonfinite_checkpoint_exits_2(tmp_path, gcl_run, capsys):
    data, run = gcl_run
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "config.json").write_bytes((run / "config.json").read_bytes())
    model = network.load_model(run / "model.ckpt")
    model.gnn.layers[0].weight.data[0, 0] = np.nan
    network.save_model(model, broken / "model.ckpt")
    code = main(["export-prototypes", "--run", str(broken), "--dataset",
                 str(data), "--out", str(tmp_path / "p.tsv")])
    assert code == 2
    assert "non-finite parameters: ['gnn.0.weight']" in capsys.readouterr().err
    assert not (tmp_path / "p.tsv").exists()


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw + bytes(8),              # bytes after the blob
    lambda raw: raw[:-16],                   # a truncated blob
    lambda raw: raw.replace(b'"params"', b'"paramz"', 1),   # no params key
    # a backbone the encoder has no forward for, in a header of the same length
    lambda raw: raw.replace(b'"gnn_backbone": "mean"', b'"gnn_backbone": "bogu"', 1),
], ids=["appended", "truncated", "no-params", "unknown-backbone"])
def test_export_corrupt_checkpoint_exits_2(tmp_path, gcl_run, corrupt, capsys):
    data, run = gcl_run
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "config.json").write_bytes((run / "config.json").read_bytes())
    (broken / "model.ckpt").write_bytes(corrupt((run / "model.ckpt").read_bytes()))
    code = main(["export-prototypes", "--run", str(broken), "--dataset",
                 str(data), "--out", str(tmp_path / "p.tsv")])
    assert code == 2
    assert f"error: {broken / 'model.ckpt'}: checkpoint " in capsys.readouterr().err
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
    # a directory is no config file either
    assert main(["run", "--config", str(tmp_path)]) == 2
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", "5", "null"])
def test_run_config_not_a_json_object_exits_2(tmp_path, text, capsys):
    (tmp_path / "config.json").write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 2
    assert "a config must be a JSON object" in capsys.readouterr().err


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


@pytest.mark.parametrize("field,value", [
    ("n_way", "3"), ("seed", 1.5), ("k_shot", 2.5), ("hidden_dim", 0),
    ("meta_lr", float("nan")), ("num_layers", 0), ("episodes_base", -1),
    ("epsilon_log", float("nan")), ("epsilon_log", 0.0), ("gamma", -0.1),
    ("alpha2", -1.0), ("telemetry", 1), ("telemetry", 0), ("telemetry", "yes"),
    ("seed", True),
])
def test_run_bad_config_value_exits_2(tmp_path, field, value, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    write_dataset(synth_generate(0, 4, 20, 0.3, 0.02, 8, n_base=3, k_shot=3), data)
    cfg = RunConfig(dataset=str(data), out_dir=str(run), n_way=2, k_shot=3,
                    query_per_class=3, hidden_dim=8, out_dim=4,
                    episodes_base=1, episodes_finetune=1)
    cfg.replace(**{field: value}).to_json(tmp_path / "config.json")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 2
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not run.exists()


def test_telemetry_config_round_trips_and_the_flag_sets_it(tmp_path):
    cfg = RunConfig(telemetry=True)
    cfg.validate()
    cfg.to_json(tmp_path / "on.json")
    RunConfig().to_json(tmp_path / "off.json")
    assert RunConfig.from_json(tmp_path / "on.json") == cfg
    assert RunConfig.from_json(tmp_path / "off.json").telemetry is False

    data, run = tmp_path / "data", tmp_path / "run"
    write_dataset(synth_generate(0, 4, 20, 0.3, 0.02, 8, n_base=3, k_shot=3), data)
    RunConfig(dataset=str(data), out_dir=str(run), n_way=2, k_shot=3,
              query_per_class=3, hidden_dim=8, out_dim=4, episodes_base=1,
              episodes_finetune=1).to_json(tmp_path / "config.json")
    assert main(["run", "--config", str(tmp_path / "config.json"),
                 "--telemetry"]) == 0
    assert RunConfig.from_json(run / "config.json").telemetry is True
    report = json.loads((run / "reports" / "session_1.json").read_text())
    assert isinstance(report["episode_query_acc"], float)


def test_synth_with_k_0_exits_2(tmp_path, capsys):
    argv = ["synth", "--out", str(tmp_path / "data"), "--blocks", "5",
            "--base-classes", "4", "--k", "0"]
    assert main(argv) == 2
    assert "k_shot=0" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("n_base", ["0", "-2", "10"])
def test_synth_with_base_classes_outside_1_to_blocks_exits_2(tmp_path, n_base,
                                                             capsys):
    argv = ["synth", "--out", str(tmp_path / "data"), "--blocks", "8",
            "--base-classes", n_base]
    assert main(argv) == 2
    assert f"blocks=8, got {n_base}" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("n", ["0", "-1"])
def test_synth_with_novel_per_session_below_1_exits_2(tmp_path, n, capsys):
    argv = ["synth", "--out", str(tmp_path / "data"), "--base-classes", "4",
            f"--novel-per-session={n}"]
    assert main(argv) == 2
    assert f"novel_per_session must be at least 1, got {n}" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_run_on_a_stream_without_base_classes_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    write_dataset(synth_generate(0, 4, 20, 0.3, 0.02, 8, n_base=1, k_shot=3), data)
    schedule = json.loads((data / "schedule.json").read_text())
    schedule["base_classes"] = []
    schedule["sessions"].insert(0, {"few_shot": [0], "k": 3})
    (data / "schedule.json").write_text(json.dumps(schedule))
    RunConfig(dataset=str(data), out_dir=str(tmp_path / "run"),
              episodes_base=0).to_json(tmp_path / "config.json")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 2
    assert "at least one base class" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda s: {k: v for k, v in s.items() if k != "base_classes"},
     "schedule.json: base_classes is missing"),
    (lambda s: {**s, "sessions": [1, 2]},
     "schedule.json: sessions must be a list of objects"),
    (lambda s: list(s), "schedule.json: the top level must be an object"),
], ids=["no base_classes", "sessions of ints", "a list"])
def test_run_on_a_malformed_schedule_exits_2(tmp_path, edit, message, capsys):
    data = tmp_path / "data"
    write_dataset(synth_generate(0, 4, 20, 0.3, 0.02, 8, n_base=3, k_shot=3), data)
    schedule = json.loads((data / "schedule.json").read_text())
    (data / "schedule.json").write_text(json.dumps(edit(schedule)))
    RunConfig(dataset=str(data), out_dir=str(tmp_path / "run")).to_json(
        tmp_path / "config.json")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_on_a_few_shot_session_with_k_0_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    write_dataset(synth_generate(0, 4, 20, 0.3, 0.02, 8, n_base=3, k_shot=3), data)
    schedule = json.loads((data / "schedule.json").read_text())
    schedule["sessions"][0]["k"] = 0
    (data / "schedule.json").write_text(json.dumps(schedule))
    RunConfig(dataset=str(data), out_dir=str(tmp_path / "run")).to_json(
        tmp_path / "config.json")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 2
    assert "with k=0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_with_n_way_beyond_a_session_exits_2_before_training(tmp_path,
                                                                 capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    write_dataset(synth_generate(0, 4, 20, 0.3, 0.02, 8, n_base=3, k_shot=3), data)
    RunConfig(dataset=str(data), out_dir=str(run), n_way=2, k_shot=3,
              query_per_class=3, hidden_dim=8, out_dim=4, episodes_base=1,
              episodes_finetune=1, episode_class_pool="novel_only").to_json(
        tmp_path / "config.json")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 2
    assert "n_way=2 exceeds novel few-shot" in capsys.readouterr().err
    assert not run.exists()


def test_telemetry_short_of_queries_exits_2_before_writing(tmp_path, capsys):
    """12 nodes a class, 2 held out: 10 trainable, short of k + queries = 15.
    Only the telemetry draws queries, so only the telemetry run is bad input,
    and it is rejected before the run directory is made."""
    data, run = tmp_path / "data", tmp_path / "run"
    write_dataset(synth_generate(0, 8, 12, 0.3, 0.02, 16, n_base=4, k_shot=5),
                  data)
    RunConfig(dataset=str(data), out_dir=str(run), mode="gfscil_plain",
              k_shot=5, query_per_class=10, hidden_dim=8, out_dim=4,
              episodes_base=1, episodes_finetune=1).to_json(
        tmp_path / "config.json")
    argv = ["run", "--config", str(tmp_path / "config.json")]
    assert main(argv + ["--telemetry"]) == 2
    assert ("class 0 has only 10 trainable labeled nodes visible at session 0; "
            "need k + query_per_class = 15") in capsys.readouterr().err
    assert not run.exists()
    assert main(argv) == 0
    assert (run / "loss_log.jsonl").stat().st_size > 0


BAD_ARGUMENTS = [
    ("gradcheck --coords=0", "n_coords"), ("gradcheck --h=0", "h"),
    ("gradcheck --h=-1e-4", "h"), ("gradcheck --h=nan", "h"),
    ("gradcheck --tol=0", "tol"), ("gradcheck --tol=inf", "tol"),
    # no repetition would be a vacuous pass
    ("verify-theorem --repetitions=0", "repetitions"),
    ("verify-theorem --xis nan --trials 10 --repetitions 2", "xi"),
    ("verify-theorem --xis inf --trials 10 --repetitions 2", "xi"),
    ("verify-theorem --xis 1e200 --trials 10 --repetitions 2 --widths 1 "
     "--betas 0.2", "xi"),
]


@pytest.mark.parametrize("argv,name", BAD_ARGUMENTS,
                         ids=[argv for argv, _ in BAD_ARGUMENTS])
def test_bad_argument_exits_2(argv, name, capsys):
    assert main(argv.split()) == 2
    assert f"error: {name} must be" in capsys.readouterr().err


def test_verify_theorem_sweep_writes_its_report(tmp_path, capsys):
    out = tmp_path / "sub" / "theorem.json"
    argv = ["verify-theorem", "--trials", "200", "--repetitions", "3", "--seed",
            "0", "--widths", "1", "4", "--xis", "0.1", "0.5", "--betas", "0.2",
            "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ALL PASS"
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["all_pass"] is True
    grid = sorted((r["config"]["n_units"], r["config"]["xi"], r["config"]["beta"])
                  for r in report["reports"])
    assert grid == [(1, 0.1, 0.2), (1, 0.5, 0.2), (4, 0.1, 0.2), (4, 0.5, 0.2)]
    assert all(r["repetitions"] == 3 and r["pass"] for r in report["reports"])
