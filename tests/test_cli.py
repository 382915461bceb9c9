"""``gotham`` command line: export-prototypes against a finished run, the
theorem sweep, exit codes."""
import dataclasses
import json
import shutil

import numpy as np
import pytest

from gotham import trainer
from gotham.cli import main
from gotham.config import RunConfig
from gotham.gradcheck import GRADCHECK_LOSSES
from gotham.graphstore import load_dataset, synth_generate, write_dataset
from gotham.trainer import run_stream
from test_graphstore import BAD_FEATURES

KINDS = {
    "gfscil_plain": {"seen"},
    "gfscil_semantic": {"merged"},
    "gcl": {"merged", "unseen_semantic"},
}


def make_run(root, mode, backbone="mean"):
    """A tiny finished run: dataset in root/data, artifacts in root/run."""
    zero_shot = (4,) if mode == "gcl" else ()
    # 5 classes of 20 nodes: 3 base classes, then one streamed class per session
    synth = synth_generate(0, 5, 20, 0.3, 0.02, 8, n_base=3,
                           zero_shot_classes=zero_shot, k_shot=3)
    data, run = root / "data", root / "run"
    write_dataset(synth, data)
    cfg = RunConfig(dataset=str(data), mode=mode, backbone=backbone,
                    out_dir=str(run), n_way=2, k_shot=3, query_per_class=3,
                    hidden_dim=16, out_dim=8, seed=3, episodes_base=3,
                    episodes_finetune=1)
    run_stream(load_dataset(data), cfg, out_dir=run)
    return data, run


def read_tsv(path):
    """The classes, kinds and vectors of a prototype TSV, in its row order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "class_id\tkind\tvector"
    rows = [line.split("\t") for line in lines[1:]]
    return ([int(cls) for cls, _, _ in rows], [kind for _, kind, _ in rows],
            np.array([[float(x) for x in vec.split()] for _, _, vec in rows]))


@pytest.fixture(scope="module")
def gcl_run(tmp_path_factory):
    return make_run(tmp_path_factory.mktemp("gcl"), "gcl")


@pytest.mark.parametrize("mode", sorted(KINDS))
def test_export_reproduces_evaluation(tmp_path, mode):
    data, run = make_run(tmp_path, mode)
    out = tmp_path / "protos.tsv"
    assert main(["export-prototypes", "--run", str(run), "--out", str(out)]) == 0

    bundle = load_dataset(data)
    t = bundle.schedule.num_sessions
    classes, kinds, vectors = read_tsv(out)
    assert classes == bundle.schedule.classes_at(t)
    assert set(kinds) == KINDS[mode]
    for cls in bundle.schedule.unseen_at(t):
        assert kinds[classes.index(cls)] == "unseen_semantic"
    assert vectors.shape[0] == len(classes)


@pytest.mark.parametrize("backbone", ["mean", "attention"])
def test_every_session_writes_and_exports_what_evaluation_classified_with(
        tmp_path, monkeypatch, backbone):
    """In every mode, for every session t, ``prototypes/session_<t>.tsv`` and
    ``export-prototypes --session t`` hold, bit for bit, the classes and
    vectors ``evaluate_session`` received and the kinds of the build they
    came from."""
    evaluate, eval_prototypes = trainer.evaluate_session, trainer._eval_prototypes
    used, kinds = {}, {}

    def spy_prototypes(model, bundle, t, plan):
        build = eval_prototypes(model, bundle, t, plan)
        kinds[t] = list(build.kinds)
        return build

    def spy_evaluate(model, bundle, t, classes, prototypes, split):
        used[t] = (np.array(classes), np.array(prototypes))
        return evaluate(model, bundle, t, classes, prototypes, split)

    monkeypatch.setattr(trainer, "_eval_prototypes", spy_prototypes)
    monkeypatch.setattr(trainer, "evaluate_session", spy_evaluate)
    for mode in sorted(KINDS):
        used.clear()
        kinds.clear()
        data, run = make_run(tmp_path / mode, mode, backbone)
        sessions = load_dataset(data).schedule.num_sessions
        assert sorted(used) == list(range(sessions + 1))
        assert sorted(trainer.prototype_files(run)) == list(range(sessions + 1))
        for t, (classes, vectors) in used.items():
            out = tmp_path / mode / f"s{t}.tsv"
            assert main(["export-prototypes", "--run", str(run), "--session",
                         str(t), "--out", str(out)]) == 0
            assert out.read_bytes() == \
                (run / "prototypes" / f"session_{t}.tsv").read_bytes()
            got_classes, got_kinds, got_vectors = read_tsv(out)
            assert got_classes == classes.tolist()
            assert got_kinds == kinds[t]
            assert got_vectors.tobytes() == vectors.tobytes()
        assert set(kinds[sessions]) == KINDS[mode]


def test_export_earlier_session(tmp_path, gcl_run):
    data, run = gcl_run
    out = tmp_path / "s0.tsv"
    assert main(["export-prototypes", "--run", str(run), "--session", "0",
                 "--out", str(out)]) == 0
    classes, kinds, _ = read_tsv(out)
    assert classes == load_dataset(data).schedule.classes_at(0)
    assert set(kinds) == {"merged"}


def test_export_reads_neither_the_checkpoint_nor_the_dataset(tmp_path, gcl_run,
                                                             capsys):
    _, run = gcl_run
    bare = tmp_path / "bare"
    shutil.copytree(run, bare)
    (bare / "model.ckpt").unlink()
    cfg = json.loads((bare / "config.json").read_text(encoding="utf-8"))
    cfg["dataset"] = str(tmp_path / "absent")
    (bare / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "p.tsv"
    # no --session: the last session with a file
    assert main(["export-prototypes", "--run", str(bare), "--out", str(out)]) == 0
    assert out.read_bytes() == (run / "prototypes" / "session_2.tsv").read_bytes()
    assert "wrote session 2's prototypes" in capsys.readouterr().out


def test_export_missing_run_dir_exits_2(tmp_path, capsys):
    code = main(["export-prototypes", "--run", str(tmp_path / "absent"),
                 "--out", str(tmp_path / "p.tsv")])
    assert code == 2
    assert "not found" in capsys.readouterr().err
    assert not (tmp_path / "p.tsv").exists()


@pytest.mark.parametrize("session,name", [(None, "session_<t>.tsv"),
                                          ("0", "session_0.tsv")],
                         ids=["last", "session-0"])
def test_export_run_without_prototypes_exits_2(tmp_path, gcl_run, session,
                                               name, capsys):
    _, run = gcl_run
    partial = tmp_path / "partial"
    shutil.copytree(run, partial, ignore=shutil.ignore_patterns("prototypes"))
    argv = ["export-prototypes", "--run", str(partial),
            "--out", str(tmp_path / "p.tsv")]
    code = main(argv + (["--session", session] if session else []))
    assert code == 2
    assert f"error: {partial / 'prototypes' / name} not found" in capsys.readouterr().err
    assert not (tmp_path / "p.tsv").exists()


@pytest.mark.parametrize("session", ["-1", "3"])
def test_export_session_out_of_range_exits_2(tmp_path, gcl_run, session, capsys):
    _, run = gcl_run
    code = main(["export-prototypes", "--run", str(run),
                 "--session", session, "--out", str(tmp_path / "p.tsv")])
    assert code == 2
    assert "out of range" in capsys.readouterr().err
    assert not (tmp_path / "p.tsv").exists()


@pytest.mark.parametrize("spelling", [("prototypes",), ("prototypes", "..", "prototypes")],
                         ids=["direct", "via .."])
def test_export_onto_the_run_s_own_file_exits_2(gcl_run, spelling, capsys):
    _, run = gcl_run
    source = run / "prototypes" / "session_1.tsv"
    before = source.read_bytes()
    out = run.joinpath(*spelling, "session_1.tsv")
    code = main(["export-prototypes", "--run", str(run), "--session", "1",
                 "--out", str(out)])
    assert code == 2
    assert f"error: --out {out} is the file it would copy" in capsys.readouterr().err
    assert source.read_bytes() == before


def test_a_reused_run_directory_exports_only_the_last_run(tmp_path, capsys):
    """A 4-session run, then a 2-session run into the same directory: the
    directory keeps only the second run's sessions, export without
    ``--session`` copies its last one and ``--session 3`` is out of range."""
    run = tmp_path / "run"
    for blocks in (7, 5):
        data = tmp_path / f"data{blocks}"
        write_dataset(synth_generate(0, blocks, 20, 0.3, 0.02, 8, n_base=3,
                                     k_shot=3), data)
        RunConfig(dataset=str(data), out_dir=str(run), n_way=2, k_shot=3,
                  query_per_class=3, hidden_dim=8, out_dim=4, episodes_base=1,
                  episodes_finetune=1).to_json(tmp_path / "config.json")
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
    assert sorted(p.name for p in (run / "reports").iterdir()) == [
        f"session_{t}.json" for t in range(3)]
    assert sorted(p.name for p in (run / "prototypes").iterdir()) == [
        f"session_{t}.tsv" for t in range(3)]
    out = tmp_path / "last.tsv"
    assert main(["export-prototypes", "--run", str(run), "--out", str(out)]) == 0
    assert out.read_bytes() == (run / "prototypes" / "session_2.tsv").read_bytes()
    assert read_tsv(out)[0] == [0, 1, 2, 3, 4]
    capsys.readouterr()
    assert main(["export-prototypes", "--run", str(run), "--session", "3",
                 "--out", str(tmp_path / "s3.tsv")]) == 2
    assert "session index 3 out of range [0, 2]" in capsys.readouterr().err
    assert not (tmp_path / "s3.tsv").exists()


def failing_configs(tmp_path):
    """A good run's config and one whose finetune steps overflow, both
    writing into ``tmp_path/run``."""
    data = tmp_path / "data"
    write_dataset(synth_generate(0, 5, 20, 0.3, 0.02, 8, n_base=3, k_shot=3),
                  data)
    good = RunConfig(dataset=str(data), out_dir=str(tmp_path / "run"), n_way=2,
                     k_shot=3, query_per_class=3, hidden_dim=8, out_dim=4,
                     episodes_base=2, episodes_finetune=1)
    return good, dataclasses.replace(good, ft_lr=1e305)


def test_a_failed_run_leaves_no_file_of_an_earlier_run(tmp_path, capsys):
    """A good run, then one into the same directory whose finetune steps
    overflow: the failed run leaves its partial ``loss_log.jsonl``, its
    ``FAILED`` and nothing of the first run, so export copies no session."""
    run = tmp_path / "run"
    first = {}
    for cfg, code in zip(failing_configs(tmp_path), (0, 1)):
        cfg.to_json(tmp_path / "config.json")
        assert main(["run", "--config", str(tmp_path / "config.json")]) == code
        if not first:
            first = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    err = capsys.readouterr().err
    assert err == "runtime error: session 1: non-finite prototypes\n"
    assert len(first) == 10    # 4 files, 3 sessions each of reports/ and prototypes/
    left = sorted(p for p in run.rglob("*") if p.is_file())
    assert left == [run / trainer.FAILED, run / "loss_log.jsonl"]
    assert left[1].read_bytes() != first[left[1]]
    assert (run / trainer.FAILED).read_text(encoding="utf-8") == (
        "NonFiniteError: session 1: non-finite prototypes\n")
    assert main(["export-prototypes", "--run", str(run), "--out",
                 str(tmp_path / "p.tsv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {run / trainer.FAILED}: the run failed: NonFiniteError: "
        "session 1: non-finite prototypes\n")
    assert not (tmp_path / "p.tsv").exists()


def test_a_run_that_finishes_deletes_an_earlier_failure(tmp_path, capsys):
    """A failed run, then a good one into the same directory: ``FAILED`` goes
    before the good run's first episode, and export copies its last session."""
    run = tmp_path / "run"
    for cfg, code in zip(reversed(failing_configs(tmp_path)), (1, 0)):
        cfg.to_json(tmp_path / "config.json")
        assert main(["run", "--config", str(tmp_path / "config.json")]) == code
        assert (run / trainer.FAILED).exists() == (code == 1)
    assert main(["export-prototypes", "--run", str(run), "--out",
                 str(tmp_path / "p.tsv")]) == 0
    assert (tmp_path / "p.tsv").read_bytes() == (
        run / "prototypes" / "session_2.tsv").read_bytes()


def relabel_class_0_as_negative(data):
    """Class 0 becomes class -1 in ``labels.tsv``, ``csd.tsv`` and the
    schedule; every other file keeps its bytes."""
    labels = np.loadtxt(data / "labels.tsv", dtype=np.int64, ndmin=2)
    labels[labels[:, 1] == 0, 1] = -1
    np.savetxt(data / "labels.tsv", labels, fmt="%d", delimiter="\t")
    csd = (data / "csd.tsv").read_text(encoding="utf-8")
    (data / "csd.tsv").write_text(csd.replace("0\t", "-1\t", 1), encoding="utf-8")
    schedule = json.loads((data / "schedule.json").read_text(encoding="utf-8"))
    schedule["base_classes"] = [-1 if c == 0 else c for c in schedule["base_classes"]]
    (data / "schedule.json").write_text(json.dumps(schedule), encoding="utf-8")


def test_a_run_on_a_negative_class_id_leaves_an_earlier_run_intact(tmp_path, capsys):
    """A good run, then one into the same directory on the same dataset with
    class 0 relabelled -1: set-up rejects the schedule before the run clears
    the directory, so every file of the first run keeps its bytes."""
    good = failing_configs(tmp_path)[0]
    good.to_json(tmp_path / "config.json")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
    run = tmp_path / "run"
    first = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    neg = tmp_path / "neg"
    shutil.copytree(tmp_path / "data", neg)
    relabel_class_0_as_negative(neg)
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "config.json"),
                 "--dataset", str(neg)]) == 2
    assert capsys.readouterr().err == (
        "error: base_classes lists negative class -1; class ids are >= 0\n")
    assert len(first) == 10
    assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == first


def test_export_onto_a_directory_exits_2(tmp_path, gcl_run, capsys):
    _, run = gcl_run
    code = main(["export-prototypes", "--run", str(run), "--out", str(tmp_path)])
    assert code == 2
    assert f"error: --out {tmp_path} is a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "features", BAD_FEATURES + [None, "1.0 2.0 3.0\n" * 12],
    ids=[f"npy{i}" for i in range(len(BAD_FEATURES))] + ["missing", "tsv-only"])
def test_run_on_malformed_features_exits_2(tmp_path, features, capsys):
    """A features.npy that is absent, unreadable or not a non-empty 2-D
    float64 array, or a former features.tsv in its place, is bad input."""
    data = tmp_path / "data"
    write_dataset(synth_generate(0, 3, 4, 0.9, 0.1, 3), data)
    (data / "features.npy").unlink()
    if isinstance(features, bytes):
        (data / "features.npy").write_bytes(features)
    elif features is not None:
        (data / "features.tsv").write_text(features)
    cfg, out = tmp_path / "cfg.json", tmp_path / "run"
    RunConfig(dataset=str(data)).to_json(cfg)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "features.npy" in capsys.readouterr().err
    assert not out.exists()


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
    ("seed", True), ("mode", "gfscil"), ("eval_fraction", 0.0),
    ("eval_fraction", 1.0), ("no_such_key", 1), ("seed", -1),
    ("split_seed", -1), ("unseen_encoder", "gnn"), ("dataset", ""),
    ("dataset", "no/such/dataset"),
])
def test_run_bad_config_value_exits_2(tmp_path, field, value, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    write_dataset(synth_generate(0, 4, 20, 0.3, 0.02, 8, n_base=3, k_shot=3), data)
    cfg = RunConfig(dataset=str(data), out_dir=str(run), n_way=2, k_shot=3,
                    query_per_class=3, hidden_dim=8, out_dim=4,
                    episodes_base=1, episodes_finetune=1)
    raw = {**json.loads(cfg.to_json()), field: value}
    (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 2
    want = {"eval_fraction": "eval_fraction must lie in (0, 1)",
            "dataset": "no dataset directory given" if not value
            else f"dataset directory not found: {value}"}.get(
        field, f"{field} must be" if hasattr(cfg, field)
        else f"unknown config keys: ['{field}']")
    assert f"error: {want}" in capsys.readouterr().err
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


@pytest.mark.parametrize("flag,message", [
    ("--separation=-1", "mean_separation must be finite and >= 0, got -1.0"),
    ("--separation=nan", "mean_separation must be finite and >= 0, got nan"),
    ("--separation=inf", "mean_separation must be finite and >= 0, got inf"),
])
def test_synth_with_a_bad_separation_exits_2(tmp_path, flag, message, capsys):
    argv = ["synth", "--out", str(tmp_path / "data"), "--base-classes", "4", flag]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
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
    (lambda s: {**s, "sessions": [{**s["sessions"][0], "zero_shot": [3]}]},
     "session 1 zero_shot lists class 3, which session 1 few_shot lists"),
    (lambda s: {**s, "sessions": [{**s["sessions"][0], "k": -1}]}, "negative k"),
    (lambda s: {**s, "sessions": [{**s["sessions"][0], "arrivals": [3, 80]}]},
     "schedule.json: session 1: arrivals must be node ids in [0, 80)"),
    (lambda s: {**s, "base_classes": [0, 0, 1]}, "base_classes lists class 0 twice"),
], ids=["no base_classes", "sessions of ints", "a list", "few-shot and zero-shot",
        "negative k", "arrivals beyond the graph", "a class twice"])
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


@pytest.mark.parametrize("keep_class_0", [True, False],
                         ids=["class 0 only", "no csd.tsv"])
@pytest.mark.parametrize("mode", ["gfscil_semantic", "gcl"])
def test_semantic_run_without_every_csd_exits_2(tmp_path, mode, keep_class_0,
                                                capsys):
    """Every semantic mode needs a CSD for every class of the stream; the
    run names the missing classes and writes nothing."""
    data, run = tmp_path / "data", tmp_path / "run"
    write_dataset(synth_generate(0, 4, 20, 0.3, 0.02, 8, n_base=3, k_shot=3), data)
    csd = data / "csd.tsv"
    if keep_class_0:
        csd.write_text(csd.read_text(encoding="utf-8").splitlines(keepends=True)[0],
                       encoding="utf-8")
    else:
        csd.unlink()
    RunConfig(dataset=str(data), out_dir=str(run), mode=mode).to_json(
        tmp_path / "config.json")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 2
    missing = [1, 2, 3] if keep_class_0 else [0, 1, 2, 3]
    assert (f"error: mode {mode} requires CSD vectors; missing for classes "
            f"{missing}") in capsys.readouterr().err
    assert not run.exists()


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
    ("gradcheck --coords=0", "n_coords must be"),
    # no flag is abbreviated: --h would print --help's usage and exit 0, and
    # --conf would stand for --config, which must be spelt out
    ("gradcheck --h 1e-4", "unrecognized arguments: --h 1e-4"),
    ("run --conf c.json", "the following arguments are required: --config"),
    # no repetition would be a vacuous pass
    ("verify-theorem --repetitions=0", "repetitions must be"),
    ("verify-theorem --xis nan --trials 10 --repetitions 2", "xi must be"),
    ("verify-theorem --xis inf --trials 10 --repetitions 2", "xi must be"),
    ("verify-theorem --xis 1e200 --trials 10 --repetitions 2 --widths 1 "
     "--betas 0.2", "xi must be"),
    # rejected before anything is written, so --out names no real directory
    ("synth --out unwritten --blocks 4 --base-classes 2 --zero-shot 1",
     "zero-shot classes [1] are not streamed"),
    ("synth --out unwritten --blocks 8 --dim 4",
     "feature dim must be >= number of blocks"),
    ("synth --out unwritten --seed -1", "--seed must be a non-negative integer"),
    ("gradcheck --seed -1", "--seed must be a non-negative integer"),
    ("verify-theorem --seed -1", "--seed must be a non-negative integer"),
    # checked before the first draw, which would reject a negative shape itself
    ("verify-theorem --trials 1", "trials must be >= 2"),
    ("verify-theorem --trials -5", "trials must be >= 2"),
]


@pytest.mark.parametrize("argv,message", BAD_ARGUMENTS,
                         ids=[argv for argv, _ in BAD_ARGUMENTS])
def test_bad_argument_exits_2(argv, message, capsys):
    assert main(argv.split()) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "synth", "gradcheck",
                                     "verify-theorem"])
@pytest.mark.parametrize("flag,env,message", [
    ("-1", None, "--seed must be a non-negative integer, got -1"),
    (None, "-1", "GOTHAM_SEED must be a non-negative integer, got '-1'"),
    (None, "x", "GOTHAM_SEED must be a non-negative integer, got 'x'"),
], ids=["flag", "env-negative", "env-not-a-number"])
def test_bad_seed_exits_2_naming_its_source(tmp_path, monkeypatch, command,
                                            flag, env, message, capsys):
    """A negative or non-numeric seed from ``--seed`` or ``GOTHAM_SEED`` is
    rejected before any work, on every command that takes a seed."""
    monkeypatch.setenv("GOTHAM_SEED", env or "")
    RunConfig(dataset=str(tmp_path / "absent")).to_json(tmp_path / "config.json")
    argv = {"run": ["run", "--config", str(tmp_path / "config.json")],
            "synth": ["synth", "--out", str(tmp_path / "data")]}.get(
        command, [command])
    assert main(argv + (["--seed", flag] if flag else [])) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


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
    # a fixed seed reruns the default grid to the same bytes
    reruns = [tmp_path / f"seed3-{n}.json" for n in (1, 2)]
    for path in reruns:
        assert main(["verify-theorem", "--seed", "3", "--trials", "300",
                     "--repetitions", "5", "--out", str(path)]) == 0
    assert reruns[0].read_bytes() == reruns[1].read_bytes()


def test_gradcheck_writes_its_report(tmp_path, capsys):
    out = tmp_path / "sub" / "gradcheck.json"
    assert main(["gradcheck", "--seed", "0", "--coords", "2", "--out",
                 str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ALL PASS"
    report = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(report) == sorted(f"{b}/{loss}" for b in ("mean", "attention")
                                    for loss in GRADCHECK_LOSSES)
    for entry in report.values():
        assert entry["pass"] is True
        assert entry["n_checked"] + entry["n_kink_skipped"] == 2
        assert 0.0 <= entry["max_rel_err"] < 1e-4


def test_gradcheck_writes_a_non_finite_error_as_null(tmp_path, monkeypatch,
                                                    capsys):
    """A coordinate that fails as non-finite makes ``max_rel_err`` infinite;
    the report stays strict JSON and the command exits 1."""
    from gotham import gradcheck

    def failing(**kwargs):
        return {"mean/seg": gradcheck.FiniteDiffReport(
            max_rel_err=float("inf"), worst=("gnn.0.weight", 0), n_checked=1,
            n_kink_skipped=0)}

    monkeypatch.setattr(gradcheck, "run_gradcheck", failing)
    out = tmp_path / "gradcheck.json"
    assert main(["gradcheck", "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "GRADIENT MISMATCH"
    text = out.read_text(encoding="utf-8")
    assert "Infinity" not in text
    assert json.loads(text) == {"mean/seg": {
        "max_rel_err": None, "n_checked": 1, "n_kink_skipped": 0, "pass": False}}


# each command's --out under the file ``blocker``, with ``run`` the finished
# gcl run, ``config`` a config of its dataset and ``blocker`` a file
OUT_UNDER_A_FILE = {
    "run": lambda run, config, blocker: (
        ["run", "--config", str(config), "--out", str(blocker / "run")]),
    "synth": lambda run, config, blocker: ["synth", "--out", str(blocker / "data")],
    "verify-theorem": lambda run, config, blocker: (
        ["verify-theorem", "--trials", "10", "--repetitions", "2", "--out",
         str(blocker / "t.json")]),
    "gradcheck": lambda run, config, blocker: (
        ["gradcheck", "--coords", "2", "--out", str(blocker / "g.json")]),
    "export-prototypes": lambda run, config, blocker: (
        ["export-prototypes", "--run", str(run), "--out",
         str(blocker / "x.tsv")]),
}


@pytest.mark.parametrize("command", sorted(OUT_UNDER_A_FILE))
def test_out_under_a_file_exits_2_before_any_work(tmp_path, gcl_run, command,
                                                  capsys):
    data, run = gcl_run
    config = tmp_path / "config.json"
    RunConfig(dataset=str(data)).to_json(config)
    # export's --out lies under the run's own summary.tsv
    blocker = (run / "summary.tsv" if command == "export-prototypes"
               else tmp_path / "file")
    if not blocker.exists():
        blocker.write_text("kept\n", encoding="utf-8")
    before, listing = blocker.read_bytes(), sorted(tmp_path.iterdir())
    argv = OUT_UNDER_A_FILE[command](run, config, blocker)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: --out {argv[-1]} lies under {blocker}, which is a file" in captured.err
    assert captured.out == ""
    assert blocker.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == listing


@pytest.mark.parametrize("argv,message", [
    ("run --config {config} --out {file}", "is a file; name a directory"),
    ("synth --out {file}", "is a file; name a directory"),
    ("verify-theorem --trials 10 --repetitions 2 --out {dir}",
     "is a directory; name the file to write"),
    ("gradcheck --coords 2 --out {dir}", "is a directory; name the file to write"),
], ids=["run", "synth", "verify-theorem", "gradcheck"])
def test_out_of_the_wrong_kind_exits_2_before_any_work(tmp_path, gcl_run, argv,
                                                       message, capsys):
    """A file where a directory is made, a directory where a file is written."""
    config, file = tmp_path / "config.json", tmp_path / "file"
    RunConfig(dataset=str(gcl_run[0])).to_json(config)
    file.write_text("kept\n", encoding="utf-8")
    listing = sorted(tmp_path.iterdir())
    argv = argv.format(config=config, file=file, dir=tmp_path).split()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: --out {argv[-1]} {message}" in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == listing
    assert file.read_text(encoding="utf-8") == "kept\n"


def test_run_flags_override_the_config(tmp_path):
    """``--dataset``, ``--mode`` and ``--out`` replace the config's values;
    the config's own ``out_dir`` is never made."""
    data = tmp_path / "data"
    write_dataset(synth_generate(0, 4, 20, 0.3, 0.02, 8, n_base=3, k_shot=3), data)
    RunConfig(dataset=str(tmp_path / "absent"), mode="gfscil_plain",
              out_dir=str(tmp_path / "config_out"), n_way=2, k_shot=3,
              query_per_class=3, hidden_dim=8, out_dim=4, episodes_base=1,
              episodes_finetune=1).to_json(tmp_path / "config.json")
    run = tmp_path / "flag_out"
    assert main(["run", "--config", str(tmp_path / "config.json"),
                 "--dataset", str(data), "--mode", "gfscil_semantic",
                 "--out", str(run)]) == 0
    cfg = RunConfig.from_json(run / "config.json")
    assert (cfg.dataset, cfg.mode, cfg.out_dir) == (str(data), "gfscil_semantic",
                                                    str(run))
    assert not (tmp_path / "config_out").exists()
    # the semantic mode took effect: every prototype merges its class's CSD
    _, kinds, _ = read_tsv(run / "prototypes" / "session_1.tsv")
    assert set(kinds) == {"merged"}
