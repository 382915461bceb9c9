"""The benchmark's own checks, on streams of a few episodes.

    python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import tracing
from gotham import graphstore, sampler, trainer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
TINY = {"episodes_base": 3, "episodes_finetune": 1}
COUNTS = ("graphstore.graph_at_calls", "graphstore.snapshot_builds",
          "nn.gnn_forward_calls", "sampler.extend_support_calls")


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def installed():
    """Identity of every attribute of every gotham module and the wrapped constructor."""
    state = {(name, attr): id(value)
             for name, module in sys.modules.items()
             if name == "gotham" or name.startswith("gotham.")
             for attr, value in vars(module).items()}
    state["teacher_cache_init"] = id(vars(trainer._TeacherCache)["__init__"])
    return state


def tiny_stream(name, seed, work, tracer=None):
    wl = WORKLOADS[name]
    data = work / "data"
    if not data.exists():
        graphstore.write_dataset(wl.dataset(seed), data)
    cfg = wl.config(seed, data, **TINY)
    bundle, _, _ = bench.setup(data, cfg)
    out = work / f"out-{tracer is not None}"
    stream = bench.run_one_stream(bundle, cfg, out, tracer)
    shutil.rmtree(out)
    return stream


@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, trace, kind):
    result = bench.run("gcl-dense-240", 3, 0, trace, tmp_path, **TINY)
    assert result["correct"] and result["failed"] == 0
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == declared(kind)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_stream_matches_untraced_and_unwraps(tmp_path, name):
    before = installed()
    plain = tiny_stream(name, 1, tmp_path)
    with tracing.Tracer() as tracer:
        traced = tiny_stream(name, 1, tmp_path, tracer)
        assert trainer.graph_at is sampler.graph_at is graphstore.graph_at
        assert id(trainer.graph_at) != before[("gotham.graphstore", "graph_at")]
    assert installed() == before
    assert plain.ok and traced.ok
    assert traced.summary == plain.summary
    assert traced.totals == plain.totals
    assert tracer.calls["nn.gnn_forward"] > 0


def test_tracer_unwraps_after_an_error():
    before = installed()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert installed() == before


def test_count_metrics_repeat_exactly(tmp_path):
    runs = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            stream = tiny_stream("plain-growing-4k", 2, tmp_path, tracer)
        runs.append({k: v for k, (v, _) in tracer.metrics(len(stream.totals)).items()
                     if k in COUNTS})
    assert runs[0] == runs[1]
    # the growing graph rebuilds a snapshot on every graph_at call
    assert runs[0]["graphstore.snapshot_builds"] == runs[0]["graphstore.graph_at_calls"] > 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
                    [tracing.HOOK, 5.0, 6.0, 0, 0], ["b", 7.0, 8.0, 0, 0]]
    assert tracer.self_times() == {"a": 5.0, "b": 4.0}


def test_output_check_flags_a_reference_mismatch(tmp_path):
    stream = tiny_stream("gcl-dense-240", 4, tmp_path)
    assert stream.ok
    bench.compare(stream, stream.summary, [t * (1 + 1e-10) for t in stream.totals], "ref")
    assert stream.ok
    bench.compare(stream, stream.summary, [t * (1 + 1e-8) for t in stream.totals], "ref")
    bench.compare(stream, stream.summary.replace("overall", "overal"), stream.totals, "ref")
    assert len(stream.problems) == 2


def test_recorded_reference_is_reproduced(tmp_path):
    """A recorded (workload, seed) reproduces at the benchmark's episode counts."""
    refs = json.loads(bench.REFERENCE_PATH.read_text(encoding="utf-8"))
    ref = refs["gcl-dense-240"]["0"]
    wl = WORKLOADS["gcl-dense-240"]
    graphstore.write_dataset(wl.dataset(0), tmp_path / "data")
    cfg = wl.config(0, tmp_path / "data")
    bundle, _, _ = bench.setup(tmp_path / "data", cfg)
    stream = bench.run_one_stream(bundle, cfg, tmp_path / "out")
    bench.compare(stream, ref["summary_tsv"], ref["loss_totals"], "the reference")
    assert stream.ok, stream.problems


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "gcl-dense-240", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
