"""Tests of the benchmark's own arithmetic, discovery and gate.

Run from the repository root: ``python -m pytest perfbench -q``.
"""
from __future__ import annotations

import importlib
import json
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Recorder, instrument, self_times  # noqa: E402


def span(name, start, end, parent):
    return [name, name.split(".")[0], start, end, parent, 0, None]


def test_self_time_on_nested_tree():
    spans = [
        span("cli.main", 0.0, 10.0, -1),        # 0
        span("frames.verify", 1.0, 6.0, 0),     # 1
        span("scalar.mul", 2.0, 3.0, 1),        # 2
        span("scalar.mul", 3.5, 4.0, 1),        # 3
        span("graphs.count", 7.0, 9.0, 0),      # 4
        span("frames.helper", 7.5, 8.0, 4),     # 5
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.5, 1.0, 0.5, 1.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("a.root", 0.0, 10.0, -1),
        span("b.x", 1.0, 5.0, 0),
        span("b.y", 4.0, 6.0, 0),      # overlaps b.x by 1 s
        span("b.z", 9.0, 12.0, 0),     # runs past its parent: clipped to 1 s
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from fakepkg.low import leaf\n")
    (pkg / "low.py").write_text(textwrap.dedent("""
        def leaf(x):
            return x + 1

        def _private(x):
            return x
    """))
    (pkg / "high.py").write_text(textwrap.dedent("""
        from fakepkg.low import leaf

        def top(x):
            return leaf(x) * 2
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield importlib.import_module("fakepkg")
    for name in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
        del sys.modules[name]


def test_function_bound_in_several_modules_is_wrapped_once(fake_package):
    rec = Recorder(probes={})
    restore = instrument(fake_package, rec, class_targets={})
    high = sys.modules["fakepkg.high"]
    low = sys.modules["fakepkg.low"]
    assert high.leaf is low.leaf is fake_package.leaf
    assert high.top(1) == 4
    low.leaf(1)
    fake_package.leaf(1)
    names = [s[0] for s in rec.spans]
    assert names == ["high.top", "low.leaf", "low.leaf", "low.leaf"]
    assert rec.spans[1][4] == 0  # called from top
    assert rec.wrapped == {"high.top", "low.leaf"}
    restore()
    assert not hasattr(low.leaf, "__wrapped__")
    assert high.leaf is low.leaf


def test_equiframes_discovery_and_counts():
    import equiframes
    from equiframes import graphs

    rec = Recorder()
    restore = instrument(equiframes, rec)
    try:
        assert graphs.verify_etf is equiframes.frames.verify_etf
        frame = equiframes.build_tremain(h=2)
        graphs.waldron_srg(frame)
    finally:
        restore()
    names = [s[0] for s in rec.spans]
    assert names.count("frames.verify_etf") == 1
    assert names.count("graphs.srg_check") == names.count("graphs.Graph.from_adjacency")
    assert "scalar.ext_mul" in rec.wrapped
    srg = [s for s in rec.spans if s[0] == "graphs.srg_check"]
    assert srg[-1][6]["params"] is not None
    assert not hasattr(equiframes.frames.verify_etf, "__wrapped__")


def passing_report():
    return {"certified_params": [2080, 1071, 558, 544], "certified": True}


def test_gate_accepts_published_params_and_golden_hash(tmp_path):
    (tmp_path / run.GS_H32.artifact).write_bytes(b"graph")
    golden = {run.GS_H32.artifact: run.sha256(tmp_path / run.GS_H32.artifact)}
    reasons, _ = run.gate(run.GS_H32, 0, json.dumps(passing_report()), tmp_path, golden)
    assert reasons == []


def test_gate_rejects_wrong_hash(tmp_path):
    (tmp_path / run.GS_H32.artifact).write_bytes(b"graph")
    golden = {run.GS_H32.artifact: "0" * 64}
    reasons, _ = run.gate(run.GS_H32, 0, json.dumps(passing_report()), tmp_path, golden)
    assert len(reasons) == 1 and "sha256" in reasons[0]


def test_gate_rejects_wrong_params_missing_artifact_and_bad_exit(tmp_path):
    report = passing_report()
    report["certified_params"] = [2080, 1008, 480, 496]
    reasons, _ = run.gate(run.GS_H32, 0, json.dumps(report), tmp_path, {})
    assert any("certified_params" in r for r in reasons)
    assert any("missing" in r for r in reasons)
    reasons, _ = run.gate(run.GS_H32, 2, "", tmp_path, {})
    assert reasons and "exit code 2" in reasons[0]


def test_seeded_tremain_inputs_are_permuted_hadamard(tmp_path):
    from equiframes.hadamard import load_butson

    def inputs(seed, work):
        work.mkdir(exist_ok=True)
        (step,) = run.workload_steps("etf-tremain-v13", seed, work)
        assert not step.check_hash
        args = list(step.argv)
        return [Path(args[args.index(flag) + 1]).read_text()
                for flag in ("--hadamard-file1", "--hadamard-file2")]

    first = inputs(5, tmp_path / "a")
    assert inputs(5, tmp_path / "b") == first
    assert inputs(6, tmp_path / "c") != first
    for text, order in zip(first, (7, 14)):
        path = tmp_path / f"h{order}.txt"
        path.write_text(text)
        assert load_butson(path).order == order
    assert run.workload_steps("etf-tremain-v13", 0, tmp_path) == [run.TREMAIN_V13]


def test_benchmark_json_lists_what_the_harness_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
