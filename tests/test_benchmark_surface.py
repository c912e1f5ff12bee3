"""The benchmark's traced surface: everything its per-layer metrics read exists.

perfbench/tracer.py finds the functions it measures by walking the package,
so a renamed or deleted function, or a probe that can no longer read its
call, makes per-layer metrics disappear while the benchmark still passes.
These tests read BENCHMARK.json and the tracer (neither is edited) and
fail instead.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import equiframes
import equiframes.cli

ROOT = Path(__file__).resolve().parents[1]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
# what perfbench/run.py runs, at the smallest sizes
COMMANDS = [
    ("derive", "srg", "gs", "--h", "2"),
    ("make", "etf", "tremain", "--V", "7"),
    ("derive", "drackn", "--h", "2", "--p", "2"),
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced():
    """The package instrumented as the benchmark instruments it, then restored."""
    tracer = _load_tracer()
    recorder = tracer.Recorder()
    restore = tracer.instrument(equiframes, recorder)
    try:
        yield tracer, recorder
    finally:
        restore()


def test_every_per_layer_owner_is_wrapped(traced):
    _, recorder = traced
    # a metric is owner.stat; owners without a dot are layers or "trace"
    owners = {name.rsplit(".", 1)[0] for name in PER_LAYER}
    missing = sorted(o for o in owners if "." in o and o not in recorder.wrapped)
    assert not missing


def test_instrumentation_is_restored():
    before = {name: getattr(equiframes.frames, name) for name in ("gram_matrix", "verify_etf")}
    tracer = _load_tracer()
    tracer.instrument(equiframes, tracer.Recorder())()
    assert {name: getattr(equiframes.frames, name) for name in before} == before


def test_traced_commands_exit_0_and_every_probe_reads_its_call(traced, tmp_path):
    tracer, recorder = traced
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = equiframes.cli.main([*argv, "--seed", "3", "--json", "--out", str(tmp_path)])
        assert code == 0, argv
        json.loads(out.getvalue())
    probed = [span for span in recorder.spans if span[0] in tracer.PROBES]
    assert {span[0] for span in probed} == set(tracer.PROBES)
    assert all(span[6] is not None for span in probed), [s[0] for s in probed if s[6] is None]
    json.dumps(recorder.spans, allow_nan=False)
