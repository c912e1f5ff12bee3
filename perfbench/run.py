#!/usr/bin/env python3
"""Time-to-certificate benchmark for the equiframes command line.

Run from the root of a source checkout:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: each iteration is a fresh
``python -m equiframes.cli ... --json`` child (cold imports included, as a
CLI user pays them), run back to back, never two at a time.  Wall time is
read from spawn to exit; CPU time and peak RSS from ``os.wait4`` on the
child.  Every iteration passes a correctness gate (exit 0, published
parameters, golden artifact hashes) or counts as failed.

With ``--trace 1`` one untraced iteration is followed by traced ones, each
run under ``tracer.py``; the spans give the per-layer metrics.  Without
``--workload`` every workload runs in turn.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the metric definitions.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = json.loads((HERE / "golden.json").read_text())
SETUP_SAMPLES = 7


@dataclass(frozen=True)
class Step:
    """One CLI invocation of an iteration and what its report must say."""

    argv: tuple[str, ...]
    expect: dict
    artifact: str
    check_hash: bool = True


GS_H32 = Step(
    ("derive", "srg", "gs", "--h", "32"),
    {"certified_params": [2080, 1071, 558, 544], "certified": True},
    "srg_gs_h32.g6",
)
TREMAIN_V13 = Step(
    ("make", "etf", "tremain", "--V", "13"),
    {"M": 40, "N": 105, "is_etf": True, "norm_sq": [8, 1],
     "coherence_sq": [1, 64], "tight_constant": [21, 1]},
    "tremain_v13.etf",
)
DRACKN_P2 = Step(
    ("derive", "drackn", "--h", "16", "--p", "2"),
    {"params": [528, 2, 256], "certified": True},
    "drackn_h16_p2.edges",
)
DRACKN_P5 = Step(
    ("derive", "drackn", "--h", "5", "--p", "5"),
    {"params": [55, 5, 10], "certified": True},
    "drackn_h5_p5.edges",
)

WORKLOADS = ("srg-gs-h32", "etf-tremain-v13", "drackn-covers")


def write_permuted_fourier(path: Path, n: int, rng: random.Random) -> None:
    """Butson file of fourier(n) with seeded row and column permutations."""
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    lines = [f"{n} {n}"]
    lines += [" ".join(str(r * c % n) for c in cols) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def workload_steps(name: str, seed: int, work: Path) -> list[Step]:
    """The steps of one iteration; inputs depend only on the seed.

    The seed-free workloads pass the seed through as ``--seed``; the CLI
    promises that it only steers stochastic search, which they do not use,
    so their artifacts must match the golden hashes at every seed.
    """
    seed_flag = ("--seed", str(seed))
    if name == "srg-gs-h32":
        return [Step(GS_H32.argv + seed_flag, GS_H32.expect, GS_H32.artifact)]
    if name == "drackn-covers":
        return [Step(s.argv + seed_flag, s.expect, s.artifact)
                for s in (DRACKN_P2, DRACKN_P5)]
    if name == "etf-tremain-v13":
        if seed == 0:
            return [TREMAIN_V13]
        rng = random.Random(seed)
        files = []
        for n in (7, 14):
            path = work / f"fourier{n}_seed{seed}.txt"
            write_permuted_fourier(path, n, rng)
            files.append(str(path))
        argv = TREMAIN_V13.argv + ("--hadamard-file1", files[0],
                                   "--hadamard-file2", files[1])
        return [Step(argv, TREMAIN_V13.expect, TREMAIN_V13.artifact,
                     check_hash=False)]
    raise ValueError(f"unknown workload {name!r}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gate(step: Step, returncode: int, stdout: str, out_dir: Path,
         golden: dict = GOLDEN) -> tuple[list[str], dict | None]:
    """Reasons this step failed (empty when it passed), and its report."""
    if returncode != 0:
        return [f"{step.argv[:3]}: exit code {returncode}"], None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"{step.argv[:3]}: report is not JSON ({exc})"], None
    reasons = [
        f"{step.artifact}: {key} = {report.get(key)!r}, expected {want!r}"
        for key, want in step.expect.items()
        if report.get(key) != want
    ]
    artifact = out_dir / step.artifact
    if not artifact.is_file():
        reasons.append(f"{step.artifact}: artifact missing")
    elif step.check_hash and sha256(artifact) != golden.get(step.artifact):
        reasons.append(f"{step.artifact}: sha256 differs from the golden hash")
    return reasons, report


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    reasons: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    span_files: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for key in ("EQUIFRAMES_H510", "EQUIFRAMES_OUT"):
        env.pop(key, None)
    return env


def spawn(cmd: list[str], env: dict, stdout_path: Path, stderr_path: Path):
    """Run cmd to completion; return (wall s, cpu s, max RSS MB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024, proc.returncode


def run_iteration(steps: list[Step], env: dict, index: int, traced: bool) -> Iteration:
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    it = Iteration()
    for k, step in enumerate(steps):
        cli_args = [*step.argv, "--json", "--out", str(out_dir)]
        if traced:
            spans = WORK / f"spans_{index}_{k}.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans),
                   "--iteration", str(index), "--", *cli_args]
            it.span_files.append(spans)
        else:
            cmd = [sys.executable, "-m", "equiframes.cli", *cli_args]
        stdout_path, stderr_path = WORK / "stdout.txt", WORK / "stderr.txt"
        wall, cpu, rss, rc = spawn(cmd, env, stdout_path, stderr_path)
        it.wall_s += wall
        it.cpu_s += cpu
        it.peak_rss_mb = max(it.peak_rss_mb, rss)
        reasons, report = gate(step, rc, stdout_path.read_text(), out_dir)
        if rc != 0:
            tail = stderr_path.read_text().strip().splitlines()[-1:]
            reasons = [r + (f" ({tail[0]})" if tail else "") for r in reasons]
        it.reasons += reasons
        it.reports.append(report)
    return it


def measure_setup(env: dict, samples: int) -> list[float]:
    """Seconds for a fresh interpreter to import the CLI and build its parser."""
    cmd = [sys.executable, "-m", "equiframes.cli", "--help"]
    times = []
    for i in range(samples + 1):
        wall, _, _, rc = spawn(cmd, env, WORK / "setup.out", WORK / "setup.err")
        if rc != 0:
            raise RuntimeError(f"importing equiframes.cli failed (exit {rc})")
        if i:  # the first import also compiles bytecode; users do not pay that
            times.append(wall)
    return times


def loop(steps, env, seconds, traced, first_index=0) -> list[Iteration]:
    """At least one iteration, then more while the next is expected to fit."""
    start = time.perf_counter()
    done: list[Iteration] = []
    while True:
        done.append(run_iteration(steps, env, first_index + len(done), traced))
        elapsed = time.perf_counter() - start
        if elapsed + median(i.wall_s for i in done) > seconds:
            return done


# --- per-layer metrics ------------------------------------------------------

LAYERS = ("scalar", "designs", "hadamard", "frames", "graphs", "pipelines", "cli")

# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("frames.verify_etf.self_s", "s"),
    ("frames.verify_etf.rss_rise_mb", "MB"),
    ("frames.real_gram_signs.self_s", "s"),
    ("frames.real_gram_signs.calls", "count"),
    ("frames.gram_matrix.self_s", "s"),
    ("frames.gram_matrix.calls", "count"),
    ("frames.store_frame_exact.self_s", "s"),
    ("frames.store_frame_exact.bytes", "bytes"),
    ("frames.tremain_etf.self_s", "s"),
    ("frames.self_s", "s"),
    ("frames.calls", "count"),
    ("scalar.ext_mul.calls", "count"),
    ("scalar.ext_add.calls", "count"),
    ("scalar.self_s", "s"),
    ("graphs.srg_check.self_s", "s"),
    ("graphs.srg_check.calls", "count"),
    ("graphs.srg_check.pairs", "count"),
    ("graphs.srg_check.useful_ratio", "ratio"),
    ("graphs.tremain_flat_functional.self_s", "s"),
    ("graphs.drackn_cover.self_s", "s"),
    ("graphs.drackn_check.self_s", "s"),
    ("graphs.Graph.from_edges.self_s", "s"),
    ("graphs.Graph.from_adjacency.self_s", "s"),
    ("graphs.export_graph.self_s", "s"),
    ("graphs.export_graph.bytes", "bytes"),
    ("graphs.self_s", "s"),
    ("designs.self_s", "s"),
    ("designs.calls", "count"),
    ("hadamard.self_s", "s"),
    ("hadamard.calls", "count"),
    ("pipelines.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_values(span_files: list[Path], reports: list) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (absent: function not found)."""
    wrapped: set[str] = set()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    extras = defaultdict(list)
    for path in span_files:
        data = json.loads(path.read_text())
        wrapped.update(data["wrapped"])
        spans = data["spans"]
        for span, own in zip(spans, self_times(spans)):
            name, layer = span[0], span[1]
            for key in (name, layer):
                calls[key] += 1
                self_s[key] += own
            extras[name].append(span[6])
    certified = [r.get("certified_params") for r in reports if r]

    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        owner, stat = metric.rsplit(".", 1)
        if owner == "trace":
            continue
        if owner not in LAYERS and owner not in wrapped:
            continue
        if stat == "calls":
            values[metric] = calls[owner]
        elif stat == "self_s":
            values[metric] = self_s[owner]
        elif None in extras[owner]:
            continue  # a probe could not read this call: report absent
        elif stat == "rss_rise_mb":
            values[metric] = max((e["rss_rise_mb"] for e in extras[owner]), default=0.0)
        elif stat == "bytes":
            values[metric] = sum(e["bytes"] for e in extras[owner])
        elif stat == "pairs":
            values[metric] = sum(e["v"] * (e["v"] - 1) // 2 for e in extras[owner])
        elif stat == "useful_ratio":
            useful = sum(e["params"] in certified for e in extras[owner])
            values[metric] = useful / calls[owner] if calls[owner] else 0.0
    return values


# --- one workload -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    steps = workload_steps(name, seed, WORK)
    setup = measure_setup(env, 0 if trace else SETUP_SAMPLES)
    if trace:
        plain = loop(steps, env, 0.0, traced=False)
        remaining = max(0.0, seconds - plain[0].wall_s)
        iterations = loop(steps, env, remaining, traced=True, first_index=1)
        per_it = [layer_values(it.span_files, it.reports) for it in iterations]
        metrics = {}
        for metric, unit in PER_LAYER:
            if metric == "trace.overhead_s":
                value = (median(it.wall_s for it in iterations)
                         - median(it.wall_s for it in plain))
            elif all(metric in v for v in per_it):
                value = median(v[metric] for v in per_it)
            else:
                continue
            metrics[metric] = {"value": value, "unit": unit}
        samples = {"traced_iterations": len(iterations), "untraced_iterations": len(plain)}
        everything = plain + iterations
    else:
        everything = loop(steps, env, seconds, traced=False)
        metrics = {
            "wall_s": {"value": median(i.wall_s for i in everything), "unit": "s"},
            "cpu_s": {"value": median(i.cpu_s for i in everything), "unit": "s"},
            "peak_rss_mb": {"value": median(i.peak_rss_mb for i in everything),
                            "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
        samples = {"wall_s": len(everything), "cpu_s": len(everything),
                   "peak_rss_mb": len(everything), "setup_s": len(setup)}
    failed = [i for i in everything if i.reasons]
    return {
        "workload": name,
        "attempted": len(everything),
        "failed": len(failed),
        "fail_frac": len(failed) / len(everything),
        "reasons": sorted({r for i in failed for r in i.reasons}),
        "samples": samples,
        "values": {
            "wall_s": [i.wall_s for i in everything],
            "cpu_s": [i.cpu_s for i in everything],
            "peak_rss_mb": [i.peak_rss_mb for i in everything],
            "setup_s": setup,
        },
        "metrics": metrics,
    }


# --- run record ----------------------------------------------------------------

PROBE = """
import ctypes, json, numpy
threads = None
for line in open('/proc/self/maps'):
    lib = line.split()[-1]
    if 'blas' in lib.lower() and '.so' in lib:
        for sym in ('openblas_get_num_threads', 'scipy_openblas_get_num_threads64_',
                    'openblas_get_num_threads64_'):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    if threads is not None:
        break
blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas'].get('name')
print(json.dumps({'numpy': numpy.__version__, 'blas': blas, 'blas_threads': threads}))
"""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(seed: int, seconds: float, trace: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    probe = subprocess.run([sys.executable, "-c", PROBE], env=child_env(),
                           capture_output=True, text=True, check=True)
    return {
        "commit": commit,
        "src_sha256": source_digest(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **json.loads(probe.stdout),
    }


def summary_line(result: dict) -> str:
    parts = [result["workload"]]
    for name, m in result["metrics"].items():
        n = result["samples"].get(name)
        parts.append(f"{name}={m['value']:.6g} {m['unit']}" + (f" (n={n})" if n else ""))
    parts.append(f"fail_frac={result['fail_frac']:.3g} ratio "
                 f"({result['failed']}/{result['attempted']})")
    return "  ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "equiframes" / "cli.py").is_file():
        print(f"no equiframes sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    WORK.mkdir(exist_ok=True)
    try:
        record = run_record(args.seed, args.seconds, bool(args.trace))
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for result in results:
        print(summary_line(result))
        for reason in result["reasons"]:
            print(f"  failed: {reason}")
    record["results"] = [{k: v for k, v in r.items() if k != "metrics"}
                         for r in results]
    print("record " + json.dumps(record, sort_keys=True))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
