"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

They start real CLI children (about a minute on two cores) and are not
part of the package's test suite.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Counts the program makes; they must repeat exactly between traced runs.
EXACT = ("perm.mul.calls", "classalg.set_product.steps", "verify.pairs_checked", "scan.rows")


def _runner(tmp_path) -> run.Runner:
    return run.Runner(str(tmp_path), deadline=perf_counter() + 300)


@pytest.mark.parametrize("name", ["scan-catalog", "check-es3sq"])
def test_traced_runs_repeat_counts_and_stdout(tmp_path, name):
    runner = _runner(tmp_path)
    prepared = workloads.prepare(name, 0, str(tmp_path), run.CHILD_ENV)
    plain = runner.cli("cli", prepared)
    assert plain.error is None
    counts = []
    for _ in range(2):
        trace_path = str(tmp_path / "trace.json")
        traced = runner.cli("traced", prepared, ("--trace", trace_path))
        assert traced.error is None
        assert traced.stdout_sha256 == plain.stdout_sha256
        with open(trace_path, encoding="utf-8") as fh:
            metrics = tracer.layer_metrics(json.load(fh))
        counts.append({k: v for k, v in metrics.items() if k.endswith(".calls") or k in EXACT})
    assert counts[0] == counts[1]
    assert any(counts[0][k] for k in EXACT)


def _catalog_bytes(seed, directory):
    workloads.write_ingest_catalog(seed, str(directory))
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(directory))
    }


def test_ingest_generator_is_byte_deterministic(tmp_path):
    first = _catalog_bytes(7, tmp_path / "a")
    assert first == _catalog_bytes(7, tmp_path / "b")
    other = _catalog_bytes(8, tmp_path / "c")
    assert first.keys() == other.keys()
    assert all(first[k] != other[k] for k in first)
    assert workloads.PLANTED_NAME in first and len(first) == len(workloads.INGEST_SPECS) + 1


def test_ingest_check_accepts_cli_and_rejects_wrong_counts(tmp_path):
    catalog = str(tmp_path / "catalog")
    names = workloads.write_ingest_catalog(3, catalog)
    expected = workloads.expected_ingest_summary(names)
    planted = os.path.join(catalog, workloads.PLANTED_NAME)
    sample, stdout = _runner(tmp_path).invoke(
        "cli", ("scan", "--catalog", catalog, "--no-builtins", "--json")
    )
    assert workloads.check_ingest(sample.returncode, stdout, expected, planted) is None

    summary = json.loads(stdout)
    key = next(iter(summary["by_group"]))
    summary["by_group"][key] += 1
    wrong = json.dumps(summary).encode()
    assert "by_group" in workloads.check_ingest(0, wrong, expected, planted)
    summary["by_group"][key] -= 1
    summary["ingest_failures"] = []
    missing = json.dumps(summary).encode()
    assert "ingest_failures" in workloads.check_ingest(0, missing, expected, planted)
    assert workloads.check_ingest(1, stdout, expected, planted) == "exit code 1"


def test_metric_names_match_benchmark_json():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
