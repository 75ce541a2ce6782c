#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload at its reduced size, untraced and traced, and checks
that the result line names every metric of BENCHMARK.json with its unit
and passes the output check; that a perturbed report trips the output
check; and that a directory holding only BENCHMARK.json and perfbench/
makes the benchmark exit non-zero without a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def result_of(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    got = result["metrics"]
    assert set(got) == {m["name"] for m in expected}, sorted(got)
    for m in expected:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (m["name"], entry)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            result = result_of(bench("--workload", workload, "--seed", "0",
                                     "--seconds", "0", "--trace", trace,
                                     "--size", "smoke"))
            check_metrics(result, expected)
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
        perturbed = result_of(bench("--workload", workload, "--seed", "0",
                                    "--seconds", "0", "--trace", "0",
                                    "--size", "smoke", "--perturb"))
        assert not perturbed["correct"] and perturbed["failed"] > 0, perturbed
        print(f"smoke ok: {workload}")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = bench("--workload", spec["workloads"][0]["name"], "--seed", "0",
                "--seconds", "1", "--trace", "0", cwd=bare,
                script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and '"metrics"' not in out.stdout, out.stdout
    print("smoke ok: a directory without the sources fails without a result")


if __name__ == "__main__":
    main()
