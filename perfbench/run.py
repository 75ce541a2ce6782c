#!/usr/bin/env python3
"""End-to-end benchmark of the mhp_run path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program from the sources of the checkout it sits in
(into .bench_build/perfbench), runs one workload for S seconds, checks the
simulated outputs against the hashes pinned in perfbench/golden.json and
prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  perfbench/README.md describes the workloads
and what each metric measures.

Extra modes:
    --size smoke     the reduced workload sizes the smoke test uses
    --perturb        alter every output before hashing (the check must trip)
    --pin SEEDS      record the output hashes of SEEDS (e.g. 0-20) for
                     --workload at --size into golden.json, then exit
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"
REFERENCE_SEED = "1"  # the smoke-size instance every run re-checks


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build; output goes to stderr."""
    if not (ROOT / "src").is_dir():
        raise SystemExit(f"perfbench: no simulator sources in {ROOT / 'src'}")
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return BUILD / "perfbench"


def measure(binary, workload, seed, seconds, trace, size, perturb):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--size", size]
    if perturb:
        cmd.append("--perturb")
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=170)
    if out.returncode != 0:
        raise SystemExit(f"perfbench: {workload} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def load_golden():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def check(raw, golden):
    """(attempted, failed, notes): every pass must reproduce the pinned
    hash for its seed (or, for a seed not pinned, the first pass's hash),
    and the reference instance must reproduce its pin."""
    passes = raw["passes"]
    pinned = golden.get(raw["size"], {}).get(raw["workload"], {})
    expected = pinned.get(str(raw["seed"]), passes[0]["hash"])
    attempted = failed = 0
    notes = []
    for p in passes:
        attempted += p["attempted"]
        failed += p["failed"]
        if p["error"]:
            notes.append(p["error"])
        if p["hash"] != expected:
            failed += p["attempted"] - p["failed"]
            notes.append(f"output hash {p['hash']} != {expected}")
    reference = golden.get("smoke", {}).get(raw["workload"], {})
    attempted += 1
    if raw["reference_error"] or \
            raw["reference_hash"] != reference.get(REFERENCE_SEED):
        failed += 1
        notes.append("reference instance: " + (raw["reference_error"] or
                     f"hash {raw['reference_hash']} is not the pinned one"))
    if "replay_ok" in raw:
        attempted += 1
        if not raw["replay_ok"]:
            failed += 1
            notes.append("set-up replay disagrees with the facade")
    return attempted, failed, notes, str(raw["seed"]) in pinned


def end_to_end(raw):
    """Times are the fastest untraced pass's process CPU seconds: waiting
    for a core and passes slowed by neighbours on a shared host only ever
    add time, so the minimum is the figure that repeats."""
    passes = [p for p in raw["passes"] if not p["traced"]]
    return {
        "setup_s": min(p["setup_cpu_s"] for p in passes),
        "run_s": min(p["run_cpu_s"] for p in passes),
        "pass_s": min(p["cpu_s"] for p in passes),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--perturb", action="store_true")
    ap.add_argument("--pin")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    binary = build()

    if args.pin:
        golden = load_golden()
        table = golden.setdefault(args.size, {}).setdefault(args.workload, {})
        for seed in parse_seeds(args.pin):
            raw = measure(binary, args.workload, seed, 0, False, args.size,
                          False)
            if any(p["failed"] for p in raw["passes"]):
                raise SystemExit(f"perfbench: seed {seed} failed: "
                                 f"{raw['passes'][0]['error']}")
            table[str(seed)] = raw["passes"][0]["hash"]
            log(f"pinned {args.size}/{args.workload}/{seed} = {table[str(seed)]}")
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return

    raw = measure(binary, args.workload, args.seed, args.seconds,
                  args.trace == 1, args.size, args.perturb)
    attempted, failed, notes, pinned = check(raw, load_golden())
    for note in notes[:5]:
        log(note)
    if args.trace:
        layers = raw["layers"]
        values = {m["name"]: layers.get(m["name"], 0.0)
                  for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(raw)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"perfbench: workload={raw['workload']} seed={raw['seed']} "
          f"size={raw['size']} cores={raw['cores']} "
          f"passes={len(raw['passes'])} "
          f"output_hash={raw['passes'][0]['hash']} "
          f"pinned={'yes' if pinned else 'no'}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()
