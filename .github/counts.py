"""Prints the benchmark's count metrics for seed 1 as JSON.

Fixed work makes these keys deterministic per seed, whatever the run
length or the speed of the box, so CI diffs them exactly against the
committed golden:

    python3 .github/counts.py > counts.out
    diff -u .github/counts-seed1.json counts.out

A change that alters the work (what fires, what is priced) regenerates
the golden with `python3 .github/counts.py > .github/counts-seed1.json`
and explains the diff. Each workload runs for two seconds. Runs from the
repo root.
"""

import json
import subprocess
import sys

BENCH = [
    "cargo", "run", "--release", "--offline", "--quiet",
    "--manifest-path", "benchmark/Cargo.toml", "--",
]
WORKLOADS = ["engine_quant_closed", "engine_f32_closed", "http_vgg_paced", "http_small_closed"]
# ok_share is (attempted - failed) / attempted, so the `failed` check below
# already pins it to 1.0; it stays in the golden as the record of that.
KEYS = ["sops_per_inference", "top1_match_share", "ok_share"]
# An HTTP workload's energy is a mean over whatever batches formed, which
# scatters in the last digits from run to run; an engine workload's is
# priced per whole pool cycle.
ENGINE_KEYS = KEYS + ["energy_uj_per_inference"]


def main():
    golden = {}
    for workload in WORKLOADS:
        out = subprocess.run(
            BENCH + ["--workload", workload, "--seed", "1", "--seconds", "2", "--trace", "0"],
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        run = json.loads(out.strip().splitlines()[-1])
        if not run["correct"] or run["failed"] != 0:
            sys.exit(f"{workload}: correct={run['correct']} failed={run['failed']}")
        keys = ENGINE_KEYS if workload.startswith("engine_") else KEYS
        golden[workload] = {k: run["metrics"][k]["value"] for k in keys}
    print(json.dumps(golden, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
