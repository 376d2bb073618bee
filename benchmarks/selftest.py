"""Self-test of the benchmark itself.

    python3 benchmarks/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics the code reports,
that the deterministic per-layer counters repeat exactly across two traced
runs of each workload, that no lifted evaluation runs on base-flow, and
that the level-3 and level-2 paths are exercised where they should be.
Exits with status 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys

import run  # pins the thread pools before numpy loads
import spans
import workloads

SEED = 11
SECONDS = 1.0


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    want_layer = [[name, unit, better] for name, unit, better, _ in spans.LAYER_METRICS]
    got_layer = [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]]
    if got_layer != want_layer:
        fail("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")

    sj = run.load_sprayjets()
    metrics, tally, _ = run.end_to_end(sj, "base-flow", SEED, SECONDS)
    got_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if got_e2e != {name: unit for name, (_, unit) in metrics.items()}:
        fail("BENCHMARK.json end_to_end differs from the metrics run.end_to_end reports")
    if tally.failed:
        fail(f"base-flow end-to-end run failed tasks: {tally.failures}")

    layer = {}
    for name in workloads.WORKLOADS:
        runs = []
        for _ in range(2):
            metrics, tally, _ = run.per_layer(sj, name, SEED, SECONDS)
            if tally.failed:
                fail(f"{name}: failed tasks {tally.failures}")
            runs.append({key: value for key, (value, _) in metrics.items()})
        for key in spans.DETERMINISTIC:
            if runs[0][key] != runs[1][key]:
                fail(f"{name}: {key} differs between traced runs: {runs[0][key]} vs {runs[1][key]}")
        layer[name] = runs[0]
        print(f"{name}: {len(spans.DETERMINISTIC)} deterministic counters repeat exactly")

    if layer["base-flow"]["jets.lift_share"] != 0.0:
        fail(f"jets.lift_share on base-flow is {layer['base-flow']['jets.lift_share']}, not 0")
    if not layer["parallel-curves"]["spray.acceleration.L3.calls"] > 0:
        fail("parallel-curves runs no level-3 acceleration")
    if not layer["lifted-jacobi"]["jetspace.jet_apply.L2.calls"] > 0:
        fail("lifted-jacobi runs no level-2 jet_apply")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
