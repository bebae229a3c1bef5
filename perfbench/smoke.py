"""Smoke test of the benchmark: every workload at a tiny iteration budget,
untraced and traced.

    python3 perfbench/smoke.py

Checks that each run is correct and emits exactly the metrics BENCHMARK.json
names, each with its unit; that the spans of each traced run nest and their
self times add up to the traced wall time; and that tracing leaves no hook
installed.  Prints one line per run and exits non-zero on any failure.
"""

import json
import sys

import numpy as np

import run
import spans

TINY_BUDGET = 60


def check_spans(path) -> list:
    data = np.load(path)
    start, end, parent = data["start"], data["end"], data["parent"]
    child = parent >= 0
    problems = []
    if np.any(start[child] < start[parent[child]]) or np.any(end[child] > end[parent[child]]):
        problems.append(f"{path.name}: a span is not nested in its parent")
    duration = end - start
    self_s = duration - np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    wall = duration[~child].sum()
    if abs(self_s.sum() - wall) > 1e-9 * max(1.0, wall):
        problems.append(f"{path.name}: self times sum to {self_s.sum()!r}, wall is {wall!r}")
    return problems


def check_restored() -> list:
    left = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith(spans.PACKAGE + "."):
            continue
        for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
            left += [f"{module_name}: {attribute}" for attribute, value in vars(owner).items()
                     if hasattr(value, "perfbench_span")]
    return [f"hook left installed: {', '.join(left)}"] if left else []


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    import workloads

    failures = []
    for name in workloads.NAMES:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run.run_workload(name, 0, 0.01, trace, budget=TINY_BUDGET)
            problems = []
            if not result.correct or result.failed:
                problems.append(f"incorrect ({result.failed} failed)")
            line = json.loads(result.json_line())
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(line)}")
            expected = {m["name"]: m["unit"] for m in declared}
            emitted = {k: v["unit"] for k, v in line["metrics"].items()}
            if emitted != expected:
                problems.append(f"metrics differ: missing {sorted(set(expected) - set(emitted))}, "
                                f"extra {sorted(set(emitted) - set(expected))}, "
                                f"units {[k for k in expected if emitted.get(k, expected[k]) != expected[k]]}")
            if trace:
                for summary in result.summaries:
                    self_sum = sum(s.self_s for s in summary.stats.values())
                    if abs(self_sum - summary.wall_s) > 1e-9 * max(1.0, summary.wall_s):
                        problems.append(f"self times {self_sum!r} != traced wall {summary.wall_s!r}")
                problems += check_spans(run.OUT / f"spans-{name}-seed0.npz")
                problems += check_restored()
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{name} trace={trace}: {status}", flush=True)
            failures += problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
