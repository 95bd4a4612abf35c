"""Self-test of the benchmark at smoke size: ``python3 perfbench/selftest.py``.

Runs each workload for the closed-loop units that cover its committed
reference and expects no wrong makespan, no invalid schedule, no failed
call, and exactly the end-to-end metrics BENCHMARK.json declares.  Then
it perturbs the reference and expects the damage to be counted exactly:
one changed makespan is ``wrong_makespans == 1``, also when only the full
fingerprint differs, and so is one makespan the run never produced.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def main() -> None:
    root = run.use_checkout_source()
    import reference
    import workloads

    declared = json.loads((root / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in declared["end_to_end"]}
    expect({w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json declares exactly the harness's workloads")
    work = root / ".bench_work" / "selftest"
    bank = 0
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(bank, work / name, reference.load(name, bank))
            metrics, _ = run.run_untraced(wl, seconds=1e-3, calls=1)
            checks = run.correctness(wl)
            expect(checks["wrong_makespans"] == 0 and checks["invalid_schedules"] == 0
                   and wl.failed == 0 and wl.checked > 0,
                   f"{name}: correct against the reference ({wl.checked} schedules validated)")
            expect(set(metrics) == e2e_names and all(v > 0 for v, _ in metrics.values()),
                   f"{name}: every end-to-end metric, all positive")

        cls = workloads.OneShotCli
        good = reference.load(cls.name, bank)
        short = list(good.short)
        short[1] = format((int(short[1], 16) + 1) % 0x10000, "04x")
        moved = reference.Reference("0" * 64, "".join(short))
        unlocated = reference.Reference("0" * 64, "".join(good.short))
        for ref, label, drop in ((moved, "one perturbed makespan", False),
                                 (unlocated, "a perturbed fingerprint only", False),
                                 (good, "one never observed makespan", True)):
            wl = cls(bank, work / "perturbed", ref)
            wl.setup()
            for _ in range(wl.reference_units):
                wl.step()
            if drop:
                del wl.observed[max(wl.observed)]
            expect(wl.wrong_makespans() == 1, f"{label} is counted as wrong_makespans == 1")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
