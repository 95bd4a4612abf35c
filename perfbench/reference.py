"""Committed reference makespans, and the check every run makes against them.

For each workload and bank index, ``reference.json`` holds the sha256 of
every makespan written with ``repr``, one per line in the workload's
fixed order, and the first four hex digits of each makespan's own
sha256.  The short hashes locate which makespans differ; the full hash
makes sure no difference goes unreported.

Regenerate with ``python3 perfbench/reference.py`` only when the
benchmark's inputs change.  A makespan change in the program must show as
``wrong_makespans``, never be absorbed here.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

UNLOCATED = -1  # the full hash differs but no short hash does


def _short(value: str | None) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:4]


def fingerprint(values: list[str | None]) -> str:
    return hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()


class Reference:
    def __init__(self, sha256: str, short: str):
        self.sha256 = sha256
        self.short = [short[i : i + 4] for i in range(0, len(short), 4)]

    @classmethod
    def of(cls, values: list[str | None]) -> "Reference":
        return cls(fingerprint(values), "".join(map(_short, values)))

    def to_json(self) -> dict:
        return {"sha256": self.sha256, "short": "".join(self.short)}

    def __len__(self) -> int:
        return len(self.short)

    def matches(self, position: int, value: str | None) -> bool:
        return (
            value is not None
            and position < len(self.short)
            and self.short[position] == _short(value)
        )


def load(workload: str, bank: int) -> Reference:
    doc = json.loads(REFERENCE_FILE.read_text())
    entry = doc["workloads"][workload][bank]
    return Reference(entry["sha256"], entry["short"])


def regenerate(work_dir: Path) -> dict:
    import inputs
    import workloads

    doc = {"bank_size": inputs.BANK_SIZE, "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        entries = []
        for bank in range(inputs.BANK_SIZE):
            wl = cls(bank, work_dir / f"{name}-{bank}", reference=None)
            wl.setup()
            for _ in range(wl.reference_units):
                wl.step()
            if wl.failed:
                raise RuntimeError(f"{name} bank {bank}: {wl.errors}")
            entries.append(Reference.of(wl.values()).to_json())
            print(name, bank, entries[-1]["sha256"][:16], file=sys.stderr)
        doc["workloads"][name] = entries
    return doc


if __name__ == "__main__":
    import shutil

    import run

    root = run.use_checkout_source()
    work = root / ".bench_work" / "reference"
    try:
        doc = regenerate(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
