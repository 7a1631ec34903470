#!/usr/bin/env python3
"""Run every packaged reproduction target and collect the CSV outputs.

The targets are the CLI's: one per fixture in the package's fixtures/.

Writes one CSV per target into results/ (created next to the working
directory) and prints the per-target verdict lines.  Targets that compare
against published values exit nonzero when those values are not met; the
summary at the end lists the status of each.
"""

import pathlib
import sys

from stockrationing.cli import TARGETS, main


def run(out_dir: pathlib.Path) -> int:
    out_dir.mkdir(exist_ok=True)
    status = {}
    for target in TARGETS:
        print(f"=== {target} " + "=" * (40 - len(target)))
        code = main(["reproduce", target, "--out", str(out_dir / f"{target}.csv")])
        status[target] = code
    print("\nsummary:")
    for target, code in status.items():
        print(f"  {target}: {'ok' if code == 0 else f'check failed (exit {code})'}")
    return max(status.values())


if __name__ == "__main__":
    sys.exit(run(pathlib.Path("results")))
