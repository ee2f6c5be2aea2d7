"""Record the expected output digest of every cell each workload can run.

    python3 bench/record_digests.py

A cell's digest is the SHA-256 of its scenario JSON and oracle trace CSV,
plus the baseline trace CSV in oracle mode; a workload's digest hashes its
cells' digests.  The benchmark fails every cell whose outputs differ.
Re-record only when a change is meant to alter those outputs.
"""

from __future__ import annotations

import json

import run

run.prepare_environment()

import cells  # noqa: E402  (needs the environment above)
from prbslice.oracle import simulate  # noqa: E402
from spans import NullTracer  # noqa: E402


def expected_outputs(workload: cells.Workload, cell: cells.Cell,
                     inputs: dict) -> cells.Outputs:
    if not workload.differential:
        return cells.run_oracle(cell, inputs, NullTracer())
    config, spec = inputs[cell.layout]
    scenario = spec.generate(config, cell.seed)
    return cells.Outputs(scenario, (simulate(config, scenario),))


def main() -> None:
    doc = {}
    for name, workload in cells.WORKLOADS.items():
        inputs = cells.prepare(workload)
        digests = {cell.key: expected_outputs(workload, cell, inputs).digest()
                   for cell in workload.universe()}
        doc[name] = {"digest": cells.workload_digest(workload, digests),
                     "cells": digests}
        print(f"{name}: {len(digests)} cells, {doc[name]['digest']}")
    cells.DIGESTS_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
