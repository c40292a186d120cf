"""Record the reference outputs that run.py compares against.

Run once, from the repository root, on the commit that defines the
benchmark::

    python3 perfbench/record_reference.py

It runs one pass of every workload, at full and at toy size, at the
reference seed of ``spec.json``, refuses to record outputs that fail the
independent checks, and writes ``perfbench/reference/seed<seed>.json``.
Re-recording on a later commit would make the check compare that commit
with itself.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC, run_pass
import workloads


def main() -> int:
    sys.path.insert(0, str(SRC))
    from dppls import cli

    ref = workloads.SPEC["reference"]
    doc = {"seed": ref["seed"]}
    scratch = ROOT / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    for size in ("full", "toy"):
        toy = size == "toy"
        doc[size] = {}
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                work = Path(tmp)
                cmds = workloads.commands(name, toy, ref["seed"], work)
                workloads.make_inputs(name, toy, work)
                _, codes = run_pass(cli.main, cmds)
                outputs, _, failed = workloads.collect(name, work)
                bad = workloads.independent_mismatches(
                    name, toy, ref["seed"], work, outputs, ref["rtol"], ref["atol"])
            if any(codes) or failed or bad:
                print(f"{size} {name}: exits {codes}, {failed} failed entries, {bad}",
                      file=sys.stderr)
                return 1
            doc[size][name] = outputs
            print(f"{size} {name}: {sum(len(v) for v in outputs.values())} values")
    (ROOT / ref["file"]).write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
