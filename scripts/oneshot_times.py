"""Time one-shot ``python -m dppls <command>`` runs of two checkouts.

    python3 scripts/oneshot_times.py OLD NEW [--pairs 12] [--commands fit,predict]

Each command runs in a fresh interpreter with ``PYTHONPATH=<checkout>/src``,
pinned with ``taskset`` to the highest CPU this process may use, on a
paper-scale corpus (two holders x 100 samples x 100 channels, seed 1)
simulated once by NEW.  Each pair runs both checkouts back to back, OLD
first in odd pairs and NEW first in even ones, after one untimed run of
each.  A run's CPU time is the user
plus system time it adds to ``RUSAGE_CHILDREN``; its wall time includes
start-up and exit.  The script prints, per command and measure, the
median and quartiles of each side, the median of the paired savings
(OLD - NEW) and the pairs NEW wins, then the same as one JSON object on
its last line.

It measures; it checks no output and gates nothing.  Run it on an idle
host: other load shows up in the wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Per timed command, its arguments; {data} is the shared input directory
# and {out} the run's own output directory.  sweep-airpls is perfbench's
# sweep-airpls sweep.
COMMANDS = {
    "simulate": "simulate --n 100 --m 100 --seed 1 --output {out}/sim",
    "fit": "fit --input {data}/sim/combined.csv --output {out}/m.json --k 3",
    "predict": ("predict --model {data}/m.json --input {data}/sim/holder1.csv "
                "--response-col 0 --output {out}/p.csv"),
    "attack": ("attack --global-model {data}/m.json --input {data}/sim/holder1.csv "
               "--output {out}/a.json"),
    "preprocess": ("preprocess --input {data}/sim/combined.csv --output {out}/pre.csv "
                   "--pipeline sg:5,2,1|msc"),
    "preprocess-airpls": ("preprocess --input {data}/sim/combined.csv --output {out}/pre.csv "
                          "--pipeline airpls|center"),
    "sweep": ("sweep --input {data}/sim/combined.csv --output {out}/sweep --mode both "
              "--k 3 --k-max 5 --epsilons 100,10,1 --folds 10 --repeats 20 --seed 1"),
    "sweep-airpls": ("sweep --input {data}/sim/combined.csv --output {out}/sweep --mode both "
                     "--k 3 --k-max 1 --epsilons 1 --folds 5 --repeats 20 --seed 1 "
                     "--pipeline airpls|center"),
}

CPU = max(os.sched_getaffinity(0))  # every run is pinned here


def run(checkout: Path, argv: list) -> tuple:
    """CPU and wall seconds of one pinned ``python -m dppls`` run."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = ["taskset", "-c", str(CPU), sys.executable, "-m", "dppls", *argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: dppls {' '.join(argv)} failed:\n{proc.stderr}")
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu_s, wall


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout timed as OLD")
    parser.add_argument("new", type=Path, help="checkout timed as NEW")
    parser.add_argument("--pairs", type=int, default=12, help="timed pairs per command")
    parser.add_argument("--commands", default=",".join(COMMANDS),
                        help="comma list of commands to time")
    args = parser.parse_args(argv)
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    commands = args.commands.split(",")
    unknown = set(commands) - set(COMMANDS)
    if unknown:
        parser.error(f"unknown commands: {', '.join(sorted(unknown))}")

    result = {}
    with tempfile.TemporaryDirectory(prefix="oneshot-") as tmp:
        data = Path(tmp)
        for command in ("simulate", "fit"):  # the inputs: data/sim and data/m.json
            run(sides["new"], COMMANDS[command].format(data=data, out=data).split())
        for command in commands:
            times = {side: [] for side in sides}
            dirs = {side: data / side / command for side in sides}
            for side in sides:
                dirs[side].mkdir(parents=True)
            for i in range(args.pairs + 1):
                order = ("old", "new") if i % 2 else ("new", "old")
                for side in order:
                    argv_ = COMMANDS[command].format(data=data, out=dirs[side]).split()
                    measured = run(sides[side], argv_)
                    if i:  # pair 0 is the untimed warm-up
                        times[side].append(measured)
            entry = {}
            for k, measure in enumerate(("cpu_s", "wall_s")):
                old = [t[k] for t in times["old"]]
                new = [t[k] for t in times["new"]]
                saved = [a - b for a, b in zip(old, new)]
                entry[measure] = {
                    "old": quartiles(old),
                    "new": quartiles(new),
                    "median_saving_s": round(statistics.median(saved), 4),
                    "new_wins": f"{sum(s > 0 for s in saved)} of {len(saved)}",
                }
            result[command] = entry

    print(f"{'command':<17} {'measure':<7} {'old median [q1, q3]':<26} "
          f"{'new median [q1, q3]':<26} {'saving':>8}  new wins")
    for command, entry in result.items():
        for measure, m in entry.items():
            cells = [f"{m[s]['median']:.4f} [{m[s]['q1']:.4f}, {m[s]['q3']:.4f}]"
                     for s in ("old", "new")]
            print(f"{command:<17} {measure:<7} {cells[0]:<26} {cells[1]:<26} "
                  f"{m['median_saving_s']:>8.4f}  {m['new_wins']}")
    doc = {"old": str(sides["old"]), "new": str(sides["new"]), "pairs": args.pairs,
           "cpu": CPU, "commands": result}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
