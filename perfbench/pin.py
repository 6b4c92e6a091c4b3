"""Record the survey output digests the benchmark checks against.

Usage (from the root of a checkout whose survey output is known good)::

    python3 perfbench/pin.py [--size full|small] [--workload NAME]

Runs one untimed pass of each survey workload for every pinned fault seed
and writes the digests into ``perfbench/pins.json``.  A pin is a
promise that the output is right: only re-pin on purpose, when a change
is meant to alter survey output, and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", action="append",
                        choices=("full", "small"))
    parser.add_argument("--workload", action="append",
                        choices=("survey-steal", "survey-inline"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import survey

    pins = survey.load_pins()
    base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    for workload in args.workload or ("survey-steal", "survey-inline"):
        for size in args.size or ("full", "small"):
            variants = survey.VARIANTS if workload == "survey-steal" else 1
            for variant in range(variants):
                plan = survey.plan(workload, variant, 0.0, size)
                workdir = tempfile.mkdtemp(dir=base)
                try:
                    history = survey._generate_history()
                    done = survey._Pass(plan, history, workdir, None).run()
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                pins[plan.pin_key] = done["digest"]
                print(plan.pin_key, done["digest"], flush=True)
                with open(survey.PINS_PATH, "w", encoding="utf-8") as f:
                    json.dump(dict(sorted(pins.items())), f, indent=1)
                    f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
