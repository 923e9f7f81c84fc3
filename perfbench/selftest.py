"""Self-test of the benchmark's tracer and of its exact-repeating counts.

    python3 perfbench/selftest.py

Run from the root of a rawphone checkout. Checks that:

1. the tracer wraps every namespace binding of every target function
   (found by identity) and restores all of them when the traced code
   raises;
2. two `--trace 1` runs of every workload with seed SEED are both
   correct (which includes traced outputs byte-identical to untraced
   ones) and give identical values for every count in EXACT_COUNTS.

Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

import run
from tracer import Tracer

SEED = 0

# Counts a later change may rest a claim on: they must repeat exactly.
EXACT_COUNTS = (
    "net.forward_pass.calls",
    "net.backward_pass.calls",
    "net.forward_pass.per_scored_frame",
    "training.sgd_step.calls",
    "framing.windows.frames",
    "crf.crf_log_likelihood.calls",
    "net.softmax.calls",
    "scoring.levenshtein.cells",
)


def _bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "rawphone" or name.startswith("rawphone."))
        for attr, value in vars(module).items()
    }


def check_tracer():
    run.import_cli()
    import numpy as np
    import rawphone.net

    before = _bindings()
    tracer = Tracer(run.TRACE_TARGETS, run_id="selftest")
    try:
        with tracer:
            during = _bindings()
            for target in run.TRACE_TARGETS:
                module, func = target.split(".", 1)
                original = before[(f"rawphone.{module}", func)]
                keys = [k for k, v in before.items() if v is original]
                unpatched = [k for k in keys if during[k] is original]
                if unpatched:
                    return f"{target}: bindings left unwrapped: {unpatched}"
            rawphone.net.softmax(np.zeros(3))
            raise RuntimeError("raised inside the traced region")
    except RuntimeError:
        pass
    after = _bindings()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    if changed:
        return f"bindings not restored after an error: {changed}"
    if tracer.missing:
        return f"trace targets not found: {tracer.missing}"
    if tracer.calls("net.softmax") != 1:
        return f"expected 1 softmax span, got {tracer.calls('net.softmax')}"
    return None


def traced_result(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False, timeout=300,
    )
    if proc.returncode != 0:
        return None, proc.stderr.strip()
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["context"]["problems"]


def check_counts(workload, seed):
    first, problems = traced_result(workload, seed)
    if first is None or not first["correct"]:
        return f"{workload}: first traced run failed: {problems}"
    second, problems = traced_result(workload, seed)
    if second is None or not second["correct"]:
        return f"{workload}: second traced run failed: {problems}"
    differ = {
        k: (first["metrics"][k]["value"], second["metrics"][k]["value"])
        for k in EXACT_COUNTS
        if first["metrics"][k]["value"] != second["metrics"][k]["value"]
    }
    if differ:
        return f"{workload}: counts differ between two traced runs: {differ}"
    return None


def main():
    checks = [("tracer patches by identity and restores on error", check_tracer)]
    for w in sorted(run.WORKLOADS):
        checks.append((f"{w}: counts repeat over two traced runs", lambda w=w: check_counts(w, SEED)))
    for label, check in checks:
        error = check()
        print(f"{'FAIL' if error else 'PASS'}  {label}" + (f": {error}" if error else ""), flush=True)
        if error:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
