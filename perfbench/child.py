"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed S --mode run|trace|setup --workdir DIR [--spans FILE]

``run.py`` starts it; ``DIR`` receives the repetition's input files.
Prints one JSON object as its last stdout line.  ``t_ready`` is the
``time.monotonic()`` reading (system-wide on Linux, so the parent can
subtract its spawn time) taken just before the first workload call.
``scale`` is the host-speed factor of ``calibration.py``, from reference
windows timed after that point and after each step of the measured
region; ``setup`` mode stops after the first window.  ``run`` mode times every two-graph
comparison with a bare timer; ``trace`` mode wraps the package's public
functions instead and reports per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    import eigenwl
    import numpy

    src = os.environ["PERFBENCH_SRC"]
    if os.path.dirname(os.path.dirname(os.path.abspath(eigenwl.__file__))) != src:
        print(f"eigenwl imported from {eigenwl.__file__}, not from {src}", file=sys.stderr)
        return 2
    import calibration
    import tracing
    from workloads import WORKLOADS

    setup, run, check = WORKLOADS[args.workload]
    inputs = setup(args.seed, args.workdir)
    t_ready = time.monotonic()
    clock = calibration.Clock()
    if args.mode == "setup":
        print(json.dumps({"t_ready": t_ready, "scale": clock.factor()}))
        return 0

    compares: list[float] = []

    if args.mode == "trace":
        instrument = tracing.Tracer()
        instrument.install()
    else:
        instrument = tracing.install_compare_timer(compares)
    clock.start()
    output = run(inputs, compares, clock.step)
    clock.step()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    instrument.uninstall()

    ops, failures, known, notes = check(inputs, output)
    result = dict(
        t_ready=t_ready, wall_s=clock.wall_s, cpu_s=clock.cpu_s, compare_s=compares,
        scale=clock.factor(), peak_rss_mb=rss_mb,
        ops=ops, failures=failures, known_defects=known, notes=notes,
        numpy=numpy.__version__,
    )
    if args.mode == "trace":
        result["layers"] = tracing.layer_metrics(instrument.spans, result["wall_s"])
        if args.spans:
            instrument.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
