"""Cold-process benchmark of the eigenwl package: verify, scan and hunt.

    python3 perfbench/run.py --workload verify|scan|hunt --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Every repetition runs in a fresh interpreter (the package's module-level
caches are process-global, and every CLI user starts with them cold),
with BLAS/OpenMP threads pinned to 1.  Repetitions start while they are
expected to end within ``--seconds``; at least one always runs.  Timings
are medians over repetitions, because run-to-run noise on a small shared
host is large, and the end-to-end timings are scaled to a reference host
speed measured in every repetition (``calibration.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics, the
tracing overhead and the dominant self-time layer.  The last stdout line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibration import REFERENCE_LOOP_S  # noqa: E402
from report import dominant_layers, end_to_end, per_layer  # noqa: E402

WORKLOADS = ("verify", "scan", "hunt")
SETUP_PROBES = 6
HARD_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def host_record(numpy_version: str) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {var: "1" for var in THREAD_VARS},
    }


class Runner:
    def __init__(self, root: str, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.workdir = os.path.join(root, ".perfbench")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ, PERFBENCH_SRC=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.env["PERFBENCH_SRC"], os.environ.get("PYTHONPATH")) if p
        )
        for var in THREAD_VARS:
            self.env[var] = "1"

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, mode: str, spans: str | None = None) -> dict:
        timeout = HARD_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("out of time before a repetition could start")
        # per-repetition input files live in a directory removed afterwards
        inputs = tempfile.mkdtemp(dir=self.workdir)
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--mode", mode, "--workdir", inputs,
        ]
        if spans:
            cmd += ["--spans", spans]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, stdout=subprocess.PIPE, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} repetition exceeded the {HARD_LIMIT_S:.0f} s limit") from None
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{mode} repetition exited with code {proc.returncode}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        rep["setup_s"] = rep["t_ready"] - spawned
        rep["span_s"] = time.monotonic() - spawned
        return rep

    def repetitions(self, modes: tuple[str, ...]) -> dict[str, list[dict]]:
        """Cycle through ``modes`` until the next cycle would overrun."""
        reps: dict[str, list[dict]] = {m: [] for m in modes}
        longest = 0.0
        while True:
            for mode in modes:
                spans = os.path.join(self.workdir, f"spans-{self.workload}.jsonl") if mode == "trace" else None
                rep = self.child(mode, spans)
                longest = max(longest, rep["span_s"])
                reps[mode].append(rep)
            if self.elapsed() + longest * len(modes) > self.seconds:
                return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eigenwl", "__init__.py")):
        print("error: run from the root of an eigenwl checkout (src/eigenwl not found)", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, args.seconds)
    try:
        setups = [runner.child("setup") for _ in range(SETUP_PROBES)]
        if args.trace:
            reps = runner.repetitions(("run", "trace"))
        else:
            reps = runner.repetitions(("run",))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    all_reps = [r for group in reps.values() for r in group]
    attempted = sum(r["ops"] for r in all_reps)
    failed = sum(r["failures"] for r in all_reps)
    known = sum(r["known_defects"] for r in all_reps)
    correct = failed == known
    setups += all_reps

    print("host " + json.dumps(host_record(all_reps[0]["numpy"]), sort_keys=True))
    scales = [r["scale"] for r in setups]
    print(
        f"host speed scale {statistics.median(scales):.4f} (median over {len(scales)} processes; "
        f"{min(scales):.4f}-{max(scales):.4f}): timings are scaled to a host that runs the "
        f"reference loop in {1000 * REFERENCE_LOOP_S:.1f} ms"
    )
    for r in all_reps:
        for note in r["notes"]:
            print(f"note: {note}")
    print(
        f"failed_ops_ratio {failed / attempted:.4f} ({failed} of {attempted} operations; "
        f"{len(all_reps)} repetitions of {attempted // len(all_reps)}; "
        f"{known} of the failures are the known defect of ROADMAP item 3)"
    )
    if args.trace:
        metrics = per_layer(args.workload, reps["run"], reps["trace"])
        for line in dominant_layers(args.workload, metrics):
            print(line)
    else:
        metrics = end_to_end(reps["run"], setups)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}" + (f" ({m['note']})" if m.get("note") else ""))
    final = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
