"""waverep benchmark: one seeded workload, every metric on the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-tv-paper --seed 1 --seconds 30 --trace 0

The run writes its inputs (synthetic stems and an init checkpoint, made from
``--seed``) under ``.perfbench/``, then starts the workload in fresh
interpreters (``session.py``): a few that only set up, for ``setup_s``, and one
that measures.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.  The exit code is 0
when every output check passed, 1 when one failed and 2 when the run could
not produce metrics (for example, without the ``src/`` tree).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SESSION = HERE / "session.py"
SETUP_SAMPLES = 3          # set-up only processes, plus the measuring one
TIME_LIMIT_S = 170.0       # the whole run ends within this
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from ``.git``; "unknown" outside a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(ROOT),
    }


def spawn(args, work: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(SESSION), "--workload", args.workload, "--work", str(work),
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"session exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (SRC / "waverep" / "__init__.py").is_file():
        print(f"perfbench: no waverep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import waverep
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    deadline = start + TIME_LIMIT_S
    try:
        make_inputs(waverep, WORKLOADS[args.workload], args.seed, work)
        setups = [spawn(args, work, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
        out = spawn(args, work, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = out["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups + [out["setup_s"]]), "unit": "s"}
        metrics["peak_rss_mib"] = {"value": out["peak_rss_mib"], "unit": "MiB"}
    failed = out["failed"]
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            out["problems"].append(f"metric {name} could not be measured")
            m["value"] = 0.0
            failed = max(failed, 1)
    for problem in out["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": out["attempted"], "failed": failed,
              "metrics": dict(sorted(metrics.items()))}

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), "setup_samples_s": setups,
              "rate_samples": out["samples"], **result}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
