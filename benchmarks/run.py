"""moescale benchmark: one workload per run, or all of them.

    python3 benchmarks/run.py --workload plan --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``, not
from an installed copy. With ``--trace 0`` the last line of stdout is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics from a traced run, whose spans go to
``.bench_work/trace-<workload>.jsonl``. The lines before it name every
metric with its unit and give the run's provenance. See
``benchmarks/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One benchmark thread, one BLAS thread: the machines this runs on have few
# cores, and answers are timed one at a time. Children inherit the caps.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import spec  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*spec.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None, help="measured time per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import moescale from this checkout's src/ or stop with exit code 1."""
    if not (ROOT / "src" / "moescale" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {ROOT / 'src' / 'moescale'}; run from a moescale checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import moescale

    if Path(moescale.__file__).resolve().parent != ROOT / "src" / "moescale":
        sys.exit(f"benchmark: imported moescale from {moescale.__file__}, not from this checkout")


def main(argv=None) -> int:
    args = parse_args(argv)
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    if args.workload == "all":
        import subprocess

        code = 0
        for name in spec.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", repr(seconds), "--trace", str(args.trace)]
            print(f"== {name}", flush=True)
            code = max(code, subprocess.run(cmd).returncode)
        return code
    import_package()
    import harness

    return harness.run(args.workload, args.seed, seconds, bool(args.trace), ROOT, WORK)


if __name__ == "__main__":
    sys.exit(main())
