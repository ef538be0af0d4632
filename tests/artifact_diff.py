"""Compare the benchmark jobs' artifacts of this checkout with another tree's.

    python tests/artifact_diff.py <parent checkout> [seed ...]

Runs the perfbench warm-up list, its probe list and the certify, construct
and learn job lists (seeds 1, 2 and 3 unless given) through `boolres.cli.main`
once with the other tree's `src` and once with this checkout's, each in its
own subprocess with PYTHONPATH set to that tree's `src`.  The job lists come
from this checkout's `perfbench/jobs.py`.  Both runs read the same noisy
target files and write the same `--out` paths, so their artifacts, config
included, compare byte for byte.  Prints the argv of every job whose
artifacts differ or that fails in either tree, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# reads [[argv, ...], ...] on stdin, prints each job's exit status as JSON
CHILD = """
import json, sys
from boolres.cli import main
codes = []
for argv in json.load(sys.stdin):
    try:
        codes.append(main(argv))
    except Exception as exc:  # a crash counts as a failure, not the end
        codes.append(repr(exc))
print(json.dumps(codes))
"""


def _load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(tree: Path, argvs: list[list[str]], cwd: Path) -> list:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(argvs), env=env, cwd=cwd,
        capture_output=True, text=True,
    )
    if done.returncode:
        sys.exit(f"the jobs did not run with {tree / 'src'}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _collect(paths: list[Path]) -> list[bytes | None]:
    """Each file's bytes, or None where there is none; the files are
    removed, so a job that writes nothing in the next run reads as None."""
    contents = []
    for path in paths:
        contents.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return contents


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("seeds", type=int, nargs="*", default=[1, 2, 3])
    args = parser.parse_args(argv)
    jobs = _load_jobs()

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        job_list = list(jobs.WARMUP) + list(jobs.PROBES.values())
        for seed in args.seeds:
            for name in jobs.FOCUS:
                job_list += jobs.workload_jobs(name, seed, workdir)
        outs = [workdir / f"artifact-{i}.json" for i in range(len(job_list))]
        argvs = [[*job.argv, "--out", str(out)] for job, out in zip(job_list, outs)]

        parent_codes = _run(args.parent.resolve(), argvs, workdir)
        parent_bytes = _collect(outs)
        codes = _run(ROOT, argvs, workdir)
        own_bytes = _collect(outs)

    bad = 0
    for argv, before, after, old, new in zip(argvs, parent_codes, codes, parent_bytes, own_bytes):
        shown = " ".join(argv[:-2])
        if before != 0 or after != 0:
            print(f"fails (parent {before}, this checkout {after}): {shown}")
        elif old != new:
            print(f"differs: {shown}")
        else:
            continue
        bad += 1
    print(f"{len(argvs) - bad} of {len(argvs)} artifacts byte-identical, {bad} differ or fail")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
