#!/usr/bin/env python3
"""boolres benchmark: seeded CLI workloads through `boolres.cli.main`, in process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from `src/`, so
nothing needs installing.  One round runs the workload's job list (see
`jobs.py`) once, each job writing its JSON artifact to a file that is then
checked (`gate.py`).  Rounds repeat while the next one still fits in
`--seconds`.  A reported time is a sum over jobs of each job's median over
rounds.

`--trace 0` reports the end-to-end metrics listed in BENCHMARK.json.
`--trace 1` runs a warm round, then alternates traced and plain rounds, and
reports the per-layer metrics of the traced rounds (`spans.py`), the
per-subcommand times `cmd_s.*` of the plain rounds and the tracing
overhead: traced minus plain `wall_s`.  The
last line of stdout is the JSON result; the spans and a full report go to
`.bench_out/`.  The exit code is 0 only if every job passed its checks.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3  # this process plus two fresh ones

import gate  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402


class Runner:
    """Runs jobs through the CLI and checks every artifact.

    The first run of a job is checked by `gate`; a repeat must then write
    the byte-identical artifact.
    """

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.artifact = workdir / "artifact.json"
        self.digests: dict[jobs.Job, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def run(self, job: jobs.Job) -> tuple[float, int]:
        """Run one job; returns its wall time and artifact size in bytes."""
        self.artifact.unlink(missing_ok=True)
        argv = [*job.argv, "--out", str(self.artifact)]
        start = perf_counter()
        try:
            code = self.cli.main(argv)  # looked up per call: tracing patches it
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed job, not the end of the run
            traceback.print_exc()
            code = -1
        wall = perf_counter() - start
        self.attempted += 1
        data = self.artifact.read_bytes() if self.artifact.exists() else b""
        digest = hashlib.sha256(data).hexdigest()
        if job in self.digests:
            errs = [] if code == 0 and digest == self.digests[job] else [
                f"exit code {code}" if code else "artifact differs from the first run"
            ]
        else:
            try:
                out = json.loads(data) if data else None
            except ValueError:
                out = None
            errs = gate.problems(job, code, out)
            if not errs:
                self.digests[job] = digest
        if errs:
            self.failures.append((" ".join(job.argv), errs))
            print(f"FAILED {' '.join(job.argv)}: {'; '.join(errs)}", file=sys.stderr)
        return wall, len(data)


def run_round(runner: Runner, job_list, tracer=None) -> dict:
    """One pass over the job list; per job: wall time, artifact bytes and,
    when traced, the layer totals of its spans."""
    walls, sizes, layers = [], [], []
    for job in job_list:
        first = len(tracer.spans) if tracer else 0
        if tracer is not None:
            tracer.job = runner.attempted  # unique per job run
        wall, size = runner.run(job)
        walls.append(wall)
        sizes.append(size)
        if tracer is not None:
            layers.append(spans.layer_totals(tracer.spans, first, len(tracer.spans)))
    return {"traced": tracer is not None, "wall_s": walls, "out_bytes": sizes, "layers": layers}


def machine_info(numpy) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads(numpy)
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        info["commit"] = proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        info["commit"] = "unknown (no git)"
    return info


def _blas_threads(numpy):
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: start of run.py to the end of warm-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.FOCUS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s)")
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def measure(args, cli) -> dict:
    """Set up, run rounds for `args.seconds` and return the full report."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        job_list = jobs.workload_jobs(args.workload, args.seed, workdir)
        runner = Runner(cli, workdir)
        for job in jobs.WARMUP:
            runner.run(job)
        own_setup = perf_counter() - START
        if args.setup_only:
            return {"setup_s": own_setup}

        tracer = spans.Tracer() if args.trace else None
        rounds = []
        began = perf_counter()
        while True:
            # in a traced run, round 0 is a warm round outside both
            # medians; then traced and plain rounds alternate
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            try:
                result = run_round(runner, job_list, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            rounds.append(result)
            if len(rounds) == 1:
                # one pass over the job list, as a user running it sees; later
                # rounds only add allocator noise to the peak
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = perf_counter() - began
            enough = len(rounds) >= (3 if tracer else 1)
            if enough and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break

        setups = [own_setup]
        if not args.trace:
            setups += [child_setup_s(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "jobs": [[job.cmd, " ".join(job.argv)] for job in job_list],
            "rounds": rounds,
            "setup_samples_s": setups,
            "peak_rss_mb": peak_rss_mb,
            "attempted": runner.attempted,
            "failures": runner.failures,
        }
        if tracer is not None:
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _job_medians(rounds, key):
    """Median over rounds of each job's value of `key`."""
    return [statistics.median(values) for values in zip(*(r[key] for r in rounds))]


def _cmd_s(report: dict, rounds: list[dict]) -> dict[str, float]:
    """`cmd_s.<cmd>`: summed wall time of each subcommand's jobs."""
    sums: dict[str, float] = {}
    for (cmd, _argv), wall in zip(report["jobs"], _job_medians(rounds, "wall_s")):
        sums[f"cmd_s.{cmd}"] = sums.get(f"cmd_s.{cmd}", 0.0) + wall
    return sums


def metrics(report: dict) -> dict[str, float]:
    """Times are sums over jobs of each job's median over rounds."""
    rounds = report["rounds"]
    if not report["trace"]:
        values = _cmd_s(report, rounds)
        values["setup_s"] = statistics.median(report["setup_samples_s"])
        values["wall_s"] = sum(_job_medians(rounds, "wall_s"))
        values["peak_rss_mb"] = report["peak_rss_mb"]
        return values
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds[1:] if not r["traced"]]
    totals: dict[str, float] = {}
    for per_job in zip(*(r["layers"] for r in traced)):
        for key in set().union(*per_job):
            totals[key] = totals.get(key, 0.0) + statistics.median(t.get(key, 0.0) for t in per_job)
    values = spans.layer_metrics(totals)
    values.update(_cmd_s(report, plain))
    values["trace.spans"] = sum(v for k, v in totals.items() if k.endswith(":calls"))
    values["cli.out_bytes"] = sum(_job_medians(traced, "out_bytes"))
    values["trace.wall_s"] = sum(_job_medians(traced, "wall_s"))
    values["trace.overhead_s"] = values["trace.wall_s"] - sum(_job_medians(plain, "wall_s"))
    return values


def _number(value: float, unit: str):
    """Counts and byte totals as integers, everything else as measured."""
    if unit in ("count", "B") and float(value).is_integer():
        return int(value)
    return value


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "boolres" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'boolres'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # one process, one thread: no BLAS worker threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy

    import boolres.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "boolres":
        print(f"error: imported boolres from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    report = measure(args, cli)
    if args.setup_only:
        print(json.dumps(report))
        return 0

    spec = load_spec()
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    declared = [e["name"] for e in spec["per_layer" if args.trace else "end_to_end"]]
    values = metrics(report)
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    failed = len(report["failures"])
    report["machine"] = machine_info(numpy)
    report["metrics"] = values
    suffix = "traced" if args.trace else "plain"
    with open(OUT_DIR / f"report-{args.workload}-seed{args.seed}-{suffix}.json", "w") as handle:
        json.dump(report, handle, indent=1)

    print(f"# machine {json.dumps(report['machine'])}")
    print(f"# workload {args.workload} seed {args.seed}: {len(report['rounds'])} rounds "
          f"of {len(report['jobs'])} jobs, {report['attempted']} jobs run with warm-up, "
          f"fail_rate {failed / report['attempted']:.4f}")
    for name, unit in units.items():
        if name in values:
            tag = "" if name in declared else "  (not in the result line)"
            print(f"# {name} = {_number(values[name], unit)!r} {unit}{tag}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {name: {"value": _number(values[name], units[name]), "unit": units[name]}
                    for name in declared},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
