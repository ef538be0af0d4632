"""Seeded inputs and job lists for the three benchmark workloads.

Every workload is a closed loop of CLI jobs run one after another in one
process.  The workload seed picks the `random:` functions, the sampling
seeds of `learn --m` and `amplify`, and the noisy bounded targets, which are
written as truth-table files and passed as `file:path=`.

Each workload has a focus, the jobs its name promises.  The result line
carries every declared end-to-end and per-layer metric on every workload,
so each workload also runs one fixed, unseeded probe job of every
subcommand outside its focus.  The probes take a few tens of milliseconds
each, so the focus keeps its share of the time: `lp` is the majority of
`certify` and under 5% of `construct`.

Sizes stay far below 7 GiB of memory: `design` runs at ambient n <= 16,
`ortho-family` at n = 12, and no table is larger than 2^21 entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Job:
    cmd: str                 # metric key: the subcommand, or learn.exact / learn.sampled
    argv: tuple[str, ...]    # arguments for boolres.cli.main, without --out
    n: int                   # dimension of the function, for the output checks


def _job(cmd: str, n: int, *argv: str) -> Job:
    return Job(cmd, tuple(str(a) for a in argv), n)


def _resilience(fn, n, d):
    return _job("resilience", n, "resilience", "--fn", fn, "--d", d)


def _duality(fn, n, d):
    return _job("duality", n, "duality", "--fn", fn, "--d", d)


def _l1approx(fn, n, d):
    return _job("l1approx", n, "l1approx", "--fn", fn, "--d", d)


def _learn(fn, n, d, m=None, seed=None):
    if m is None:
        return _job("learn.exact", n, "learn", "--fn", fn, "--d", d)
    return _job("learn.sampled", n, "learn", "--fn", fn, "--d", d, "--m", m, "--seed", seed)


# one small, fixed job per subcommand, run on the workloads outside its focus
PROBES = {
    "resilience": _resilience("majority:n=9", 9, 1),
    "duality": _duality("majority:n=7", 7, 1),
    "l1approx": _l1approx("majority:n=7", 7, 1),
    "cyclerun-build": _job("cyclerun-build", 15, "cyclerun-build", "--n", 15),
    "stats": _job("stats", 15, "stats", "--fn", "cyclerun:n=15", "--d", 1),
    "witness": _job("witness", 12, "witness", "--fn", "tribes:w=3,s=4", "--d", 1, "--tau", 0.1),
    "amplify": _job("amplify", 3, "amplify", "--fn", "majority:n=3", "--d", 1, "--k", 2,
                    "--m", 100_000, "--seed", 1),
    "design": _job("design", 12, "design", "--n", 12, "--k", 4, "--d", 1),
    "learn.exact": _learn("majority:n=7", 7, 1),
    "learn.sampled": _learn("majority:n=9", 9, 1, m=300, seed=1),
}

# tiny jobs of every kind: the warm-up part of set-up
WARMUP = (
    _resilience("majority:n=5", 5, 1),
    _duality("majority:n=5", 5, 1),
    _l1approx("majority:n=5", 5, 1),
    _job("cyclerun-build", 7, "cyclerun-build", "--n", 7),
    _job("stats", 7, "stats", "--fn", "cyclerun:n=7", "--d", 1),
    _job("witness", 6, "witness", "--fn", "tribes:w=2,s=3", "--d", 1, "--tau", 0.1),
    _job("amplify", 3, "amplify", "--fn", "majority:n=3", "--d", 1, "--k", 2,
         "--m", 1000, "--seed", 1),
    _job("design", 8, "design", "--n", 8, "--k", 3, "--d", 1),
    _learn("dictator:n=4,i=1", 4, 1),
    _learn("dictator:n=4,i=1", 4, 1, m=50, seed=1),
)


def _write_noisy_target(path: Path, n: int, rng: random.Random) -> None:
    """A random +-1 function with label noise: g(x) = (1 - 2 eta_x) f(x).

    eta_x is drawn from [0.02, 0.25], so no entry is +-1 and the file reads
    back as a bounded (not Boolean) target.
    """
    values = []
    for _ in range(1 << n):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        values.append(sign * (1.0 - 2.0 * rng.uniform(0.02, 0.25)))
    path.write_text(f"n={n}\n" + " ".join(repr(v) for v in values) + "\n")


def _certify(rng: random.Random, workdir: Path) -> list[Job]:
    def rand(n):
        return f"random:n={n},seed={rng.randrange(1 << 31)}"

    # the L1 LP's pivot count varies most between random inputs, so its
    # heaviest instances use fixed functions
    return [
        _resilience(rand(12), 12, 1),
        _resilience(rand(11), 11, 1),
        _resilience(rand(11), 11, 1),
        _resilience(rand(9), 9, 2),
        _resilience(rand(9), 9, 2),
        _resilience("tribes:w=3,s=4", 12, 1),
        _resilience("majority:n=11", 11, 1),
        _duality("tribes:w=3,s=3", 9, 2),
        _duality(rand(10), 10, 1),
        _l1approx(rand(9), 9, 1),
        _l1approx(rand(9), 9, 1),
        _l1approx(rand(9), 9, 1),
        _l1approx(rand(9), 9, 1),
        _l1approx("tribes:w=3,s=3", 9, 1),
        _l1approx("majority:n=9", 9, 1),
    ]


def _construct(rng: random.Random, workdir: Path) -> list[Job]:
    return [
        _job("cyclerun-build", 19, "cyclerun-build", "--n", 19),
        _job("stats", 21, "stats", "--fn", "cyclerun:n=21", "--d", 1),
        _job("witness", 18, "witness", "--fn", "tribes:w=3,s=6", "--d", 1, "--tau", "0.05,0.1"),
        _job("witness", 12, "witness", "--fn", "tribes:w=3,s=4", "--d", 1,
             "--tau", "0.05,0.1,0.2,0.3"),
        _job("amplify", 5, "amplify", "--fn", "majority:n=5", "--d", 1, "--k", 2,
             "--m", 200_000, "--seed", rng.randrange(1 << 31)),
        _job("amplify", 3, "amplify", "--fn", "majority:n=3", "--d", 1, "--k", 3,
             "--m", 300_000, "--seed", rng.randrange(1 << 31)),
        _job("design", 16, "design", "--n", 16, "--k", 6, "--d", 2),
        _job("ortho-family", 12, "ortho-family", "--fn", "parity:n=3,mask=0x7",
             "--n", 12, "--d", 2),
    ]


def _learn_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    def rand(n):
        return f"random:n={n},seed={rng.randrange(1 << 31)}"

    def noisy(n):
        path = workdir / f"noisy{n}-{rng.randrange(1 << 31)}.tt"
        _write_noisy_target(path, n, rng)
        return f"file:path={path}"

    def seed():
        return rng.randrange(1 << 31)

    # the learner's LP work varies a lot between seeded targets and samples,
    # so the seeded part is many small instances whose sum is steady
    exact = [("majority:n=9", 9, 1), ("tribes:w=2,s=4", 8, 2), ("cyclerun:n=9", 9, 1)]
    exact += [(rand(9), 9, 1) for _ in range(3)] + [(rand(8), 8, 2) for _ in range(2)]
    exact += [(noisy(8), 8, 1) for _ in range(3)] + [(noisy(9), 9, 1) for _ in range(2)]
    sampled = [("majority:n=11", 11, 1, 500) for _ in range(2)]
    sampled += [(rand(12), 12, 1, 500) for _ in range(2)]
    sampled += [(rand(11), 11, 1, 600) for _ in range(2)]
    sampled += [(noisy(8), 8, 1, 600) for _ in range(2)]
    sampled += [(noisy(10), 10, 1, 300) for _ in range(2)]
    return [_learn(fn, n, d) for fn, n, d in exact] + [
        _learn(fn, n, d, m=m, seed=seed()) for fn, n, d, m in sampled
    ]


FOCUS = {"certify": _certify, "construct": _construct, "learn": _learn_jobs}


def workload_jobs(name: str, seed: int, workdir: Path) -> list[Job]:
    """The job list of one round: the seeded focus jobs, then the probes."""
    rng = random.Random(f"{name}:{seed}")
    jobs = FOCUS[name](rng, workdir)
    covered = {job.cmd for job in jobs}
    return jobs + [probe for cmd, probe in PROBES.items() if cmd not in covered]
