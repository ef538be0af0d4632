"""Command-line front door: build zoo functions, run pipelines, emit
machine-readable certificates and sweep tables.

Function specs use a `name:key=value,...` micro-grammar (unknown keys are
hard errors), e.g. `tribes:w=3,s=4`, `cyclerun:n=9`, `parity:n=8,mask=0x7`,
`file:path=table.tt`.  Every JSON artifact embeds the invoking config and
the tool version.  Exit status: 0 success, 1 precondition failure,
2 internal invariant/certificate violation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .amplify import amplification_report
from .builder import audit_invariants, build_one_resilient
from .designs import greedy_design, orthogonal_family
from .duality import distance_to_resilience, duality_certificate, l1_poly_distance
from .hypercube import (
    BoundedFunction,
    CubeFunction,
    read_truth_table,
    spectral_stats,
    wht,
)
from .learner import LabeledDistribution, learn_exact, learn_sampled
from .witness import WitnessParams, build_witness
from .zoo import (
    constant,
    cyclerun,
    dictator,
    ft_sandwich_report,
    ft_stats,
    majority,
    parity,
    random_boolean,
    tribes,
)


class SpecError(ValueError):
    pass


def _parse_kv(body: str) -> dict[str, str]:
    if not body:
        return {}
    pairs = {}
    for chunk in body.split(","):
        if "=" not in chunk:
            raise SpecError(f"malformed key=value chunk {chunk!r}")
        key, value = chunk.split("=", 1)
        if key in pairs:
            raise SpecError(f"duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _take(pairs: dict[str, str], name: str, spec: str) -> str:
    if name not in pairs:
        raise SpecError(f"function spec {spec!r} is missing key {name!r}")
    return pairs.pop(name)


def _done(pairs: dict[str, str], spec: str) -> None:
    if pairs:
        raise SpecError(f"unknown keys {sorted(pairs)} in function spec {spec!r}")


def parse_function_spec(spec: str) -> CubeFunction:
    """Resolve a `name:key=value,...` spec to a concrete function."""
    name, _, body = spec.partition(":")
    pairs = _parse_kv(body)
    if name == "tribes":
        w = int(_take(pairs, "w", spec))
        s = int(_take(pairs, "s", spec))
        _done(pairs, spec)
        return tribes(w, s)
    if name == "cyclerun":
        n = int(_take(pairs, "n", spec))
        _done(pairs, spec)
        return cyclerun(n)
    if name == "majority":
        n = int(_take(pairs, "n", spec))
        _done(pairs, spec)
        return majority(n)
    if name == "parity":
        n = int(_take(pairs, "n", spec))
        mask = int(_take(pairs, "mask", spec), 0)
        _done(pairs, spec)
        return parity(mask, n)
    if name == "dictator":
        n = int(_take(pairs, "n", spec))
        i = int(_take(pairs, "i", spec))
        _done(pairs, spec)
        return dictator(i, n)
    if name == "constant":
        n = int(_take(pairs, "n", spec))
        sign = int(_take(pairs, "sign", spec))
        _done(pairs, spec)
        return constant(n, sign)
    if name == "random":
        n = int(_take(pairs, "n", spec))
        seed = int(_take(pairs, "seed", spec))
        balanced = bool(int(pairs.pop("balanced", "0")))
        _done(pairs, spec)
        return random_boolean(n, seed, balanced=balanced)
    if name == "file":
        path = _take(pairs, "path", spec)
        _done(pairs, spec)
        return read_truth_table(path)
    raise SpecError(f"unknown function name {name!r}")


def _emit(args, payload=None, csv_rows=None) -> None:
    if args.format == "csv":
        if csv_rows is None:
            raise SpecError("this subcommand has no CSV form")
        text = "\n".join(",".join(str(v) for v in row) for row in csv_rows) + "\n"
    else:
        payload = dict(payload or {})
        payload["config"] = {
            key: value for key, value in vars(args).items() if key != "func" and value is not None
        }
        payload["version"] = __version__
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_spectrum(args) -> None:
    fn = parse_function_spec(args.fn)
    spec = wht(fn)
    rows = [(hex(mask), repr(float(c))) for mask, c in enumerate(spec.coeffs)]
    _emit(args, {"n": fn.n, "coefficients": {m: float(c) for m, c in zip(
        (hex(i) for i in range(len(spec.coeffs))), spec.coeffs)}}, csv_rows=rows)


def _cmd_stats(args) -> None:
    fn = parse_function_spec(args.fn)
    stats = spectral_stats(fn, args.d)
    _emit(args, {
        "n": fn.n,
        "d": args.d,
        "low_weight": stats.low_weight,
        "total_influence": stats.total_influence,
        "per_coordinate_influence": list(stats.per_coordinate_influence),
    })


def _cmd_duality(args) -> None:
    fn = parse_function_spec(args.fn)
    cert = duality_certificate(fn, args.d)
    if cert.gap > args.tol:
        raise AssertionError(f"duality gap {cert.gap:.3e} exceeds tolerance {args.tol}")
    _emit(args, {
        "alpha": cert.alpha,
        "delta": cert.delta,
        "gap": cert.gap,
        "witness_table": [float(v) for v in cert.resilience.witness.table],
        "poly_coefficients": {hex(m): c for m, c in cert.l1.poly.coeffs.items()},
    })


def _cmd_resilience(args) -> None:
    fn = parse_function_spec(args.fn)
    res = distance_to_resilience(fn, args.d)
    _emit(args, {
        "alpha": res.alpha,
        "d": res.d,
        "lp_iterations": res.lp_iterations,
        "witness_table": [float(v) for v in res.witness.table],
    })


def _cmd_l1approx(args) -> None:
    fn = parse_function_spec(args.fn)
    out = l1_poly_distance(fn, args.d)
    _emit(args, {
        "delta": out.delta,
        "d": out.d,
        "lp_iterations": out.lp_iterations,
        "poly_coefficients": {hex(m): c for m, c in out.poly.coeffs.items()},
    })


def _cmd_witness(args) -> None:
    fn = parse_function_spec(args.fn)
    taus = [float(tok) for tok in str(args.tau).split(",")]
    sweep = []
    for tau in taus:
        report = build_witness(fn, WitnessParams(d=args.d, tau=tau))
        sweep.append({
            "tau": tau,
            "delta_emp": report.delta_emp,
            "corr_qf": report.corr_qf,
            "corr_pf": report.corr_pf,
            "low_part_sup": report.low_part_sup,
            "high_sup": report.high_sup,
            "degenerate": report.degenerate,
            "exact_zero_certified": report.exact_zero_certified,
            "p_table": [float(v) for v in report.p.table],
        })
    payload = {"d": args.d, "sweep": sweep} if len(sweep) > 1 else {"d": args.d, **sweep[0]}
    rows = [(entry["tau"], entry["corr_pf"], entry["delta_emp"]) for entry in sweep]
    _emit(args, payload, csv_rows=rows)


def _cmd_cyclerun_build(args) -> None:
    report = build_one_resilient(args.n, c1=args.c1)
    audit = audit_invariants(report)
    if not audit.ok:
        raise AssertionError(f"invariant audit failed at iteration {audit.failed_iteration}: {audit.detail}")
    payload = json.loads(report.to_json())
    payload["audit_ok"] = audit.ok
    payload["first_level_coefficients"] = [0] * report.n  # integer-certified zeros
    _emit(args, payload)


def _cmd_amplify(args) -> None:
    fn = parse_function_spec(args.fn)
    witness = distance_to_resilience(fn, args.d).witness
    report = amplification_report(
        fn, witness, k=args.k, samples=args.m, seed=args.seed
    )
    _emit(args, {
        "n": report.n,
        "k": report.k,
        "arity": report.arity,
        "dist_base": report.dist_base,
        "influence": report.influence,
        "cor2_bound": report.cor2_bound,
        "dist_measured": report.dist_measured,
        "exact": report.exact,
        "ci_width": report.ci_width,
        "ns_delta_exact": report.ns_delta_exact,
        "ns_union_bound": report.ns_union_bound,
    })


def _cmd_design(args) -> None:
    design = greedy_design(args.n, args.k, args.d)
    rows = [tuple(lst) for lst in design.index_lists()]
    _emit(args, {
        "n": design.n, "k": design.k, "d": design.d,
        "size": design.size,
        "sets": design.index_lists(),
    }, csv_rows=rows)


def _cmd_ortho_family(args) -> None:
    base = parse_function_spec(args.fn)
    design = greedy_design(args.n, base.n, args.d)
    report = orthogonal_family(base, design)
    _emit(args, {
        "design_size": design.size,
        "sets": design.index_lists(),
        "max_offdiagonal": report.max_offdiagonal,
        "diagonal_value": report.diagonal_value,
        "exact_integer_arithmetic": report.exact,
    })


def _cmd_learn(args) -> None:
    fn = parse_function_spec(args.fn)
    dist = LabeledDistribution(BoundedFunction(fn.n, fn.table.astype(np.float64)))
    if args.m is not None:
        if args.seed is None:
            raise SpecError("sampled learning requires --seed")
        report = learn_sampled(dist, d=args.d, m=args.m, seed=args.seed)
    else:
        report = learn_exact(dist, d=args.d, epsilon=args.epsilon)
    _emit(args, {
        "error": report.error,
        "regression_delta": report.regression_delta,
        "threshold": report.threshold,
        "empirical_error": report.empirical_error,
        "m": report.m,
        "seed": report.seed,
        "hypothesis_table": [int(v) for v in report.hypothesis.table],
        "poly_coefficients": {hex(m): c for m, c in report.poly.coeffs.items()},
    })


def _cmd_ft_stats(args) -> None:
    stats = ft_stats(args.t, args.n)
    payload = {
        "n": args.n,
        "t": args.t,
        "influence_sum": stats.influence_sum,
        "support_prob": stats.support_prob,
    }
    rows = None
    if args.t > 0:
        sandwich = {}
        rows = []
        for printed in (False, True):
            row = ft_sandwich_report(args.n, [args.t], printed=printed, factor=args.factor)[0]
            key = "printed_phi" if printed else "standard_phi"
            sandwich[key] = {
                "phi": row.phi,
                "influence_low": row.influence_low,
                "influence_high": row.influence_high,
                "influence_pass": row.influence_pass,
                "support_low": row.support_low,
                "support_high": row.support_high,
                "support_pass": row.support_pass,
            }
            rows.append((key, row.phi, row.influence_pass, row.support_pass))
        payload["sandwich"] = sandwich
    _emit(args, payload, csv_rows=rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolres",
        description="Resilience, L1 approximation and learning certificates "
        "for Boolean functions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **flags):
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(func=handler)
        return p

    add("spectrum", _cmd_spectrum, fn=dict(type=str, required=True))
    add("stats", _cmd_stats, fn=dict(type=str, required=True), d=dict(type=int, default=1))
    add("duality", _cmd_duality, fn=dict(type=str, required=True),
        d=dict(type=int, required=True), tol=dict(type=float, default=1e-6))
    add("resilience", _cmd_resilience, fn=dict(type=str, required=True),
        d=dict(type=int, required=True))
    add("l1approx", _cmd_l1approx, fn=dict(type=str, required=True),
        d=dict(type=int, required=True))
    add("witness", _cmd_witness, fn=dict(type=str, required=True),
        d=dict(type=int, required=True),
        tau=dict(type=str, required=True, help="threshold, or comma list for a sweep"))
    add("cyclerun-build", _cmd_cyclerun_build, n=dict(type=int, required=True),
        c1=dict(type=float, default=8.0))
    add("amplify", _cmd_amplify, fn=dict(type=str, required=True),
        d=dict(type=int, default=1), k=dict(type=int, default=1),
        m=dict(type=int, default=1_000_000), seed=dict(type=int, default=None))
    add("design", _cmd_design, n=dict(type=int, required=True),
        k=dict(type=int, required=True), d=dict(type=int, required=True))
    add("ortho-family", _cmd_ortho_family, fn=dict(type=str, required=True),
        n=dict(type=int, required=True), d=dict(type=int, required=True))
    add("learn", _cmd_learn, fn=dict(type=str, required=True),
        d=dict(type=int, required=True), epsilon=dict(type=float, default=0.01),
        m=dict(type=int, default=None), seed=dict(type=int, default=None))
    add("ft-stats", _cmd_ft_stats, n=dict(type=int, required=True),
        t=dict(type=float, required=True), factor=dict(type=float, default=4.0))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        json.dump({"error": "precondition", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except (RuntimeError, AssertionError) as exc:
        json.dump({"error": "invariant-violation", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
