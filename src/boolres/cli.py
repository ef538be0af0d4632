"""Command-line front door: build zoo functions, run pipelines, emit
machine-readable certificates and sweep tables.

Function specs use a `name:key=value,...` micro-grammar (unknown keys are
hard errors), e.g. `tribes:w=3,s=4`, `cyclerun:n=9`, `parity:n=8,mask=0x7`,
`file:path=table.tt`.  Every JSON artifact embeds the invoking config and
the tool version.  Artifacts are the text of `json.dumps(payload, indent=2)`
plus a newline; their bytes do not depend on how they are written.  Three
routes hand the C encoder whole tables and record lists (`_json_chunks`):
a 1-D table of few distinct entries encodes each distinct bit pattern
once, a list of flat dicts or flat lists is one call re-indented at its row
boundaries, and any other flat dict or list is one call.  A non-finite
float is not JSON, so an artifact holding one is an invariant violation and
is not written.  Exit status: 0 success, 1 precondition failure (usage
errors and requests too large for memory included), 2 internal
invariant/certificate violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import repeat

import numpy as np

from . import __version__
from .amplify import amplification_report
from .builder import audit_invariants, build_one_resilient
from .designs import greedy_design, orthogonal_family
from .duality import distance_to_resilience, l1_poly_distance
from .hypercube import (
    BooleanFunction,
    CubeFunction,
    read_truth_table,
    spectral_stats,
    wht,
)
from .learner import learn_exact, learn_sampled
from .witness import build_witness
from .zoo import (
    constant,
    cyclerun,
    dictator,
    ft_sandwich,
    ft_stats,
    majority,
    parity,
    random_boolean,
    tribes,
)


class SpecError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise SpecError and exit 1, not argparse's 2."""

    def error(self, message):
        raise SpecError(message)


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


def _bit(value: str) -> bool:
    bit = int(value)
    if bit not in (0, 1):
        raise SpecError("must be 0 or 1")
    return bool(bit)


# name -> (constructor, looked up per call; {keyword argument: value parser}; keys it defaults)
_SPECS = {
    "tribes": (lambda w, s: tribes(w, s), {"w": int, "s": int}, ()),
    "cyclerun": (lambda n: cyclerun(n), {"n": int}, ()),
    "majority": (lambda n: majority(n), {"n": int}, ()),
    "parity": (lambda n, mask: parity(mask, n),
               {"n": int, "mask": functools.partial(int, base=0)}, ()),
    "dictator": (lambda n, i: dictator(i, n), {"n": int, "i": int}, ()),
    "constant": (lambda n, sign: constant(n, sign), {"n": int, "sign": int}, ()),
    "random": (lambda n, seed, balanced=False: random_boolean(n, seed, balanced),
               {"n": int, "seed": int, "balanced": _bit}, ("balanced",)),
    "file": (lambda path: read_truth_table(path), {"path": str}, ()),
}


def parse_function_spec(spec: str) -> CubeFunction:
    """Resolve a `name:key=value,...` spec to a concrete function.  Errors
    come in order: malformed chunk, unknown name, missing key, unknown keys.
    """
    name, _, body = spec.partition(":")
    pairs = _parse_kv(body)
    if name not in _SPECS:
        raise SpecError(f"unknown function name {name!r}")
    make, keys, optional = _SPECS[name]
    for key in keys:
        if key not in pairs and key not in optional:
            raise SpecError(f"function spec {spec!r} is missing key {key!r}")
    if unknown := pairs.keys() - keys.keys():
        raise SpecError(f"unknown keys {sorted(unknown)} in function spec {spec!r}")
    kwargs = {}
    for key, value in pairs.items():
        try:
            kwargs[key] = keys[key](value)
        except SpecError as exc:
            raise SpecError(f"{key} {exc} in function spec {spec!r}") from None
    return make(**kwargs)


_CONTAINERS = (np.ndarray, dict, list, tuple)
_SAMPLE = 256  # entries of a table whose distinct count picks its route


def _table_text(table: np.ndarray, sep: str) -> str | None:
    """The entries' JSON texts joined by `sep`, each distinct bit pattern
    encoded once; None when the table is empty, not numeric, or Boolean
    (one encoder call writes `true`/`false` faster than the join), or when
    a strided sample of at most `_SAMPLE` entries is over a quarter distinct.
    A table of one bit pattern repeats its one text without `np.unique`.
    """
    if table.dtype.kind not in "iuf" or table.itemsize > 8 or not len(table):
        return None
    bits = table.view(f"u{table.itemsize}")
    sample = np.sort(bits[:: -(-len(bits) // _SAMPLE)])
    distinct = np.count_nonzero(sample[1:] != sample[:-1]) + 1
    if 4 * distinct > len(sample):
        return None
    if distinct == 1 and (bits == bits[0]).all():
        text = json.dumps(table[0].item(), allow_nan=False)
        return (text + sep) * (len(table) - 1) + text
    keys, index = np.unique(bits, return_inverse=True)
    # a literal newline occurs in JSON text only where a separator puts it
    texts = json.dumps(keys.view(table.dtype).tolist(), separators=("\n", ":"), allow_nan=False)
    return sep.join(np.array(texts[1:-1].split("\n"), dtype=object)[index].tolist())


def _records_text(records: np.ndarray, pad: str) -> str:
    """The text of a 1-D structured array of scalar fields as the list of
    its rows, each a dict keyed by field name: one encoder call per field,
    the columns interleaved row by row."""
    if not len(records):
        return "[]"
    inner, deeper = pad + "  ", pad + "    "
    names = records.dtype.names
    # a literal newline occurs in JSON text only where a separator puts it
    keys = json.dumps(names, separators=("\n", ":"))[1:-1].split("\n")
    step = 2 * len(names)
    parts = [""] * (step * len(records))
    for j, (name, key) in enumerate(zip(names, keys)):
        column = json.dumps(records[name].tolist(), separators=("\n", ":"), allow_nan=False)
        lead = f"\n{inner}}},\n{inner}{{\n{deeper}" if j == 0 else f",\n{deeper}"
        parts[2 * j::step] = [f"{lead}{key}: "] * len(records)
        parts[2 * j + 1::step] = column[1:-1].split("\n")
    parts[0] = f"[\n{inner}{{\n{deeper}{keys[0]}: "
    parts.append(f"\n{inner}}}\n{pad}]")
    return "".join(parts)


def _row_brackets(items) -> str | None:
    """"{}" when every item is a non-empty dict of scalars, "[]" when every
    item is a non-empty list or tuple of scalars, else None."""
    if all(isinstance(item, dict) and item for item in items):
        rows, brackets = (item.values() for item in items), "{}"
    elif all(isinstance(item, (list, tuple)) and item for item in items):
        rows, brackets = items, "[]"
    else:
        return None
    if any(any(map(isinstance, row, repeat(_CONTAINERS))) for row in rows):
        return None
    return brackets


def _json_chunks(value, pad: str, out: list[str]) -> None:
    """Append the text of `json.dumps(value, indent=2)`, continued at
    indentation `pad`, to `out`, with each numpy array written as the list
    `value.tolist()`, except that a 1-D structured array of scalar fields is
    written as the list of its rows, each a dict keyed by field name.

    Python's `json` drops to its pure-Python encoder whenever `indent` is
    set, so the C encoder writes, with the indented layout's separators
    spliced in, along one of four routes:

    * a 1-D structured array of scalar fields: each field's column in one
      call, the columns interleaved row by row (`_records_text`);
    * a 1-D int or float array whose strided sample is at most a quarter
      distinct: its distinct bit patterns (`np.unique` on an unsigned view,
      so -0.0 and 0.0 stay apart and a NaN is encoded) in one call, joined
      through the inverse index, or the one text of a table of one bit
      pattern repeated (`_table_text`);
    * a list of non-empty dicts of scalars, or of non-empty lists of
      scalars: the whole list in one call, re-indented at the row
      boundaries, the only places a bracket precedes a separator;
    * any other dict or list whose items are all scalars (a 1-D array's
      included): one call.

    Only the dicts and lists that hold a container are walked here, and
    the keys of those dicts are strings.  The pieces are left unjoined, so
    a table's text is copied once more only when it is written.  Every call
    passes `allow_nan=False`, so a non-finite float raises `ValueError`.
    """
    inner = pad + "  "
    flat = False
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.names and all(
            value.dtype[name].shape == () and value.dtype[name].names is None
            for name in value.dtype.names
        ):
            out.append(_records_text(value, pad))
            return
        if value.ndim == 1 and (text := _table_text(value, ",\n" + inner)) is not None:
            out += ("[\n", inner, text, "\n", pad, "]")
            return
        flat, value = value.ndim == 1 and not value.dtype.names, value.tolist()
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        out.append(json.dumps(value, allow_nan=False))
        return
    if flat or not any(map(isinstance, items, repeat(_CONTAINERS))):
        body = json.dumps(value, separators=(",\n" + inner, ": "), allow_nan=False)
        if not value:
            out.append(body)
        else:
            out += (body[0], "\n", inner, body[1:-1], "\n", pad, body[-1])
    elif isinstance(value, dict):
        sep = "{\n" + inner
        for key, item in value.items():
            out += (sep, json.dumps(key, allow_nan=False), ": ")
            _json_chunks(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif brackets := _row_brackets(value):
        deeper = inner + "  "
        body = json.dumps(value, separators=(",\n" + deeper, ": "), allow_nan=False)
        # a literal newline occurs only in a separator and no scalar's text
        # ends in a bracket, so each "},\n<deeper>{" joins two rows
        opened, closed = brackets
        body = body[2:-2].replace(
            f"{closed},\n{deeper}{opened}", f"\n{inner}{closed},\n{inner}{opened}\n{deeper}"
        )
        out += ("[\n", inner, opened, "\n", deeper, body, "\n", inner, closed, "\n", pad, "]")
    else:
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json_chunks(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")


def _emit(args, payload=None, csv_rows=None) -> None:
    if args.format == "csv":
        if csv_rows is None:
            raise SpecError("this subcommand has no CSV form")
        chunks = ["\n".join(",".join(str(v) for v in row) for row in csv_rows) + "\n"]
    else:
        payload = dict(payload or {})
        payload["config"] = {
            key: value for key, value in vars(args).items() if key != "func" and value is not None
        }
        payload["version"] = __version__
        chunks = []
        try:
            _json_chunks(payload, "", chunks)
        except ValueError as exc:  # a non-finite float: not JSON
            raise RuntimeError(f"artifact is not valid JSON: {exc}") from exc
        chunks.append("\n")
    if args.out:
        with open(args.out, "w") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _cmd_spectrum(args) -> None:
    fn = parse_function_spec(args.fn)
    coeffs = wht(fn).tolist()
    masks = [hex(mask) for mask in range(len(coeffs))]
    if args.format == "csv":
        _emit(args, csv_rows=[(mask, repr(c)) for mask, c in zip(masks, coeffs)])
    else:
        _emit(args, {"n": fn.n, "coefficients": dict(zip(masks, coeffs))})


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
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"duality gap tolerance must be finite and >= 0, got {args.tol}")
    fn = parse_function_spec(args.fn)
    cert = distance_to_resilience(fn, args.d)
    if cert.gap > args.tol:
        raise AssertionError(f"duality gap {cert.gap:.3e} exceeds tolerance {args.tol}")
    _emit(args, {
        "alpha": cert.alpha,
        "delta": cert.l1.delta,
        "gap": cert.gap,
        "witness_table": cert.witness.table,
        "poly_coefficients": {hex(m): c for m, c in cert.l1.poly.coeffs.items()},
    })


def _cmd_resilience(args) -> None:
    fn = parse_function_spec(args.fn)
    cert = distance_to_resilience(fn, args.d)
    _emit(args, {
        "alpha": cert.alpha,
        "d": cert.l1.poly.degree,
        "lp_iterations": cert.l1.lp_iterations,
        "witness_table": cert.witness.table,
    })


def _cmd_l1approx(args) -> None:
    fn = parse_function_spec(args.fn)
    out = l1_poly_distance(fn, args.d)
    _emit(args, {
        "delta": out.delta,
        "d": out.poly.degree,
        "lp_iterations": out.lp_iterations,
        "poly_coefficients": {hex(m): c for m, c in out.poly.coeffs.items()},
    })


def _cmd_witness(args) -> None:
    fn = parse_function_spec(args.fn)
    taus = []
    for tok in str(args.tau).split(","):
        try:
            taus.append(float(tok))
        except ValueError:
            raise SpecError(f"--tau: {tok!r} is not a number") from None
    sweep = []
    for tau in taus:
        report = build_witness(fn, args.d, tau)
        sweep.append({
            "tau": tau,
            "delta_emp": report.delta_emp,
            "corr_qf": report.corr_qf,
            "corr_pf": report.corr_pf,
            "low_part_sup": report.low_part_sup,
            "high_sup": report.high_sup,
            "degenerate": report.degenerate,
            "exact_zero_certified": report.exact_zero_certified,
            "p_table": report.p.table,
        })
    payload = {"d": args.d, "sweep": sweep} if len(sweep) > 1 else {"d": args.d, **sweep[0]}
    rows = [(entry["tau"], entry["corr_pf"], entry["delta_emp"]) for entry in sweep]
    _emit(args, payload, csv_rows=rows)


def _cmd_cyclerun_build(args) -> None:
    report = build_one_resilient(args.n, c1=args.c1)
    audit = audit_invariants(report)
    if not audit.ok:
        raise AssertionError(f"invariant audit failed at iteration {audit.failed_iteration}: {audit.detail}")
    # each record after its position
    recs = report.iterations
    fields = [(name, recs.dtype[name]) for name in recs.dtype.names]
    records = np.empty(len(recs), [("index", np.int64), *fields])
    records["index"] = np.arange(len(recs))
    for name, _ in fields:
        records[name] = recs[name]
    _emit(args, {
        "n": args.n,
        "c1": args.c1,
        "sigma_initial": report.sigma_initial,
        "sigma_final": report.sigma_final,
        "sbar_size": report.sbar_size,
        "sbar_prime_size": report.sbar_prime_size,
        "distance": report.distance,
        "budget_ratio": report.budget_ratio,
        "iterations": records,
        "audit_ok": audit.ok,
        "first_level_coefficients": list(report.first_level_sums),
    })


def _cmd_amplify(args) -> None:
    fn = parse_function_spec(args.fn)
    witness = distance_to_resilience(fn, args.d).witness
    report = amplification_report(fn, witness, k=args.k)
    _emit(args, {
        "n": fn.n,
        "k": args.k,
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
        "exact_integer_arithmetic": isinstance(base, BooleanFunction),
    })


def _cmd_learn(args) -> None:
    fn = parse_function_spec(args.fn)
    if args.m is not None:
        if args.seed is None:
            raise SpecError("sampled learning requires --seed")
        report = learn_sampled(fn, d=args.d, m=args.m, seed=args.seed)
    elif args.seed is not None:
        raise SpecError("--seed applies only to sampled learning, which needs --m")
    else:
        report = learn_exact(fn, d=args.d)
    _emit(args, {
        "error": report.error,
        "regression_delta": report.regression_delta,
        "threshold": report.threshold,
        "empirical_error": report.empirical_error,
        "m": args.m,
        "seed": args.seed,
        "hypothesis_table": report.hypothesis.table,
        "poly_coefficients": {hex(m): c for m, c in report.poly.coeffs.items()},
    })


def _cmd_ft_stats(args) -> None:
    if not math.isfinite(args.t):
        raise ValueError(f"threshold parameter t must be finite, got {args.t}")
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
            row = ft_sandwich(stats, args.factor, printed=printed)
            key = "printed_phi" if printed else "standard_phi"
            sandwich[key] = dict(vars(row))
            rows.append((key, row.phi, row.influence_pass, row.support_pass))
        payload["sandwich"] = sandwich
    elif args.format == "csv":
        raise SpecError("ft-stats writes CSV rows only for t > 0: at t = 0 there is no sandwich")
    _emit(args, payload, csv_rows=rows)


def build_parser() -> _Parser:
    parser = _Parser(
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
        # accepted and ignored: the distance is exact at every depth
        m=dict(type=int, default=None, help=argparse.SUPPRESS),
        seed=dict(type=int, default=None, help=argparse.SUPPRESS))
    add("design", _cmd_design, n=dict(type=int, required=True),
        k=dict(type=int, required=True), d=dict(type=int, required=True))
    add("ortho-family", _cmd_ortho_family, fn=dict(type=str, required=True),
        n=dict(type=int, required=True), d=dict(type=int, required=True))
    add("learn", _cmd_learn, fn=dict(type=str, required=True),
        d=dict(type=int, required=True),
        m=dict(type=int, default=None), seed=dict(type=int, default=None))
    add("ft-stats", _cmd_ft_stats, n=dict(type=int, required=True),
        t=dict(type=float, required=True), factor=dict(type=float, default=4.0))
    return parser


@functools.cache
def _parser() -> _Parser:
    # one parser per process: parse_args returns a fresh Namespace on every
    # call, and the handlers look up this module's globals when they run
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
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
