"""Command-line front end.

Subcommands: compute (full pipeline on a problem file), btt (tree
utilities), divide-params (division-test parameter planner).  Exit
codes: 0 success, 2 bad input (a parse error, or an output, trace or .dot
path that cannot be written), 3 mathematical inconsistency, 4 oracle
precondition violation.
"""

import argparse
import json
import sys

from . import btt
from .divide import HiddenOrderOracle, plan_division
from .errors import (
    EndoringError,
    MathematicalInconsistencyError,
    OraclePreconditionError,
    ParseError,
    PrecisionError,
)
from .ntheory import is_prime
from .pipeline import compute_endomorphism_ring
from .serialize import int_from_str, load_problem, result_to_json
from .trace import TraceLog


# the most vertices `btt ball` and `btt dot` list: `btt.ball` holds them all,
# at about 70 us each, so a ball within the bound prints in seconds
MAX_BALL_VERTICES = 10**5


def _ball_size(q: int, radius: int) -> int:
    """The number of vertices within radius of a vertex of the tree of
    PGL_2(Q_q), 1 + (q+1)(q^radius - 1)/(q - 1), counted sphere by sphere
    and no further than the first count past `MAX_BALL_VERTICES`."""
    total, sphere = 1, q + 1
    for _ in range(radius):
        total += sphere
        if total > MAX_BALL_VERTICES:
            break
        sphere *= q
    return total


def _parse_path(q: int, spec: str) -> btt.MatrixPath:
    spec = spec.strip()
    if spec in ("", "-", "root"):
        return btt.MatrixPath(q, ())
    steps = []
    for tok in spec.split(","):
        tok = tok.strip()
        steps.append(q if tok == "inf" else int_from_str(tok, "path step"))
    try:
        return btt.MatrixPath(q, tuple(steps))
    except Exception as exc:
        raise ParseError(f"bad path {spec!r}: {exc}") from None


def cmd_compute(args) -> int:
    order, fact, hidden, options = load_problem(args.input)
    if hidden is None:
        raise ParseError("compute requires an oracle section in the problem file")
    oracle = HiddenOrderOracle(hidden)
    trace_path = args.trace or options.get("trace")
    dot_dir = args.dot_dir or options.get("dot_dir")
    log = TraceLog() if trace_path or dot_dir else None
    try:
        end, sols, calls = compute_endomorphism_ring(order, fact, oracle, log)
    except EndoringError:
        # a failing run leaves what it recorded, so that it can be reproduced
        if log is not None:
            log.write(trace_path, dot_dir)
        raise
    result = result_to_json(end, sols, calls, deterministic=args.deterministic)
    text = json.dumps(result, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if log is not None:
        log.write(trace_path, dot_dir)
    return 0


def _require(ok: bool, message: str):
    """Raise ParseError with the message unless ok."""
    if not ok:
        raise ParseError(message)


def cmd_btt(args) -> int:
    q, n = args.q, len(args.paths)
    _require(is_prime(q), f"q = {q} is not prime")
    _require(args.subcommand != "distance" or n == 2, f"btt distance takes two paths, got {n}")
    _require(args.subcommand != "d3" or n >= 1, "btt d3 takes at least one path")
    _require(args.subcommand in ("distance", "d3") or n == 0, f"btt {args.subcommand} takes no path, only --center")
    _require(args.radius >= 0, f"--radius {args.radius} is negative")
    _require(
        args.subcommand not in ("ball", "dot") or _ball_size(q, args.radius) <= MAX_BALL_VERTICES,
        f"--radius {args.radius} at q = {q} gives a ball of more than {MAX_BALL_VERTICES} vertices",
    )
    if args.subcommand == "distance":
        v1 = btt.vertex_of_path(_parse_path(q, args.paths[0]))
        v2 = btt.vertex_of_path(_parse_path(q, args.paths[1]))
        print(btt.distance(v1, v2))
    elif args.subcommand == "d3":
        verts = [btt.vertex_of_path(_parse_path(q, s)) for s in args.paths]
        print(btt.d3(verts))
    elif args.subcommand == "ball":
        center = btt.vertex_of_path(_parse_path(q, args.center))
        for v in btt.ball(center, args.radius):
            print(f"{v.a},{v.b},{v.c}")
    else:
        center = btt.vertex_of_path(_parse_path(q, args.center))
        print(btt.dot_graph(btt.ball(center, args.radius), title=f"ball_q{q}_r{args.radius}"))
    return 0


def cmd_divide_params(args) -> int:
    _require(args.deg_beta > 0 and args.n > 0, "deg_beta and n must be positive")
    _require(is_prime(args.p), f"p = {args.p} is not prime")
    plan = plan_division(args.deg_beta, args.n, args.p)
    if plan is None:
        print(f"divisibility precheck failed: {args.n}^2 does not divide {args.deg_beta}")
        print("verdict: not divisible (no further work needed)")
        return 0
    print(f"N = {plan.N}")
    print(f"a = {plan.a}  (N+a = {plan.N + plan.a})")
    print(f"four_squares = {plan.four_squares}")
    print(f"B = {plan.B}")
    print(f"M = {plan.M}")
    print("alpha_matrix =")
    for row in plan.alpha_matrix:
        print("  " + " ".join(f"{x:6d}" for x in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="endoring")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="run the full endomorphism-ring pipeline")
    pc.add_argument("--input", required=True)
    pc.add_argument("--output")
    pc.add_argument("--trace")
    pc.add_argument("--dot-dir")
    pc.add_argument("--deterministic", action="store_true")
    pc.set_defaults(func=cmd_compute)

    pb = sub.add_parser("btt", help="Bruhat-Tits tree utilities")
    pb.add_argument("subcommand", choices=["distance", "d3", "ball", "dot"])
    pb.add_argument("q", type=int_from_str)
    pb.add_argument("--center", default="-")
    pb.add_argument("--radius", type=int_from_str, default=2)
    pb.add_argument("paths", nargs="*", help="comma-separated steps, 'inf' allowed, '-' for the root")
    pb.set_defaults(func=cmd_btt)

    pd = sub.add_parser("divide-params", help="division-test parameter plan")
    pd.add_argument("deg_beta", type=int_from_str)
    pd.add_argument("n", type=int_from_str)
    pd.add_argument("p", type=int_from_str)
    pd.set_defaults(func=cmd_divide_params)
    return ap


def main(argv=None) -> int:
    try:
        # an integer argument that is not ASCII "[+-]n" raises ParseError here
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MathematicalInconsistencyError, PrecisionError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3
    except OraclePreconditionError as exc:
        print(f"oracle precondition violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
