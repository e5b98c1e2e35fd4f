"""JSON encoding of algebras, orders, problems, and results.

Rationals travel as "num/den" strings (plain "num" accepted and emitted
for integers) so nothing depends on float precision.  Ring structure is
always re-verified on load; multiplication tables are never trusted.
"""

import json
import re
from fractions import Fraction
from math import gcd

from .errors import EndoringError, MathematicalInconsistencyError, ParseError
from .lattice import Lattice4
from .orders import Order, check_factorization, discrd, verify_order
from .quat import QuaternionAlgebra


def rational_str(n: int, d: int) -> str:
    """n/d for d > 0 as str(Fraction(n, d)) prints it: "n" or "n/d" in
    lowest terms."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


_INTEGER = r"[+-]?[0-9]+"


def int_from_str(s: str, what: str = "integer") -> int:
    """A signed ASCII decimal "n" as an int; any other string (non-ASCII
    digits, underscores and whitespace, which `int` reads, included) is a
    ParseError naming it as `what`."""
    if not re.fullmatch(_INTEGER, s):
        raise ParseError(f"bad {what} {s!r}")
    try:
        return int(s)
    except ValueError:  # past the interpreter's digit limit for str -> int
        raise ParseError(f"bad {what}: {len(s)} digits") from None


def frac_from_str(s) -> Fraction:
    """An int, a float or a signed ASCII "n" or "n/d" as a Fraction; any other
    string, exponent notation included (Fraction forms its power), is refused."""
    if not isinstance(s, (int, float)) and not (isinstance(s, str) and re.fullmatch(_INTEGER + "(/[0-9]+)?", s)):
        raise ParseError(f"bad rational {s!r}")
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from None


def algebra_to_json(alg: QuaternionAlgebra) -> dict:
    a, b = alg.a, alg.b
    return {"a": rational_str(a.numerator, a.denominator), "b": rational_str(b.numerator, b.denominator), "p": alg.p}


def algebra_from_json(data) -> QuaternionAlgebra:
    try:
        a, b, p = data["a"], data["b"], data["p"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"algebra object missing field: {exc}") from None
    if not isinstance(p, int):
        raise ParseError("characteristic p must be an integer")
    try:
        return QuaternionAlgebra.create(frac_from_str(a), frac_from_str(b), p)
    except EndoringError as exc:
        raise ParseError(f"invalid algebra: {exc}") from None


def lattice_to_json(lat: Lattice4) -> list:
    return [[rational_str(x, lat.den) for x in col] for col in lat.cols]


def lattice_from_json(data) -> Lattice4:
    if not isinstance(data, list) or len(data) < 4:
        raise ParseError("lattice needs at least four basis columns")
    if not all(isinstance(col, list) for col in data):
        raise ParseError("basis columns must be lists")
    cols = [[frac_from_str(x) for x in col] for col in data]
    if any(len(c) != 4 for c in cols):
        raise ParseError("basis vectors must have four coordinates")
    try:
        return Lattice4.from_generators(cols)
    except EndoringError as exc:
        raise ParseError(f"invalid lattice: {exc}") from None


def order_to_json(order: Order, label=None) -> dict:
    out = {"algebra": algebra_to_json(order.algebra), "basis": lattice_to_json(order.lattice)}
    if label:
        out["label"] = label
    return out


def order_from_json(data, alg=None) -> Order:
    if not isinstance(data, dict):
        raise ParseError("order must be an object")
    if alg is None:
        alg = algebra_from_json(data.get("algebra", {}))
    lat = lattice_from_json(data.get("basis"))
    try:
        return verify_order(lat, alg)
    except EndoringError as exc:
        raise ParseError(f"basis does not span an order: {exc}") from None


def problem_from_json(data):
    """Parse and validate a problem file.

    Returns (order, factorization, oracle_order, options).
    """
    if not isinstance(data, dict):
        raise ParseError("problem file must be a JSON object")
    alg = algebra_from_json(data.get("algebra", {}))
    order = order_from_json(data.get("order", {}), alg)
    fact_raw = data.get("discriminant_factorization")
    if not isinstance(fact_raw, list) or not fact_raw:
        raise ParseError("missing discriminant_factorization")
    try:
        fact = check_factorization(order, fact_raw)
    except MathematicalInconsistencyError as exc:
        raise ParseError(f"factorization is not the prime factorization: {exc}") from None
    oracle_spec = data.get("oracle")
    hidden = None
    if oracle_spec is not None:
        if not isinstance(oracle_spec, dict):
            raise ParseError("oracle must be an object")
        if oracle_spec.get("kind") != "hidden-order":
            raise ParseError(f"unknown oracle kind {oracle_spec.get('kind')!r}")
        hidden = order_from_json(oracle_spec.get("order", {}), alg)
        if discrd(hidden) != alg.p:
            raise ParseError(
                f"oracle order is not maximal: discrd = {discrd(hidden)}, expected {alg.p}"
            )
        if not hidden.lattice.contains_lattice(order.lattice):
            raise ParseError("oracle order does not contain the input order")
    options = data.get("options", {}) or {}
    if not isinstance(options, dict):
        raise ParseError("options must be an object")
    for key in ("trace", "dot_dir"):
        if options.get(key) is not None and not isinstance(options[key], str):
            raise ParseError(f"options.{key} must be a path string")
    return order, fact, hidden, options


def load_problem(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad JSON, bad UTF-8, an int past Python's digit limit
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    return problem_from_json(data)


def result_to_json(end: Order, sols, total_calls, deterministic=True) -> dict:
    out = {
        "endomorphism_ring": order_to_json(end, label="End(E)"),
        "local_solutions": [
            {
                "q": s.q,
                "e": s.e,
                "bass": s.bass,
                "r": s.r,
                "path": [("inf" if step == s.q else step) for step in s.gamma.steps],
                "oracle_calls": s.oracle_calls,
                "order": order_to_json(s.order),
                "enlargement": order_to_json(s.enlargement),
            }
            for s in sols
        ],
        "total_oracle_calls": total_calls,
    }
    if not deterministic:
        import datetime

        out["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return out
