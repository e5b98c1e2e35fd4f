import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import paperdata
from endoring import btt, cli, trace
from endoring.cli import main
from endoring.errors import ParseError
from endoring.lattice import Lattice4
from endoring.orders import discrd, standard_maximal_order, verify_order
from endoring.quat import QuaternionAlgebra
from endoring.serialize import (
    algebra_to_json,
    frac_from_str,
    lattice_to_json,
    order_from_json,
    order_to_json,
    problem_from_json,
)

ROOT = Path(__file__).resolve().parent.parent
PROBLEM = ROOT / "problems" / "p103_worked_example.json"
# SHA-256 of `endoring compute --input <PROBLEM> --deterministic` stdout
WORKED_CLI_SHA256 = "14018e70a28944bff8766a243d1aa5448c008c638b6c4bed42eac268b1c93033"
# the same output with the previous query form, which asked the distance stage
# about the four units of q^i O_q, elements of O_0 included, each Bass
# halving about the four basis elements of an order, and the path search
# about the four units of each candidate vertex's order (17 distance and 4
# path calls at q = 7, 8 Bass calls at q = 13, 29 in all) and read its
# words through the splitting map of the old route (paths [0] at 7 and [10]
# at 13, which are [3] and ["inf"] through the idempotent route's map)
PREVIOUS_FORM_CLI_SHA256 = "81df5024a77a753e1444fecc3637ee581131177e77421104de4d34f708cd9652"
# SHA-256 of each `explored_q*.dot` file that `compute --dot-dir` writes
EXPLORED_DOT_SHA256 = {
    "explored_q7.dot": "72c1931db964c4439431b7c560899eafb36a2ef4d1e90ba69b64f049a9b02384",
    "explored_q13.dot": "46016b4851f4752afdeffdb226f7cf3ddc27c908a63bda4ac8308758c6443647",
}


def run_cli(args):
    return main([str(a) for a in args])


def test_compute_worked_example(tmp_path, capsys):
    out = tmp_path / "result.json"
    trace = tmp_path / "trace.jsonl"
    dots = tmp_path / "dots"
    code = run_cli(
        ["compute", "--input", PROBLEM, "--output", out, "--trace", trace,
         "--dot-dir", dots, "--deterministic"]
    )
    assert code == 0
    result = json.loads(out.read_text())
    end = order_from_json(result["endomorphism_ring"])
    assert end.lattice == paperdata.endomorphism_ring().lattice
    assert result["total_oracle_calls"] > 0
    by_q = {s["q"]: s for s in result["local_solutions"]}
    assert by_q[7]["bass"] is False and by_q[7]["r"] == 1
    assert by_q[13]["bass"] is True
    assert len(by_q[7]["path"]) == 1
    assert trace.exists()
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert any(ev["type"] == "oracle" for ev in lines)
    assert any(ev["type"] == "step" for ev in lines)
    assert (dots / "explored_q7.dot").exists()


def test_explored_subtree_dot_files_are_pinned(tmp_path):
    """The worked example's `explored_q*.dot` files, byte for byte."""
    dots = tmp_path / "dots"
    assert run_cli(["compute", "--input", PROBLEM, "--output", tmp_path / "r.json",
                    "--dot-dir", dots]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in dots.iterdir()}
    assert digests == EXPLORED_DOT_SHA256


def test_dot_files_without_trace_format_no_question(tmp_path, monkeypatch):
    """`compute --dot-dir` without `--trace` reads only the explored
    subtrees, so no oracle question is formatted, and the `.dot` files are
    the pinned ones."""
    formatted = []
    rational_str = trace.rational_str

    def counting_rational_str(n, d):
        formatted.append((n, d))
        return rational_str(n, d)

    monkeypatch.setattr(trace, "rational_str", counting_rational_str)
    dots = tmp_path / "dots"
    assert run_cli(["compute", "--input", PROBLEM, "--output", tmp_path / "r.json", "--dot-dir", dots]) == 0
    assert formatted == []
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in dots.iterdir()}
    assert digests == EXPLORED_DOT_SHA256
    assert run_cli(["compute", "--input", PROBLEM, "--output", tmp_path / "r.json", "--trace", tmp_path / "t"]) == 0
    assert len(formatted) == 4 * 8


def test_failing_compute_writes_what_it_recorded(tmp_path, capsys, monkeypatch):
    """A `compute` that ends in a typed error still writes the trace and the
    explored subtrees recorded up to the error, with the usual exit code and
    one line on stderr.  Here the oracle flips its answer to the worked
    example's sixth question, the path search's confirmation at q = 7."""
    honest = tmp_path / "honest.jsonl"
    assert run_cli(["compute", "--input", PROBLEM, "--output", tmp_path / "r.json", "--trace", honest]) == 0
    capsys.readouterr()

    class FlippingOracle(cli.HiddenOrderOracle):
        def is_divisible(self, beta, n):
            answer = super().is_divisible(beta, n)
            return not answer if self.calls == 6 else answer

    monkeypatch.setattr(cli, "HiddenOrderOracle", FlippingOracle)
    trace, dots = tmp_path / "t.jsonl", tmp_path / "dots"
    assert run_cli(["compute", "--input", PROBLEM, "--trace", trace, "--dot-dir", dots, "--deterministic"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("inconsistency: ") and err.count("\n") == 1
    oracle_events = [ev for ev in map(json.loads, trace.read_text().splitlines()) if ev["type"] == "oracle"]
    want = [ev for ev in map(json.loads, honest.read_text().splitlines()) if ev["type"] == "oracle"][:6]
    want[-1]["answer"] = not want[-1]["answer"]
    assert oracle_events == want and want[-1]["stage"] == "path" and want[-1]["q"] == 7
    assert [f.name for f in dots.iterdir()] == ["explored_q7.dot"]


def test_compute_deterministic_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(["compute", "--input", PROBLEM, "--output", out1, "--deterministic"]) == 0
    assert run_cli(["compute", "--input", PROBLEM, "--output", out2, "--deterministic"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compute_deterministic_output_is_pinned(capsys):
    assert run_cli(["compute", "--input", PROBLEM, "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == WORKED_CLI_SHA256


def test_compute_traces_only_when_asked(tmp_path, capsys, monkeypatch):
    """`compute` builds a TraceLog only for --trace or --dot-dir (or the
    problem file's options); the stdout bytes are the same either way."""
    built = []

    class CountingLog(cli.TraceLog):
        def __init__(self):
            built.append(1)
            super().__init__()

    monkeypatch.setattr(cli, "TraceLog", CountingLog)
    outputs = []
    for extra in ([], ["--trace", tmp_path / "t.jsonl"], ["--dot-dir", tmp_path / "dots"]):
        built.clear()
        assert run_cli(["compute", "--input", PROBLEM, "--deterministic", *extra]) == 0
        outputs.append(capsys.readouterr().out)
        assert len(built) == (1 if extra else 0)
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == WORKED_CLI_SHA256
    assert outputs[1:] == outputs[:1] * 2


def test_compute_output_differs_from_previous_form_only_in_call_counts(capsys):
    """Apart from the call counts, the output differs from the previous
    form's only in the path words, which are relative to the splitting map:
    End(E), r and every local order are the same."""
    assert run_cli(["compute", "--input", PROBLEM, "--deterministic"]) == 0
    result = json.loads(capsys.readouterr().out)
    by_q = {s["q"]: s for s in result["local_solutions"]}
    assert by_q[7]["oracle_calls"] == {"distance": 2, "path": 4}
    assert by_q[13]["oracle_calls"]["bass"] == 2
    assert result["total_oracle_calls"] == 8
    assert (by_q[7]["path"], by_q[13]["path"]) == ([3], ["inf"])
    by_q[7]["path"], by_q[13]["path"] = [0], [10]
    by_q[7]["oracle_calls"] = {"distance": 17, "path": 4}
    by_q[13]["oracle_calls"]["bass"] = 8
    result["total_oracle_calls"] = 29
    text = json.dumps(result, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PREVIOUS_FORM_CLI_SHA256


def test_compute_help_lists_only_live_options(capsys):
    with pytest.raises(SystemExit):
        run_cli(["compute", "--help"])
    out = capsys.readouterr().out
    for flag in ("--input", "--output", "--trace", "--dot-dir", "--deterministic"):
        assert flag in out
    for flag in ("--oracle", "--precision-override", "--parallel-primes"):
        assert flag not in out


def test_compute_idempotent_on_own_output(tmp_path):
    out = tmp_path / "result.json"
    assert run_cli(["compute", "--input", PROBLEM, "--output", out, "--deterministic"]) == 0
    result = json.loads(out.read_text())
    problem = json.loads(PROBLEM.read_text())
    problem["order"] = result["endomorphism_ring"]
    problem["discriminant_factorization"] = [[103, 1]]
    p2 = tmp_path / "problem2.json"
    p2.write_text(json.dumps(problem))
    out2 = tmp_path / "result2.json"
    assert run_cli(["compute", "--input", p2, "--output", out2, "--deterministic"]) == 0
    result2 = json.loads(out2.read_text())
    assert result2["endomorphism_ring"]["basis"] == result["endomorphism_ring"]["basis"]
    assert result2["total_oracle_calls"] == 0


def test_corrupted_factorization_rejected(tmp_path, capsys):
    problem = json.loads(PROBLEM.read_text())
    problem["discriminant_factorization"] = [[7, 4], [13, 3], [103, 1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(problem))
    assert run_cli(["compute", "--input", bad]) == 2


@pytest.mark.parametrize(
    "factorization",
    [[[7, 2], [7, 3], [13, 3], [103, 1]], [[91, 3], [7, 2], [103, 1]], [[7, 10**9], [13, 3], [103, 1]]],
    ids=["repeated", "composite", "huge"],
)
def test_factorization_must_be_prime_and_distinct(factorization):
    """A factorization that multiplies to discrd(O_0) is still refused when
    an entry repeats or is not prime, and one with an exponent past the
    discriminant's bit length is refused without forming the power."""
    problem = json.loads(PROBLEM.read_text())
    problem["discriminant_factorization"] = factorization
    with pytest.raises(ParseError, match="not the prime factorization"):
        problem_from_json(problem)


def test_problem_with_a_large_prime_loads_fast():
    """O_0 = Z + q O at q = 2^61 - 1 (discrd = 103 q^3): loading checks the
    given factorization without factoring the discriminant."""
    q = 2**61 - 1
    alg = QuaternionAlgebra.for_prime(103)
    gens = [(1, 0, 0, 0)] + [tuple(q * x for x in b) for b in standard_maximal_order(alg).lattice.basis()]
    problem = {
        "algebra": algebra_to_json(alg),
        "order": order_to_json(verify_order(Lattice4.from_generators(gens), alg)),
        "discriminant_factorization": [[q, 3], [103, 1]],
    }
    t0 = time.perf_counter()
    order, fact, hidden, _ = problem_from_json(problem)
    assert time.perf_counter() - t0 < 1
    assert fact == [(q, 3), (103, 1)] and hidden is None
    assert discrd(order) == 103 * q**3


def test_compute_at_p_2_255_plus_95(capsys):
    """The problem file of a general-branch instance at p = 2^255 + 95 (O_0
    = Z + 101^2 Lambda, `planted.general_instance`, Random(1)) runs through
    `compute` with exit 0 and End(E) the oracle's order."""
    path = ROOT / "problems" / "p2_255_plus_95_general_q101.json"
    _, _, hidden, _ = problem_from_json(json.loads(path.read_text()))
    assert run_cli(["compute", "--input", path, "--deterministic"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert order_from_json(out["endomorphism_ring"]).lattice == hidden.lattice
    assert hidden.algebra.p == 2**255 + 95


def test_non_order_basis_rejected(tmp_path):
    problem = json.loads(PROBLEM.read_text())
    problem["order"]["basis"] = [["1", "0", "0", "0"], ["0", "1/2", "0", "0"],
                                 ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(problem))
    assert run_cli(["compute", "--input", bad]) == 2


@pytest.mark.parametrize("column", [None, 7, 1.5, True], ids=["null", "int", "float", "bool"])
@pytest.mark.parametrize("section", [("order",), ("oracle", "order")])
def test_non_list_basis_column_rejected(tmp_path, capsys, section, column):
    """A basis column that is not a list is a parse error: exit 2 and one
    `error:` line, no traceback."""
    problem = json.loads(PROBLEM.read_text())
    target = problem
    for key in section:
        target = target[key]
    target["basis"][1] = column
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(problem))
    assert run_cli(["compute", "--input", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("path", [("order", "basis", 1, 2), ("algebra", "a")], ids=["basis", "algebra"])
def test_exponent_notation_is_refused_before_any_power(tmp_path, capsys, path):
    """"1e999999999" as a basis entry of O_0 or as the algebra's a is a parse
    error: exit 2 and one `error:` line within a second, since the parser
    refuses exponent notation instead of forming the power."""
    problem = json.loads(PROBLEM.read_text())
    target = problem
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "1e999999999"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(problem))
    t0 = time.perf_counter()
    assert run_cli(["compute", "--input", bad]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad rational '1e999999999'" in err and err.count("\n") == 1


def test_unreadable_json_is_a_parse_error(tmp_path, capsys):
    """A JSON integer past Python's digit limit for int conversion, and a
    file that is not UTF-8, are parse errors: exit 2 and one `error:` line
    (each was an untyped ValueError, exit 1 with a traceback)."""
    text = PROBLEM.read_text()
    for i, data in enumerate([text.replace('"p": 103', '"p": ' + "1" * 5000, 1).encode(), b"\xff" + text.encode()]):
        bad = tmp_path / f"bad{i}.json"
        bad.write_bytes(data)
        assert run_cli(["compute", "--input", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON") and err.count("\n") == 1


@pytest.mark.parametrize(
    "value, want",
    [(7, 7), (-3, -3), (0.5, Fraction(1, 2)), (0.1, Fraction(1, 10)), ("12", 12), ("+12", 12), ("-49/2", Fraction(-49, 2))],
)
def test_rational_forms_accepted(value, want):
    """Ints, the floats JSON gives (read through their shortest decimal
    form) and signed strings "n" and "n/d" are rationals."""
    assert frac_from_str(value) == want


@pytest.mark.parametrize(
    "value", ["1e3", "3.5", " 3", "3 ", "1_000", "1/2/3", "/2", "\u0663", "", "1/0", "inf", float("nan"), None, [1], True]
)
def test_other_rational_forms_refused(value):
    """Exponent and decimal strings, whitespace, underscores, non-ASCII
    digits, a zero denominator, non-finite floats, booleans and non-scalars
    are parse errors."""
    with pytest.raises(ParseError, match="bad rational"):
        frac_from_str(value)


def write_with_oracle_lattice(tmp_path, lattice):
    problem = json.loads(PROBLEM.read_text())
    problem["oracle"]["order"]["basis"] = lattice_to_json(lattice)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    return path


def test_non_maximal_oracle_order_rejected(tmp_path, capsys):
    bad = write_with_oracle_lattice(tmp_path, paperdata.o0().lattice)
    assert run_cli(["compute", "--input", bad]) == 2
    assert "not maximal" in capsys.readouterr().err


def test_oracle_order_without_input_order_rejected(tmp_path, capsys):
    # x End(E) x^-1 with x = 1 + i is maximal but does not contain O_0
    end = paperdata.endomorphism_ring()
    x = end.algebra.element(1, 1)
    xinv = x.inverse()
    conj = Lattice4.from_generators([(x * b * xinv).coeffs for b in end.basis_elements()])
    bad = write_with_oracle_lattice(tmp_path, conj)
    assert run_cli(["compute", "--input", bad]) == 2
    assert "does not contain the input order" in capsys.readouterr().err


@pytest.mark.parametrize("section", [("order",), ("oracle",), ("oracle", "order")])
def test_non_object_section_rejected(tmp_path, section):
    problem = json.loads(PROBLEM.read_text())
    parent = problem
    for key in section[:-1]:
        parent = parent[key]
    parent[section[-1]] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(problem))
    assert run_cli(["compute", "--input", bad]) == 2


@pytest.mark.parametrize("key", ["trace", "dot_dir"])
def test_non_string_path_option_rejected(tmp_path, capsys, key):
    problem = json.loads(PROBLEM.read_text())
    problem["options"] = {key: 7}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(problem))
    out = tmp_path / "result.json"
    assert run_cli(["compute", "--input", bad, "--output", out]) == 2
    assert f"options.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--output", "--trace", "--dot-dir"])
def test_unwritable_path_is_bad_input(tmp_path, capsys, flag):
    """A result, trace or `.dot` path that cannot be written (a directory,
    or for --dot-dir a file) is bad input: exit 2 and one `error:` line."""
    taken = tmp_path / "taken"
    taken.write_text("")
    target = taken if flag == "--dot-dir" else tmp_path
    assert run_cli(["compute", "--input", PROBLEM, "--deterministic", flag, target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_btt_distance_and_d3(capsys):
    assert run_cli(["btt", "distance", "3", "0", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run_cli(["btt", "d3", "3", "0,0", "1", "inf"]) == 0
    assert capsys.readouterr().out.strip() == "8"


def test_btt_ball_and_dot(capsys):
    assert run_cli(["btt", "ball", "3", "--radius", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5 and "0,0,0" in out
    assert run_cli(["btt", "dot", "3", "--radius", "2"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("--") == 16  # 17 vertices, 16 tree edges
    assert dot.startswith("graph")


@pytest.mark.parametrize(
    "args, digest",
    [
        (["ball", "3", "--radius", "1"], "89f8778ade8581d3"),
        (["ball", "3", "--radius", "2"], "f07076645074fb37"),
        (["dot", "3", "--radius", "1"], "91916b76d03f37b3"),
        (["dot", "3", "--radius", "2"], "4bb3de12f3834267"),
    ],
    ids=["ball_r1", "ball_r2", "dot_r1", "dot_r2"],
)
def test_btt_small_balls_are_unchanged(args, digest, capsys):
    """The ball and dot outputs below the vertex bound, byte for byte."""
    assert run_cli(["btt", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "args",
    [
        ["ball", "3", "--radius", "20"],
        ["dot", "3", "--radius", "40"],
        ["ball", "2", "--radius", "16"],
        ["ball", "1000003", "--radius", "1"],
    ],
    ids=lambda args: "_".join(args),
)
def test_btt_ball_past_the_vertex_bound_is_refused(args, capsys):
    """A ball of more than `cli.MAX_BALL_VERTICES` vertices exits 2 with one
    error line before any vertex is formed: q = 3 at radius 20 has about
    7 * 10^9 vertices, q = 2 at radius 16 has 196606, and q = 1000003 at
    radius 1 has q + 2."""
    start = time.perf_counter()
    assert run_cli(["btt", *args]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"more than {cli.MAX_BALL_VERTICES} vertices" in captured.err


def test_ball_size_is_the_vertex_count():
    """`_ball_size` is the length of `btt.ball` up to the bound, and stops
    counting past it."""
    for q in (2, 3, 5):
        root = btt.vertex_of_path(btt.MatrixPath(q, ()))
        for radius in range(4):
            assert cli._ball_size(q, radius) == sum(1 for _ in btt.ball(root, radius))
    assert cli._ball_size(2, 15) == 98302 <= cli.MAX_BALL_VERTICES
    assert cli.MAX_BALL_VERTICES < cli._ball_size(2, 16) < 2 * cli.MAX_BALL_VERTICES
    assert cli._ball_size(3, 10**30) < 4 * cli.MAX_BALL_VERTICES


def test_divide_params_output(capsys):
    assert run_cli(["divide-params", "60", "2", "103"]) == 0
    out = capsys.readouterr().out
    assert "N = 15" in out and "N+a = 77" in out and "B = 11" in out
    assert run_cli(["divide-params", "112", "7", "103"]) == 0
    out = capsys.readouterr().out
    assert "precheck failed" in out


def run_module(args):
    """`python -m endoring.cli args` with this checkout's package, cut after
    30 seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "endoring.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=30)


def test_console_script_entrypoint():
    proc = run_module(["btt", "distance", "5", "-", "0"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize(
    "args",
    [
        ["btt", "distance", "4", "0", "1"],
        ["btt", "distance", "1", "0", "0"],
        ["btt", "ball", "0"],
        ["btt", "dot", "3", "0"],
        ["btt", "distance", "3", "0"],
        ["btt", "distance", "3", "0", "1", "2"],
        ["btt", "d3", "3"],
        ["btt", "ball", "3", "--radius", "-1"],
        ["divide-params", "0", "1", "103"],
        ["divide-params", "4", "0", "103"],
        ["divide-params", "4", "1", "4"],
    ],
    ids=lambda args: "_".join(args),
)
def test_bad_input_is_a_parse_error(args):
    """A q or p that is not prime, the wrong number of paths for a btt
    subcommand, a negative radius, and a degree or divisor below 1 exit 2
    with one error line and no traceback."""
    proc = run_module(args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "args, bad",
    [
        (["btt", "distance", "11", "٣", "3"], "path step '٣'"),
        (["btt", "distance", "11", "1_0", "3"], "path step '1_0'"),
        (["btt", "distance", "1_1", "0", "1"], "integer '1_1'"),
        (["btt", "dot", "٣"], "integer '٣'"),
        (["btt", "ball", "3", "--radius", "٢"], "integer '٢'"),
        (["btt", "ball", "3", "--radius", " 2"], "integer ' 2'"),
        (["divide-params", "6_0", "2", "103"], "integer '6_0'"),
        (["divide-params", "60", "２", "103"], "integer '２'"),
        (["divide-params", "60", "2", "1e3"], "integer '1e3'"),
        (["divide-params", "60", "2", "1" * 5000], "integer: 5000 digits"),
        (["btt", "distance", "3", "0", "1" * 5000], "path step: 5000 digits"),
    ],
    ids=["arabic_step", "underscore_step", "underscore_q", "arabic_q", "arabic_radius", "space_radius",
         "underscore_deg", "fullwidth_n", "exponent_p", "long_p", "long_step"],
)
def test_integer_arguments_are_ascii_decimals(args, bad, capsys):
    """Every integer argument of `btt` and `divide-params` (q, --radius, the
    path steps, deg_beta, n and p) is read as `serialize.frac_from_str`
    reads an integer, ASCII "[+-]n" only: a non-ASCII digit, an underscore,
    whitespace or an exponent exits 2 with one error line, where `int` read
    '٣' as 3 and '1_0' as 10, and so does a decimal past the interpreter's
    digit limit for `int`."""
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: bad {bad}\n"


def test_signed_ascii_integer_arguments_accepted(capsys):
    """Signs and leading zeros are ASCII decimals: the answers of the
    unsigned forms."""
    outputs = []
    for args in (
        ["btt", "distance", "+11", "+3", "-"],
        ["btt", "distance", "11", "3", "-"],
        ["divide-params", "060", "+2", "0103"],
        ["divide-params", "60", "2", "103"],
    ):
        assert run_cli(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == "1\n" and outputs[2] == outputs[3] != ""
