"""Command line front end: argument wiring, output formats, exit codes."""

import argparse
import contextlib
import io
import json
import sys
from argparse import Namespace

import pytest
from hypothesis import given, settings, strategies as st

from lndkit import InputError, LndError, Ring, cli
from lndkit.cli import run


def out(capsys):
    return capsys.readouterr().out.strip()


def err(capsys):
    return capsys.readouterr().err.strip()


def assert_one_error_line(text):
    assert "Traceback" not in text
    assert len([line for line in text.splitlines() if "error:" in line]) == 1


# -- eval ---------------------------------------------------------------------


def test_eval_canonical_form(capsys):
    assert run(["eval", "x + x"]) == 0
    assert out(capsys) == "2*x"


def test_eval_at_point(capsys):
    assert run(["eval", "2*x^3*t - s^2", "--at", "x=1,t=1,s=1"]) == 0
    assert out(capsys) == "1"
    assert run(["eval", "x + v", "--at", "v=1/2"]) == 0
    assert out(capsys) == "1/2"
    # spaces around a name are ignored, as around a value
    assert run(["eval", "x", "--at", "x = 1"]) == 0
    assert out(capsys) == "1"
    assert run(["eval", "x - 2*v", "--at", " x =1, v= 1/2"]) == 0
    assert out(capsys) == "0"


def long_decimal(n):
    """Decimal digits of a natural number, 100 at a time, so that no
    conversion meets the interpreter's int-to-str digit limit."""
    chunks = []
    while n:
        n, low = divmod(n, 10**100)
        chunks.append(f"{low:0100d}")
    return "".join(reversed(chunks)).lstrip("0") or "0"


def test_eval_prints_values_past_the_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert run(["eval", "x^40000", "--at", "x=3"]) == 0
    assert out(capsys) == long_decimal(3**40000)
    assert run(["eval", "x^9001*s", "--at", "x=-2/7,s=1", "--format", "json"]) == 0
    value = json.loads(out(capsys))["value"]
    assert value == f"-{long_decimal(2**9001)}/{long_decimal(7**9001)}"
    assert run(["eval", "(3*x)^9100 - 1"]) == 0
    assert out(capsys) == f"{long_decimal(3**9100)}*x^9100 - 1"
    # the limit is global to the interpreter and stays as it was
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_rationals_past_the_digit_limit_read_back(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    nines = "9" * 5000
    assert run(["eval", "x", "--at", f"x={nines}"]) == 0
    assert out(capsys) == nines
    assert run(["eval", "x*s", "--at", f"x=-{nines}/7,s=1", "--format", "json"]) == 0
    assert json.loads(out(capsys))["value"] == f"-{nines}/7"
    assert run(["act", "--parameter", nines, "--point", f"{nines},0,0,0,0"]) == 0
    assert out(capsys).startswith(f"{nines},")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_exponent_past_the_digit_limit_exits_2(capsys):
    assert run(["eval", "x^" + "9" * 5000]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "exceeds cap" in captured.err


def test_eval_json(capsys):
    assert run(["eval", "x + x", "--format", "json"]) == 0
    assert json.loads(out(capsys)) == {"result": "2*x"}


def test_eval_custom_ring(capsys):
    assert run(["eval", "a*b + a*b", "--ring", "a,b"]) == 0
    assert out(capsys) == "2*a*b"


def test_eval_rejects_bad_input(capsys):
    assert run(["eval", "2x"]) == 2
    assert err(capsys).startswith("error:")
    assert run(["eval", "q + 1"]) == 2
    assert err(capsys).startswith("error:")
    assert run(["eval", "x", "--at", "w=1"]) == 2
    assert err(capsys)
    assert run(["eval", "x", "--weights", "1"]) == 2
    assert err(capsys)


# -- derive / exp / act / invariant ---------------------------------------------


def test_derive(capsys):
    assert run(["derive", "s"]) == 0
    assert out(capsys) == "x^3"
    assert run(["derive", "u", "--times", "2"]) == 0
    assert out(capsys) == "s"
    assert run(["derive", "s", "--times", "2"]) == 0
    assert out(capsys) == "0"


def test_derive_builtin_variants(capsys):
    assert run(["derive", "u", "--derivation", "builtin:Delta"]) == 0
    assert out(capsys) == "t"
    assert run(["derive", "t", "--derivation", "builtin:DeltaPrime"]) == 0
    assert out(capsys) == "x*v"
    assert run(["derive", "x", "--derivation", "builtin:Q"]) == 2
    assert "unknown builtin" in err(capsys)


def test_exp_ascending(capsys):
    assert run(["exp", "u"]) == 0
    assert out(capsys) == "u + r*t + 1/2*r^2*s + 1/6*r^3*x^3"


def test_exp_parameter_name(capsys):
    assert run(["exp", "v", "--parameter", "w"]) == 0
    assert out(capsys) == "v + w*x^2"
    assert run(["exp", "v", "--parameter", "x"]) == 2


def test_act(capsys):
    assert run(["act", "--parameter", "1", "--point", "1,0,0,0,0"]) == 0
    assert out(capsys) == "1,1,1/2,1/6,1"
    assert run(["act", "--parameter", "-1", "--point", "1,1,1/2,1/6,1"]) == 0
    assert out(capsys) == "1,0,0,0,0"


def test_act_bad_point(capsys):
    assert run(["act", "--parameter", "1", "--point", "1,2"]) == 2


def test_invariant(capsys):
    assert run(["invariant", "2*x^3*t - s^2"]) == 0
    assert out(capsys) == "invariant"
    assert run(["invariant", "t"]) == 1
    assert out(capsys) == "not invariant: maps to s"


def test_invariant_json(capsys):
    assert run(["invariant", "t", "--format", "json"]) == 1
    payload = json.loads(out(capsys))
    assert payload == {"invariant": False, "image": "s"}


# -- groebner / relations / member ------------------------------------------------


def test_groebner(capsys):
    code = run(
        ["groebner", "--ring", "x,y,z", "--order", "lex", "y - x^2", "z - x^3"]
    )
    assert code == 0
    assert out(capsys).splitlines() == [
        "y^3 - z^2",
        "x*z - y^2",
        "x*y - z",
        "x^2 - y",
    ]


def test_groebner_bad_order(capsys):
    assert run(["groebner", "--ring", "x", "--order", "mystery", "x"]) == 2


def test_groebner_elimination_block_fits_the_ring(capsys):
    # the default ring has five variables
    assert run(["groebner", "--order", "elim:5", "x*v - s", "s^2"]) == 0
    assert out(capsys).splitlines() == ["s^2", "x*v - s"]


def test_relations(capsys):
    assert run(["relations", "--ring", "t", "t^2", "t^3", "--format", "json"]) == 0
    payload = json.loads(out(capsys))
    assert payload == {"tags": ["X1", "X2"], "generators": ["X1^3 - X2^2"]}


def test_relations_are_grlex_on_the_tags(capsys):
    assert run(["relations", "--ring", "t", "t^2", "t^3", "t^5"]) == 0
    assert out(capsys).splitlines() == [
        "X1*X2 - X3",
        "X1^2*X3 - X2^3",
        "X1^3 - X2^2",
        "X2^4 - X1*X3^2",
    ]


def test_member_subalgebra(capsys):
    base = ["member", "--ring", "x,y"]
    assert run(base + ["x^2 + y^2", "x + y", "x*y"]) == 0
    assert out(capsys) == "X1^2 - 2*X2"
    assert run(base + ["x - y", "x + y", "x*y"]) == 1
    assert out(capsys) == "not a member"
    # homogeneous under weights (1, 2)
    assert run(base + ["--weights", "1,2", "x^2 + y", "x", "y"]) == 0
    assert out(capsys) == "X1^2 + X2"


def test_member_ideal(capsys):
    base = ["member", "--ideal", "--ring", "x,y"]
    assert run(base + ["x^2 + x*y", "x"]) == 0
    assert out(capsys) == "member"
    assert run(base + ["y", "x"]) == 1
    assert out(capsys) == "not a member"


# -- kernel commands ----------------------------------------------------------------


def test_kernel_check_confirmed(capsys):
    code = run(
        ["kernel-check", "--derivation", "builtin:Delta", "s", "2*s*u - t^2", "v"]
    )
    assert code == 0
    assert out(capsys).splitlines()[0] == "status: confirmed"


def test_kernel_check_new_generators(capsys):
    code = run(
        [
            "kernel-check",
            "x",
            "2*x^3*t - s^2",
            "3*x^6*u - 3*x^3*s*t + s^3",
            "x*v - s",
        ]
    )
    assert code == 1
    lines = out(capsys).splitlines()
    assert lines[0] == "status: new-generators"
    assert "new: 2*x^2*t + x*v^2 - 2*s*v" in lines


def test_kernel_check_json_keys(capsys):
    assert run(["kernel-check", "--format", "json", "x", "x*v - s"]) == 1
    payload = json.loads(out(capsys))
    assert set(payload) == {"status", "new_generators"}


def test_kernel_check_numerators_outside_the_algebra(capsys):
    # the numerators of pi(t) and pi(u) are not in k[x, x*v - s]
    assert run(["kernel-check", "x", "x*v - s"]) == 1
    lines = out(capsys).splitlines()
    assert lines == [
        "status: new-generators",
        "new: 2*x^3*t - s^2",
        "new: 3*x^6*u - 3*x^3*s*t + s^3",
    ]


def test_kernel_check_non_invariant_candidate(capsys):
    assert run(["kernel-check", "x", "t"]) == 2
    assert err(capsys).startswith("error:")


def test_kernel_compute(capsys):
    code = run(
        [
            "kernel-compute",
            "--derivation",
            "builtin:DeltaPrime",
            "--rounds",
            "4",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(out(capsys))
    assert payload["stabilized"] is True
    assert payload["counts"] == [3, 4, 5, 5]
    assert payload["rounds"] == 3
    assert len(payload["generators"]) == 4


def test_kernel_compute_text(capsys):
    assert run(["kernel-compute", "--derivation", "builtin:Delta"]) == 0
    lines = out(capsys).splitlines()
    assert lines[0] == "round 1: 3 -> 3 (+0)"
    assert lines[1] == "stabilized: yes"
    assert len([line for line in lines if line.startswith("generator:")]) == 3


def test_kernel_compute_default_rounds(capsys):
    # builtin:D never stabilizes; the default budget is three rounds
    assert run(["kernel-compute"]) == 0
    lines = out(capsys).splitlines()
    assert lines[2] == "round 3: 13 -> 41 (+28)"
    assert lines[3] == "stabilized: no"


def test_kernel_compute_explicit_slice(capsys):
    code = run(
        ["kernel-compute", "--derivation", "builtin:Delta", "--loc", "s",
         "--slice-var", "t"]
    )
    assert code == 0
    assert run(["kernel-compute", "--slice-var", "t"]) == 2  # missing --loc


# -- paper ---------------------------------------------------------------------------


def test_paper_verify(capsys):
    assert run(["paper", "verify"]) == 0
    text = out(capsys)
    assert text.endswith("29/29 checks passed")


def test_paper_verify_json(capsys):
    assert run(["paper", "verify", "--format", "json"]) == 0
    payload = json.loads(out(capsys))
    assert payload["passed"] is True
    assert len(payload["checks"]) == 29


def test_paper_random(capsys):
    assert run(["paper", "random", "--seed", "3", "--samples", "4"]) == 0
    assert out(capsys).endswith("5/5 checks passed")
    assert run(["paper", "random", "--samples", "0"]) == 2


# -- derivation files and argparse plumbing ---------------------------------------


def _option_table(parser, command=""):
    """Each command's option strings, --help left out, by command path."""
    table = {command: sorted(
        o for a in parser._actions for o in a.option_strings
        if o not in ("-h", "--help")
    )}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(_option_table(sub, f"{command} {name}".strip()))
    return table


def test_option_surface():
    # a new option shows up here as a diff
    assert _option_table(cli.build_parser()) == {
        "": [],
        "eval": ["--at", "--format", "--ring", "--weights"],
        "derive": ["--derivation", "--format", "--times"],
        "exp": ["--derivation", "--format", "--parameter"],
        "act": ["--derivation", "--format", "--parameter", "--point"],
        "invariant": ["--derivation", "--format"],
        "groebner": ["--format", "--order", "--ring", "--weights"],
        "relations": ["--format", "--ring", "--weights"],
        "member": ["--format", "--ideal", "--ring", "--weights"],
        "kernel-check": ["--derivation", "--format", "--loc", "--slice-var"],
        "kernel-compute": [
            "--derivation", "--format", "--loc", "--rounds", "--slice-var",
        ],
        "paper": [],
        "paper verify": ["--format"],
        "paper random": ["--format", "--samples", "--seed"],
    }


_DERIVATION_COMMANDS = [
    ["derive", "u"],
    ["exp", "u"],
    ["act", "--parameter", "1", "--point", "1,0,0,0,0"],
    ["invariant", "x"],
    ["kernel-check", "--derivation", "builtin:Delta", "s", "2*s*u - t^2", "v"],
    ["kernel-compute", "--derivation", "builtin:Delta"],
]


@pytest.mark.parametrize(
    "option", [["--ring", "x,s,t,u,v"], ["--weights", "banana"]],
    ids=["ring", "weights"],
)
@pytest.mark.parametrize("argv", _DERIVATION_COMMANDS, ids=lambda argv: argv[0])
def test_derivation_commands_refuse_ring_options(argv, option, capsys):
    # the ring of a derivation command is the derivation's own
    assert run(argv + option) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert f"unrecognized arguments: {' '.join(option)}" in captured.err


def test_derivation_from_file(tmp_path, capsys):
    spec = {
        "ring": {"vars": ["a", "b"], "weights": [1, 1]},
        "derivation": {"a": "b"},
    }
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run(["derive", "a^2", "--derivation", str(path)]) == 0
    assert out(capsys) == "2*a*b"


def test_derivation_file_without_weights(tmp_path, capsys):
    spec = {"ring": {"vars": ["a", "b"]}, "derivation": {"b": "a"}}
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run(["derive", "b", "--derivation", str(path)]) == 0
    assert out(capsys) == "a"


def test_derivation_file_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["derive", "x", "--derivation", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["derive", "x", "--derivation", str(bad)]) == 2


def test_argparse_exit_codes(capsys):
    assert run([]) == 2
    capsys.readouterr()
    assert run(["--help"]) == 0
    assert "usage" in out(capsys).lower()
    assert run(["paper"]) == 2


# -- malformed input: exit 2 with one error line --------------------------------

KERNEL_CANDIDATES = ["x", "2*x^3*t - s^2", "x*v - s", "3*x^6*u - 3*x^3*s*t + s^3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["act", "--parameter", "1/0", "--point", "1,2,3,4,5"],
        ["act", "--parameter", "1", "--point", "1/0,2,3,4,5"],
        ["act", "--parameter", "one", "--point", "1,2,3,4,5"],
        ["eval", "x", "--at", "x=1/0"],
        ["eval", "x", "--at", "x=1/2/3"],
        ["eval", "x^2", "--ring", "x", "--at", "x=1,x=2"],
        ["eval", "x^2", "--ring", "x", "--at", "x"],
        ["groebner", "--order", "elim:", "x"],
        ["groebner", "--order", "elim:9", "x*v - s", "s^2"],
        ["kernel-check", "--division-bound", "-1", *KERNEL_CANDIDATES],
        ["kernel-compute", "--division-bound", "-1"],
        ["kernel-compute", "--division-bound", "many"],
        ["kernel-compute", "--division-bound", "16"],
        ["eval", "x", "--ring", "x", "--weights", "one"],
        ["eval", "(" * 250 + "x" + ")" * 250],
        ["eval", "(" * 5000 + "x" + ")" * 5000],
    ],
    ids=[
        "parameter-zero-denominator",
        "point-zero-denominator",
        "parameter-bad-literal",
        "at-zero-denominator",
        "at-bad-literal",
        "at-duplicate-variable",
        "at-missing-value",
        "order-elim-without-block",
        "order-elim-larger-than-ring",
        "kernel-check-negative-bound",
        "kernel-compute-negative-bound",
        "kernel-compute-bad-bound",
        "kernel-compute-refuses-division-bound",
        "weights-not-integers",
        "nesting-250-deep",
        "nesting-5000-deep",
    ],
)
def test_bad_arguments_exit_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "x", "--ring", "x", "--at", "x=1,x=2"], "'x' assigned twice"),
        (["eval", "x", "--ring", "x", "--at", "x"], "assignment 'x'"),
        (["groebner", "--order", "elim:", "x"], "unknown order 'elim:'"),
        (
            ["groebner", "--order", "elim:9", "x*v - s", "s^2"],
            "order elim:9 eliminates 9 variables but the ring has 5",
        ),
        (
            ["kernel-check", "--division-bound", "-1", *KERNEL_CANDIDATES],
            "unrecognized arguments: --division-bound",
        ),
        (["kernel-check", "--loc", "s", "x"], "localized variable s is not invariant"),
        (["kernel-compute", "--loc", "v"], "localized variable v is not invariant"),
        (["eval", "x^\u00b2"], "position 2"),
        (["eval", "x", "--ring", "x", "--weights", "\u0663"], "bad --weights list"),
        (["groebner", "--order", "elim:\u0663", "x"], "unknown order"),
    ],
    ids=[
        "at-duplicate-variable",
        "at-missing-value",
        "order-elim-without-block",
        "order-elim-larger-than-ring",
        "kernel-check-negative-bound",
        "kernel-check-loc-not-invariant",
        "kernel-compute-loc-not-invariant",
        "eval-non-ascii-exponent",
        "weights-non-ascii-digit",
        "order-elim-non-ascii-block",
    ],
)
def test_bad_argument_message_names_the_piece(argv, message, capsys):
    assert run(argv) == 2
    assert message in capsys.readouterr().err


def test_internal_key_error_propagates(monkeypatch):
    # no malformed input raises KeyError, so one from a handler is a
    # fault of the program, not an input error with exit 2
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_cmd_eval", broken)
    with pytest.raises(KeyError):
        run(["eval", "x"])


@pytest.mark.parametrize(
    "call",
    [
        lambda: cli._split_csv("a,,b"),
        lambda: cli._rational("1/0"),
        lambda: cli._ring_from(Namespace(ring=None, weights="1")),
        lambda: cli._ring_from(Namespace(ring="x", weights="one")),
        lambda: cli._derivation_from(Namespace(derivation="builtin:E")),
        lambda: cli._derivation_from_json({"ring": []}),
        lambda: cli._cmd_eval(
            Namespace(expr="x", ring="x", weights=None, at="y=1", format="text")
        ),
        lambda: cli._make_slice(Namespace(slice_var="s", loc=None), None),
    ],
    ids=[
        "list", "rational", "weights-without-ring", "weights", "builtin-name",
        "derivation-json", "at", "slice-var",
    ],
)
def test_input_errors_are_named(call):
    with pytest.raises(InputError) as info:
        call()
    assert isinstance(info.value, LndError) and isinstance(info.value, ValueError)


def test_ring_from_weights():
    args = Namespace(ring="x,y", weights="1,2")
    assert cli._ring_from(args) == Ring(("x", "y"), (1, 2))


def _run_with_derivation_file(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = run(["derive", "y", "--derivation", str(path)])
    return code, stderr.getvalue()


@pytest.mark.parametrize(
    "data, field",
    [
        ({"ring": {"vars": ["x", "y"]}, "derivation": ["a"]}, '"derivation"'),
        ({"ring": ["x"], "derivation": {}}, '"ring"'),
        ({"ring": {"vars": ["x", "y"]}, "derivation": {"y": 3}}, '"derivation"'),
        ({"a": 3}, '"ring"'),
        ({"ring": {"vars": "xy"}, "derivation": {}}, '"ring.vars"'),
        ({"ring": {"vars": ["x"], "weights": 1}, "derivation": {}}, '"ring.weights"'),
        ({"ring": {"vars": ["x"], "weights": [True]}, "derivation": {}}, "weights"),
        ([1], "top level"),
    ],
)
def test_malformed_derivation_json_names_the_field(tmp_path, data, field):
    code, stderr = _run_with_derivation_file(tmp_path / "d.json", data)
    assert code == 2
    assert_one_error_line(stderr)
    assert field in stderr


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _malformed_derivation(draw):
    """A valid derivation spec with one field replaced by a wrongly typed value."""
    slot = draw(
        st.sampled_from(
            ["top", "ring", "vars", "var", "weights", "derivation", "image"]
        )
    )
    data = {"ring": {"vars": ["x", "y"], "weights": [1, 2]}, "derivation": {"y": "x"}}
    if slot == "top":
        return draw(_json.filter(lambda v: not isinstance(v, dict)))
    if slot == "ring":
        data["ring"] = draw(_json.filter(lambda v: not isinstance(v, dict)))
    elif slot == "vars":
        data["ring"]["vars"] = draw(_json.filter(lambda v: not isinstance(v, list)))
    elif slot == "var":
        data["ring"]["vars"][0] = draw(_json.filter(lambda v: not isinstance(v, str)))
    elif slot == "weights":
        data["ring"]["weights"] = draw(
            _json.filter(lambda v: v is not None and not isinstance(v, list))
        )
    elif slot == "derivation":
        data["derivation"] = draw(_json.filter(lambda v: not isinstance(v, dict)))
    else:
        data["derivation"]["y"] = draw(_json.filter(lambda v: not isinstance(v, str)))
    return data


@given(_malformed_derivation())
def test_malformed_derivation_json_exits_2(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("spec") / "d.json"
    code, stderr = _run_with_derivation_file(path, data)
    assert code == 2
    assert_one_error_line(stderr)


# -- random argv ----------------------------------------------------------------

# kernel-compute takes no positional argument, so a draw runs its
# rounds (about 0.1 s for the default three on builtin:D) only when
# every token after it is a valid option, such as --rounds 2; almost
# every draw stops at argument parsing instead, and no value drawn
# asks for more than three rounds
_COMMANDS = [
    "eval", "derive", "exp", "act", "invariant", "groebner", "relations",
    "member", "kernel-check", "kernel-compute", "paper",
]
_FLAGS = [
    "--format", "--ring", "--weights", "--derivation", "--at", "--times",
    "--parameter", "--point", "--order", "--loc", "--slice-var",
    "--rounds", "--seed", "--samples",
]
_WORDS = ["verify", "random", "--ideal", "--help"]
_VALUES = [
    "json", "x", "s", "x*v - s", "s^2", "x,s,t,u,v", "1,3,3,3,2", "x=1",
    "1/2", "-1", "0", "2", "lex", "elim:1", "builtin:D", "builtin:Delta",
    "builtin:DeltaPrime",
    # malformed
    "x,,y", "x=1/0", "elim:", "(x", "x^", "x=", "", "builtin:Q",
    "/nonexistent.json",
]
_token = st.sampled_from(_COMMANDS + _FLAGS + _WORDS + _VALUES)
# half the draws lead with a subcommand and a value and pair flags with
# values, so that more of them get past argument parsing into the handlers
_piece = (
    st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES))
    | st.tuples(st.sampled_from(_WORDS + _VALUES))
)
_argv = st.lists(_token, max_size=6) | st.builds(
    lambda command, value, pieces: [
        command, value, *(t for piece in pieces for t in piece)
    ][:6],
    st.sampled_from(_COMMANDS),
    st.sampled_from(_WORDS + _VALUES),
    st.lists(_piece, max_size=3),
)


@settings(max_examples=200)
@given(_argv)
def test_random_argv_exits_cleanly(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
