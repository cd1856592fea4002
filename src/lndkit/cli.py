"""Command line front end.

Subcommands mirror the library: eval/derive/exp/act/invariant for
polynomial and derivation arithmetic, groebner/relations/member for
ideal and subalgebra questions, kernel-check/kernel-compute for the
kernel machinery, and `paper verify` / `paper random` for the bundled
case's verification suites.

eval, groebner, relations and member work in the ring that --ring and
--weights define (the bundled five-variable ring by default).  The
derivation commands take no ring options: their ring is the one of
the --derivation they load.

Exit codes: 0 on success (and for passing verifications), 1 when a
verification or membership test comes back negative, 2 on usage,
parse, or input errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Sequence

from .casebook import builtin_context, random_suite, verify_paper
from .derivation import Derivation
from .errors import InputError, LndError
from .groebner import (
    MonomialOrder,
    buchberger,
    ideal_membership,
    relation_ideal,
    subalgebra_membership,
)
from .kernel import Slice, kernel_check, kernel_compute
from .parse import _integer, _rational_text, parse_polynomial, print_canonical
from .poly import Point, Ring


def _split_csv(text: str) -> list[str]:
    items = [piece.strip() for piece in text.split(",")]
    if any(not piece for piece in items):
        raise InputError(f"bad comma-separated list: {text!r}")
    return items


def _rational(text: str) -> Fraction:
    """A signed integer or fraction n/d, at any length."""
    match = re.fullmatch(r"\s*([+-]?)([0-9]+)(?:/([0-9]+))?\s*", text)
    denominator = _integer(match[3] or "1") if match else 0
    if not denominator:
        raise InputError(f"bad rational number: {text!r}")
    value = Fraction(_integer(match[2]), denominator)
    return -value if match[1] == "-" else value


def _ring_from(args) -> Ring:
    if args.ring is None:
        if args.weights is not None:
            raise InputError("--weights requires --ring")
        return builtin_context().ring
    names = tuple(_split_csv(args.ring))
    weights = None
    if args.weights is not None:
        pieces = _split_csv(args.weights)
        if not all(piece.isascii() and piece.isdecimal() for piece in pieces):
            raise InputError(f"bad --weights list: {args.weights!r}")
        weights = tuple(int(w) for w in pieces)
    return Ring(names, weights)


def _derivation_from(args) -> Derivation:
    spec = args.derivation
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        context = builtin_context()
        table = {
            "D": context.derivation,
            "Delta": context.quotient_derivation,
            "DeltaPrime": context.folded_derivation,
        }
        if name not in table:
            raise InputError(
                f"unknown builtin derivation {name!r}; "
                f"choose from {', '.join(table)}"
            )
        return table[name]
    with open(spec, encoding="utf-8") as handle:
        return _derivation_from_json(json.load(handle))


def _derivation_from_json(data) -> Derivation:
    if not isinstance(data, dict):
        raise InputError("derivation file: the top level must be an object")
    ring_data = data.get("ring")
    if not isinstance(ring_data, dict):
        raise InputError('derivation file: "ring" must be an object')
    names = ring_data.get("vars")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise InputError('derivation file: "ring.vars" must be a list of strings')
    weights = ring_data.get("weights")
    if weights is not None and not isinstance(weights, list):
        raise InputError('derivation file: "ring.weights" must be a list')
    table = data.get("derivation")
    if not isinstance(table, dict) or not all(
        isinstance(text, str) for text in table.values()
    ):
        raise InputError(
            'derivation file: "derivation" must be an object mapping '
            "variable names to polynomial strings"
        )
    ring = Ring(names, weights)
    images = {name: parse_polynomial(text, ring) for name, text in table.items()}
    return Derivation.from_mapping(ring, images)


def _parse_point(text: str, ring: Ring) -> Point:
    coords = [_rational(piece) for piece in _split_csv(text)]
    return Point(ring, tuple(coords))


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif text:
        print(text)


# -- command handlers -----------------------------------------------------


def _cmd_eval(args) -> int:
    ring = _ring_from(args)
    p = parse_polynomial(args.expr, ring)
    if args.at is not None:
        assignments: dict[str, str] = {}
        for piece in _split_csv(args.at):
            name, sep, value = piece.partition("=")
            name = name.strip()
            if not sep:
                raise InputError(f"bad --at assignment {piece!r}, expected name=value")
            if name in assignments:
                raise InputError(f"variable {name!r} assigned twice in --at")
            assignments[name] = value
        coords = [_rational(assignments.pop(name, "0")) for name in ring.variables]
        if assignments:
            raise InputError(f"unknown variables in --at: {sorted(assignments)}")
        value = _rational_text(p.evaluate(Point(ring, tuple(coords))))
        _emit(args, {"value": value}, value)
        return 0
    text = print_canonical(p)
    _emit(args, {"result": text}, text)
    return 0


def _cmd_derive(args) -> int:
    derivation = _derivation_from(args)
    p = parse_polynomial(args.expr, derivation.ring)
    image = derivation.apply_iter(p, args.times)
    text = print_canonical(image)
    _emit(args, {"result": text}, text)
    return 0


def _cmd_exp(args) -> int:
    derivation = _derivation_from(args)
    p = parse_polynomial(args.expr, derivation.ring)
    flow = derivation.exponential(args.parameter)
    text = print_canonical(flow(p), ascending=True)
    _emit(args, {"parameter": args.parameter, "result": text}, text)
    return 0


def _cmd_act(args) -> int:
    derivation = _derivation_from(args)
    point = _parse_point(args.point, derivation.ring)
    moved = derivation.orbit_point(_rational(args.parameter), point)
    coords = [_rational_text(c) for c in moved.coordinates]
    _emit(args, {"point": coords}, ",".join(coords))
    return 0


def _cmd_invariant(args) -> int:
    derivation = _derivation_from(args)
    p = parse_polynomial(args.expr, derivation.ring)
    image = derivation.apply(p)
    ok = image.is_zero()
    payload = {"invariant": ok, "image": print_canonical(image)}
    text = "invariant" if ok else f"not invariant: maps to {print_canonical(image)}"
    _emit(args, payload, text)
    return 0 if ok else 1


def _cmd_groebner(args) -> int:
    ring = _ring_from(args)
    order = MonomialOrder.from_name(args.order)
    gens = [parse_polynomial(text, ring) for text in args.exprs]
    basis = buchberger(gens, order)
    lines = [print_canonical(g) for g in basis]
    _emit(args, {"order": str(order), "basis": lines}, "\n".join(lines))
    return 0


def _cmd_relations(args) -> int:
    ring = _ring_from(args)
    elements = [parse_polynomial(text, ring) for text in args.exprs]
    rel = relation_ideal(elements)
    lines = [print_canonical(g) for g in rel.generators]
    _emit(
        args,
        {"tags": list(rel.tag_ring.variables), "generators": lines},
        "\n".join(lines),
    )
    return 0


def _cmd_member(args) -> int:
    ring = _ring_from(args)
    target = parse_polynomial(args.target, ring)
    elements = [parse_polynomial(text, ring) for text in args.exprs]
    if args.ideal:
        ok = ideal_membership(target, elements)
        _emit(args, {"member": ok}, "member" if ok else "not a member")
        return 0 if ok else 1
    representation = subalgebra_membership(target, elements)
    ok = representation is not None
    payload = {
        "member": ok,
        "representation": print_canonical(representation) if ok else None,
    }
    text = print_canonical(representation) if ok else "not a member"
    _emit(args, payload, text)
    return 0 if ok else 1


def _make_slice(args, derivation: Derivation) -> Slice:
    if args.slice_var is not None:
        if args.loc is None:
            raise InputError("--slice-var requires --loc")
        return Slice(derivation, args.slice_var, args.loc)
    return Slice.infer(derivation, args.loc)


def _cmd_kernel_check(args) -> int:
    derivation = _derivation_from(args)
    slc = _make_slice(args, derivation)
    candidates = [parse_polynomial(text, derivation.ring) for text in args.exprs]
    outcome = kernel_check(candidates, slc)
    new = [print_canonical(g) for g in outcome.new_elements]
    lines = [f"status: {outcome.status.value}"]
    lines.extend(f"new: {text}" for text in new)
    payload = {"status": outcome.status.value, "new_generators": new}
    _emit(args, payload, "\n".join(lines))
    return 0 if outcome.confirmed else 1


def _cmd_kernel_compute(args) -> int:
    derivation = _derivation_from(args)
    slc = _make_slice(args, derivation)
    result = kernel_compute(derivation, slc, args.max_rounds)
    lines = []
    for i, added in enumerate(result.new_per_round):
        lines.append(
            f"round {i + 1}: {result.counts[i]} -> {result.counts[i + 1]} "
            f"(+{len(added)})"
        )
    lines.append(f"stabilized: {'yes' if result.stabilized else 'no'}")
    gens = [print_canonical(g) for g in result.generators]
    lines.extend(f"generator: {text}" for text in gens)
    payload = {
        "stabilized": result.stabilized,
        "rounds": result.rounds,
        "counts": list(result.counts),
        "generators": gens,
    }
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_paper_verify(args) -> int:
    report = verify_paper()
    _emit(args, report.to_json_obj(), report.render_text())
    return 0 if report.passed else 1


def _cmd_paper_random(args) -> int:
    report = random_suite(args.seed, args.samples)
    _emit(args, report.to_json_obj(), report.render_text())
    return 0 if report.passed else 1


# -- parser wiring ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lndkit",
        description="Exact arithmetic for locally nilpotent derivations: "
        "flows, invariants, Groebner bases, and kernel computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )

    ring_opts = argparse.ArgumentParser(add_help=False)
    ring_opts.add_argument(
        "--ring", help="comma-separated variable names (default: the bundled "
        "five-variable ring)",
    )
    ring_opts.add_argument(
        "--weights", help="comma-separated positive integer weights, one per "
        "variable (requires --ring)",
    )

    deriv_opts = argparse.ArgumentParser(add_help=False)
    deriv_opts.add_argument(
        "--derivation", default="builtin:D",
        help="builtin:D, builtin:Delta, builtin:DeltaPrime, or a path to a "
        "JSON derivation file (default: builtin:D)",
    )

    p = sub.add_parser(
        "eval", parents=[fmt, ring_opts],
        help="parse a polynomial and print its canonical form or value",
    )
    p.add_argument("expr")
    p.add_argument(
        "--at", help="evaluate at a point, e.g. x=1,s=1/2 (omitted variables "
        "are 0)",
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "derive", parents=[fmt, deriv_opts],
        help="apply a derivation to a polynomial",
    )
    p.add_argument("expr")
    p.add_argument("--times", type=int, default=1, help="iterations (default 1)")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser(
        "exp", parents=[fmt, deriv_opts],
        help="apply the exponential flow, printing terms by ascending degree",
    )
    p.add_argument("expr")
    p.add_argument(
        "--parameter", default="r", help="name of the flow parameter (default r)",
    )
    p.set_defaults(func=_cmd_exp)

    p = sub.add_parser(
        "act", parents=[fmt, deriv_opts],
        help="move a rational point along the flow",
    )
    p.add_argument("--parameter", required=True, help="flow time, a rational")
    p.add_argument(
        "--point", required=True,
        help="comma-separated rational coordinates in ring order",
    )
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser(
        "invariant", parents=[fmt, deriv_opts],
        help="test whether a polynomial is killed by the derivation "
        "(exit 1 if not)",
    )
    p.add_argument("expr")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser(
        "groebner", parents=[fmt, ring_opts],
        help="reduced monic Groebner basis of the ideal the arguments span",
    )
    p.add_argument(
        "--order", default="grevlex",
        help="lex, grlex, grevlex, or elim:K (default grevlex)",
    )
    p.add_argument("exprs", nargs="+")
    p.set_defaults(func=_cmd_groebner)

    p = sub.add_parser(
        "relations", parents=[fmt, ring_opts],
        help="generators of the ideal of algebraic relations among the "
        "arguments, over tag variables X1..Xm",
    )
    p.add_argument("exprs", nargs="+")
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser(
        "member", parents=[fmt, ring_opts],
        help="test membership of TARGET in the subalgebra (default) or ideal "
        "generated by the remaining arguments (exit 1 if outside)",
    )
    p.add_argument("target")
    p.add_argument("exprs", nargs="+")
    p.add_argument(
        "--ideal", action="store_true",
        help="test ideal membership instead of subalgebra membership",
    )
    p.set_defaults(func=_cmd_member)

    slice_opts = argparse.ArgumentParser(add_help=False)
    slice_opts.add_argument(
        "--loc", help="invariant variable to invert (default: inferred)",
    )
    slice_opts.add_argument(
        "--slice-var", help="variable whose image is a monomial in the "
        "localized variable (default: inferred)",
    )

    p = sub.add_parser(
        "kernel-check", parents=[fmt, deriv_opts, slice_opts],
        help="one reduce-and-divide round over the candidate kernel "
        "generators (exit 0 only when they provably generate the kernel)",
    )
    p.add_argument("exprs", nargs="+", help="candidate kernel generators")
    p.set_defaults(func=_cmd_kernel_check)

    p = sub.add_parser(
        "kernel-compute", parents=[fmt, deriv_opts, slice_opts],
        help="iterate kernel rounds from the localized seed generators",
    )
    p.add_argument(
        "--rounds", dest="max_rounds", type=int, default=3,
        help="round budget (default 3)",
    )
    p.set_defaults(func=_cmd_kernel_compute)

    p = sub.add_parser(
        "paper", help="verification suites for the bundled case",
    )
    paper_sub = p.add_subparsers(dest="paper_command", required=True)

    q = paper_sub.add_parser(
        "verify", parents=[fmt],
        help="re-derive every bundled identity (exit 0 only if all pass)",
    )
    q.set_defaults(func=_cmd_paper_verify)

    q = paper_sub.add_parser(
        "random", parents=[fmt],
        help="seeded random separation checks (exit 0 only if all pass)",
    )
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--samples", type=int, default=20)
    q.set_defaults(func=_cmd_paper_random)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (LndError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        import signal

        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    except (ImportError, AttributeError, ValueError):
        pass
    sys.exit(run())


if __name__ == "__main__":
    main()
