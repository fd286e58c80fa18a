"""Command-line front end: verify, eval, represent, identities, list."""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, identities, quadform
from .context import context_for
from .errors import SupercongError, UnknownStatement
from .registry import REGISTRY, STATUSES, Parametric, mod_text, statement_modexp
from .statements import run_range, select_ids


def _parse_primes(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"bad prime range {text!r}; expected A..B") from None
    return lo, hi


def _int_at_least(low: int):
    """An argparse type: an int >= ``low``, else a usage error naming the flag."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _ids(text: str) -> list[str]:
    """An argparse type: the ids and patterns of a comma-separated list,
    else a usage error when it names none (``""`` or ``,``)."""
    ids = [s for s in text.split(",") if s]
    if not ids:
        raise argparse.ArgumentTypeError(f"names no statement id: {text!r}")
    return ids


def _statuses_for(token: str) -> set[str] | None:
    if token == "all":
        return None
    if token == "default":
        return {s for s in STATUSES if s != "conjecture"}
    return {token}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args: argparse.Namespace) -> int:
    p_lo, p_hi = _parse_primes(args.primes)
    report = run_range(
        p_lo,
        p_hi,
        ids=args.ids,
        statuses=_statuses_for(args.status),
        seed=args.seed,
        jobs=args.jobs,
        fail_fast=args.fail_fast,
    )
    if args.format == "json":
        text = report.to_json() + "\n"
    elif args.format == "csv":
        text = report.to_csv()
    else:
        text = report.to_text()
    _emit(text, args.out)
    failures = report.failures(strict_conjectures=args.strict_conjectures)
    if failures:
        for row in failures[:10]:
            print(
                f"FAIL p={row.p} {row.sid}: lhs={row.lhs} rhs={row.rhs} "
                f"mod {row.modulus} {row.detail}".rstrip(),
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    stmt = REGISTRY.get(args.id)
    if stmt is None:
        raise UnknownStatement(f"unknown statement id: {args.id}")
    if isinstance(stmt, Parametric):
        raise UnknownStatement(
            f"{args.id} is parametric; use `verify --ids {args.id}`"
        )
    p = args.p
    if not quadform.is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    ctx = context_for(None, p, args.t if args.t is not None else statement_modexp(stmt, p))
    lhs = stmt.lhs(ctx)
    if stmt.applies(p):
        print(f"lhs={lhs} rhs={stmt.rhs(ctx)} mod {ctx.P}")
    else:
        print(f"lhs={lhs} mod {ctx.P} (statement requires {stmt.condition})")
    return 0


def cmd_represent(args: argparse.Namespace) -> int:
    if args.form not in quadform.FORMS:
        raise ValueError(
            f"unknown form {args.form!r}; choose from {', '.join(quadform.FORMS)}"
        )
    if not quadform.is_prime(args.p):
        raise ValueError(f"p must be prime, got {args.p}")
    rep = quadform.represent(args.p, args.form)
    print(f"x={rep.x} y={rep.y}")
    return 0


def cmd_identities(args: argparse.Namespace) -> int:
    # each suite at the integer points of its degree bound (see
    # supercong.identities), which prove it for every a
    nmax, kmax, order = args.nmax, args.kmax, args.order
    suites = [
        ("convolution", all(map(identities.check_convolution_identity, range(nmax + 1)))),
        ("recurrence", all(
            identities.check_convolution_recurrence(n, a)
            for n in range(2, nmax + 1) for a in range(n + 2)
        )),
        ("products", identities.check_product_identities(kmax)),
        ("series-square", all(identities.check_series_square(a, order) for a in range(order + 1))),
        # one row per a, through every k < kmax with a <= k+1
        ("shift", all(
            identities.check_shift_identity(a, max(a - 1, 0), kmax) for a in range(kmax + 1)
        )),
    ]

    for name, passed in suites:
        print(f"{name}: {'pass' if passed else 'FAIL'}")
    return 0 if all(passed for _, passed in suites) else 1


def cmd_list(args: argparse.Namespace) -> int:
    for sid in select_ids(None, _statuses_for(args.status)):
        stmt = REGISTRY[sid]
        # a parametric condition is its parameter hypothesis; the primes come first
        condition = stmt.condition
        if isinstance(stmt, Parametric):
            condition = f"{stmt.applies}; {condition}"
        line = f"{sid}\t{stmt.status}\t{mod_text(stmt.modexp)}\t{condition}"
        if stmt.note:
            line += f"\t[{stmt.note}]"
        print(line)
        if args.claims:
            print(f"\t{stmt.claim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description=(
            "Exact verification of congruences for binomial-coefficient sums "
            "against quadratic-form closed forms."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    status_choices = ["default", "all", *STATUSES]

    p_verify = sub.add_parser("verify", help="sweep statements over a prime range")
    p_verify.add_argument("--primes", required=True, metavar="A..B",
                          help="inclusive prime range, 3 < A <= B")
    p_verify.add_argument("--ids", type=_ids,
                          help="comma-separated ids or glob patterns, at least one")
    p_verify.add_argument("--status", choices=status_choices, default="default",
                          help="statement class filter (default: all but conjecture)")
    p_verify.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_verify.add_argument("--jobs", type=_int_at_least(1), default=os.cpu_count() or 1)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--fail-fast", action="store_true")
    p_verify.add_argument("--strict-conjectures", action="store_true",
                          help="let conjecture failures gate the exit code")
    p_verify.add_argument("--out", help="write the report to a file")
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate one fixed statement at one prime")
    p_eval.add_argument("id")
    p_eval.add_argument("p", type=int)
    p_eval.add_argument("t", type=int, nargs="?",
                        help="modulus exponent (default: the statement's own)")
    p_eval.set_defaults(func=cmd_eval)

    p_rep = sub.add_parser("represent", help="represent a prime by a quadratic form")
    p_rep.add_argument("p", type=int)
    p_rep.add_argument("form", help=f"one of {', '.join(quadform.FORMS)}")
    p_rep.set_defaults(func=cmd_represent)

    p_ident = sub.add_parser("identities", help="run the exact identity suites")
    # smaller sizes would leave a suite with nothing to check: no recurrence n
    # below 2, no shift k, no series coefficient that a row can change
    p_ident.add_argument("--nmax", type=_int_at_least(2), default=40)
    p_ident.add_argument("--kmax", type=_int_at_least(1), default=200)
    p_ident.add_argument("--order", type=_int_at_least(2), default=30)
    p_ident.set_defaults(func=cmd_identities)

    p_list = sub.add_parser("list", help="list registered statements")
    p_list.add_argument("--status", choices=status_choices, default="all")
    p_list.add_argument("--claims", action="store_true",
                        help="also print each statement's congruence")
    p_list.set_defaults(func=cmd_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`supercong list | head`): send what is
        # still buffered to devnull so that the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (SupercongError, ValueError) as exc:
        kind = f"{type(exc).__name__}: " if isinstance(exc, SupercongError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
