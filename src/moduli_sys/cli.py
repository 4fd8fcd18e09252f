"""Batch command-line front end.

Subcommands
-----------
analyze   classification, Kalman code and Schubert cell of a system file
canon     base change and canonical form of a controllable system
embed     both Grassmannian embeddings with locus membership and stratum
census    CSV census-vs-formula report over a parameter grid
realize   minimal realization of a Markov block sequence file
random    emit a reproducible random system as JSON

Exit codes: 0 success, 1 validation / usage error, 2 computational
error (for example a non-controllable input to ``canon``).
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .counting import DEFAULT_CENSUS_BOUND, census_cc, census_csv
from .errors import ModuliError, NotControllable
from .grassmann import locus_membership, moduli_point, stratum_point
from .kalman import canonical_form, kalman_code, multiindex_from_code
from .linalg import Field, Matrix
from .realization import MarkovSequence, realize
from .system import (
    LinearSystem,
    classify,
    random_system,
    system_from_json,
    system_to_json,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # do not sys.exit(2); usage errors are exit 1
        raise UsageError(message)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_system(path: str) -> LinearSystem:
    return system_from_json(_load_json(path))


def _print_matrix(label: str, mat: Matrix) -> None:
    print(f"{label} =")
    for line in str(mat).splitlines():
        print(f"  {line}")


def _bool(x: bool) -> str:
    return "true" if x else "false"


def cmd_analyze(args) -> int:
    system = _load_system(args.system)
    cls = classify(system)
    payload = {
        "field": system.field.to_json(),
        "m": system.m, "n": system.n, "p": system.p,
        "rank_c": cls.rank_c, "rank_o": cls.rank_o,
        "cc": cls.cc, "co": cls.co, "canonical": cls.canonical,
        "simple": cls.canonical,
    }
    if cls.cc:
        code = kalman_code(system)
        cell = multiindex_from_code(code)
        payload["kalman_code"] = code.to_json()
        payload["schubert_cell"] = list(cell)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"field: {system.field}")
    print(f"type (m,n,p): ({system.m}, {system.n}, {system.p})")
    print(f"rank c = {cls.rank_c} of {system.n}")
    print(f"rank o = {cls.rank_o} of {system.n}")
    print(f"cc={_bool(cls.cc)} co={_bool(cls.co)} canonical={_bool(cls.canonical)}")
    print(f"simple as quiver representation: {_bool(payload['simple'])}")
    if cls.cc:
        print("kalman code (rows = powers 0..n-1, columns = inputs 1..m):")
        for line in code.ascii_art().splitlines():
            print(f"  {line}")
        print(f"schubert cell I = {cell}")
    else:
        print("kalman code: undefined (system is not completely controllable)")
    return 0


def cmd_canon(args) -> int:
    system = _load_system(args.system)
    g, canon = canonical_form(system)
    if args.json:
        enc = system.field.scalar_to_json
        print(json.dumps({
            "g": [enc(x) for x in g.entries],
            "system": system_to_json(canon),
        }, sort_keys=True))
        return 0
    _print_matrix("g", g)
    _print_matrix("A'", canon.A)
    _print_matrix("B'", canon.B)
    _print_matrix("C'", canon.C)
    return 0


def cmd_embed(args) -> int:
    system = _load_system(args.system)
    cls = classify(system)
    if not cls.cc:
        raise NotControllable(
            f"embeddings need a cc system (rank c = {cls.rank_c} < {system.n})"
        )
    big = stratum_point(system)
    membership = locus_membership(big, system.m, system.p)
    small = moduli_point(system) if system.n >= 1 else None
    payload = {
        "stratum": big.stratum,
        "relation_plane": big.point.to_json(),
        "co": cls.co,
        "canonical": cls.canonical,
        "in_cc": membership.in_cc,
        "in_co": membership.in_co,
        "in_canonical": membership.in_canonical,
    }
    if small is not None:
        payload["moduli_point"] = small.to_json()
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0
    if small is not None:
        print(f"moduli point in Gras_{small.k}({small.N}), cell I = {small.pivots}")
        _print_matrix("representative", small.rep)
    else:
        print("moduli point: undefined for n = 0")
    print(f"relation plane in Gras_{big.point.k}({big.point.N}), stratum n = {big.stratum}")
    _print_matrix("representative", big.point.rep)
    print(f"pivots J = {big.point.pivots}")
    print(f"classify: co={_bool(cls.co)} canonical={_bool(cls.canonical)}")
    print(
        f"locus membership: cc={_bool(membership.in_cc)} "
        f"co={_bool(membership.in_co)} canonical={_bool(membership.in_canonical)}"
    )
    return 0


def cmd_census(args) -> int:
    qs = [int(tok) for tok in args.q.split(",") if tok]
    if not qs:
        raise UsageError("--q needs at least one prime")
    if args.n_min > args.n_max:
        raise UsageError(f"empty n range: --n-min {args.n_min} > --n-max {args.n_max}")
    rows = []
    for q in qs:
        for n in range(args.n_min, args.n_max + 1):
            rows.append(census_cc(args.m, n, args.p, q, bound=args.bound))
    print(census_csv(rows))
    return 0 if all(r.match for r in rows) else 2


def cmd_realize(args) -> int:
    seq = MarkovSequence.from_json(_load_json(args.markov))
    system = realize(seq)  # raises InconsistentData unless verify_realization holds
    if args.json:
        print(json.dumps({
            "n": system.n,
            "verify": True,
            "system": system_to_json(system),
        }, sort_keys=True))
        return 0
    print(f"realized order n = {system.n}")
    _print_matrix("A", system.A)
    _print_matrix("B", system.B)
    _print_matrix("C", system.C)
    print("verify=true")
    return 0


def cmd_random(args) -> int:
    field = Field.rationals() if args.field == "Q" else Field.prime(int(args.field))
    require = "canonical" if args.canonical else ("cc" if args.cc else "any")
    rng = Random(args.seed)
    system = random_system(field, args.m, args.n, args.p, rng, require=require)
    print(json.dumps(system_to_json(system), sort_keys=True))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="moduli-sys", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="classify a system file")
    p_analyze.add_argument("--system", required=True, help="path to a system JSON file")
    p_analyze.add_argument("--json", action="store_true", help="machine-readable output")
    p_analyze.set_defaults(func=cmd_analyze)

    p_canon = sub.add_parser("canon", help="canonical form of a cc system")
    p_canon.add_argument("--system", required=True)
    p_canon.add_argument("--json", action="store_true")
    p_canon.set_defaults(func=cmd_canon)

    p_embed = sub.add_parser("embed", help="Grassmannian embeddings of a cc system")
    p_embed.add_argument("--system", required=True)
    p_embed.add_argument("--json", action="store_true")
    p_embed.set_defaults(func=cmd_embed)

    p_census = sub.add_parser("census", help="census vs formula over a grid")
    p_census.add_argument("--m", type=int, required=True)
    p_census.add_argument("--p", type=int, required=True)
    p_census.add_argument("--n-max", type=int, required=True)
    p_census.add_argument("--n-min", type=int, default=0)
    p_census.add_argument("--q", required=True, help="comma-separated primes")
    p_census.add_argument("--bound", type=int, default=DEFAULT_CENSUS_BOUND,
                          help="bound on the states a cell enumerates, q^(nm) + min(n,m)*q^(n^2) "
                               "for n > 0 (default: 2^24); checked after a cell whose "
                               "q^(n(n+m+p)) has more than 4300 digits is refused")
    p_census.set_defaults(func=cmd_census)

    p_realize = sub.add_parser("realize", help="realize a Markov sequence file")
    p_realize.add_argument("--markov", required=True, help="path to a Markov JSON file")
    p_realize.add_argument("--json", action="store_true")
    p_realize.set_defaults(func=cmd_realize)

    p_random = sub.add_parser("random", help="emit a seeded random system")
    p_random.add_argument("--field", default="Q", help='"Q" or a prime modulus')
    p_random.add_argument("--m", type=int, required=True)
    p_random.add_argument("--n", type=int, required=True)
    p_random.add_argument("--p", type=int, required=True)
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--cc", action="store_true", help="resample until cc")
    p_random.add_argument("--canonical", action="store_true", help="resample until canonical")
    p_random.set_defaults(func=cmd_random)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: USAGE: {exc}", file=sys.stderr)
        return 1
    except ModuliError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: INVALID_INPUT: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
