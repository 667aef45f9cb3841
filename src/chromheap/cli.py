"""Command-line front end.

Subcommands mirror the library modules: chromatic, chihat, bivariate,
orientations, heaps, reciprocity, symfunc, selfcheck.  Output is JSON by
default (all big integers as decimal strings) or a loose human-readable
table with --mode table.

Exit codes: 0 success, 1 identity mismatch (both sides are printed),
2 usage or resource error.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable

from .chromatic import bivariate_polynomial, chi_hat, chromatic_polynomial
from .config import DEFAULT_BUDGET, Budget
from .errors import ChromheapError
from .graphs import Graph, load_graph
from .reciprocity import (
    check_bivariate_reciprocity,
    check_clique_quotient_reciprocity,
    check_derivative_reciprocity,
    check_greene_zaslavsky,
    check_shifted_reciprocity,
    check_sink_rooted,
    check_stanley_reciprocity,
)
from .reports import IdentityReport, ReciprocityReport
from .selfcheck import run_selfcheck
from .series import TruncatedSeries, _prepay_heap_identities, check_heap_identities, heap_series_triple
from .symfunc import (
    csf_powersum,
    expand_finite,
    identity_sides,
    omega,
    orientation_lambda_tally,
    sides_report,
    specialize_p_to_q,
    verify_orientation_expansion,
)

# --check tokens for the reciprocity command: function + flag names, in
# the order the underlying check expects them.
RECIPROCITY_CHECKS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "theorem1": (check_derivative_reciprocity, ("i", "j")),
    "stanley": (check_stanley_reciprocity, ("j",)),
    "greene_zaslavsky": (check_greene_zaslavsky, ("i",)),
    "corollary43": (check_shifted_reciprocity, ("i", "j")),
    "theorem44": (check_clique_quotient_reciprocity, ("d", "i", "j")),
    "theorem45": (check_sink_rooted, ("d", "i")),
    "bivariate": (check_bivariate_reciprocity, ("j", "k")),
}

# --check tokens for the symfunc command: identity + its alphabet size
# flags, in the order identity_sides takes them.  prop52 compares p-basis
# functions and has no alphabets.
SYMFUNC_CHECKS: dict[str, tuple[str, tuple[str, ...]]] = {
    "prop51": ("descent_expansion", ("N",)),
    "prop52": ("orientation_expansion", ()),
    "thm53": ("split_alphabet", ("ny", "nz")),
    "superfication": ("superfication", ("ny", "nz")),
    "combined": ("combined_alphabets", ("ny", "nz", "nw")),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", metavar="PATH", help="graph file: first line n, then 'u v' per edge")
    common.add_argument("--mode", choices=("json", "table"), default="json")
    common.add_argument(
        "--budget",
        action="append",
        default=[],
        metavar="KEY=VAL",
        help="override a resource budget knob (repeatable)",
    )

    top = argparse.ArgumentParser(prog="chromheap", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chromatic", parents=[common], help="chromatic polynomial, derivatives, evaluations")
    p.add_argument("-d", type=int, default=0, help="derivative order")
    p.add_argument("-q", type=int, default=None, help="evaluate (the derivative, if -d) at this integer")

    p = sub.add_parser("chihat", parents=[common], help="quotient polynomial after merging the clique 1..d")
    p.add_argument("-d", type=int, required=True, help="clique size to merge")

    sub.add_parser("bivariate", parents=[common], help="two-variable coloring polynomial")

    sub.add_parser("orientations", parents=[common], help="acyclic orientation tallies")

    p = sub.add_parser("heaps", parents=[common], help="trivial/heap/pyramid series and their identities")
    p.add_argument("-D", type=int, default=6, help="truncation degree")

    p = sub.add_parser("reciprocity", parents=[common], help="run one counting-versus-polynomial check")
    p.add_argument("--check", required=True, choices=sorted(RECIPROCITY_CHECKS))
    p.add_argument("-i", type=int, default=None)
    p.add_argument("-j", type=int, default=None)
    p.add_argument("-d", type=int, default=None)
    p.add_argument("-k", type=int, default=None)

    p = sub.add_parser("symfunc", parents=[common], help="power-sum expansion, omega, specializations, identity checks")
    p.add_argument("--check", default=None, choices=sorted(SYMFUNC_CHECKS))
    p.add_argument("-N", type=int, default=2, help="alphabet size for expansion / prop51")
    p.add_argument("--ny", type=int, default=1, help="first alphabet size for two/three-alphabet checks")
    p.add_argument("--nz", type=int, default=1, help="second alphabet size")
    p.add_argument("--nw", type=int, default=1, help="third alphabet size (combined check)")

    sub.add_parser("selfcheck", parents=[common], help="replay every documented worked example")
    return top


def _parse_budget(pairs: list[str]) -> Budget:
    overrides: dict[str, int] = {}
    for pair in pairs:
        key, sep, val = pair.partition("=")
        if not sep:
            raise ValueError(f"--budget expects KEY=VAL, got {pair!r}")
        overrides[key.strip()] = int(val)
    return DEFAULT_BUDGET.with_overrides(**overrides)


def _require_graph(args) -> Graph:
    if not args.graph:
        raise ValueError(f"command {args.command!r} needs --graph PATH")
    return load_graph(args.graph)


def _graph_summary(g: Graph) -> dict:
    return {"n": g.n, "edges": g.num_edges}


def _render_table(payload, indent: int = 0, key: str | None = None) -> list[str]:
    """Loose flat rendering of the JSON payload; not a stability contract."""
    if isinstance(payload, TruncatedSeries):
        payload = payload.to_json_list()
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    if isinstance(payload, dict):
        lines = [f"{pad}{key}" if key is not None else None]
        for k, v in payload.items():
            lines.extend(_render_table(v, indent + (key is not None), k))
        return [ln for ln in lines if ln is not None]
    if isinstance(payload, list):
        lines = [f"{pad}{key}"] if key is not None else []
        inner = "  " * (indent + (key is not None))
        for item in payload:
            if isinstance(item, dict):
                lines.append(inner + "  ".join(f"{k}={v}" for k, v in item.items()))
            else:
                lines.append(f"{inner}{item}")
        return lines
    return [f"{pad}{label}{payload}"]


def _dumps(obj, newline: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, for the types a payload
    holds: dict with str keys, list, tuple, str, int, bool and None, and a
    TruncatedSeries, written as its to_json_list() from its slices.  The
    json module has no C encoder for indented output; this writer quotes
    strings with its C function and renders ints with int.__repr__, as
    json does, and renders the str and int members of a container inline.
    newline carries the indent of the line that closes obj."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is dict or kind is list or kind is tuple:
        if not obj:
            return "{}" if kind is dict else "[]"
        inner = newline + "  "
        items = []
        if kind is dict:
            for k, v in obj.items():
                if type(k) is not str:
                    raise TypeError(f"payload keys must be str, not {type(k).__name__}")
                key = encode_basestring_ascii(k)
                if type(v) is str:
                    items.append(f"{key}: {encode_basestring_ascii(v)}")
                elif type(v) is int:
                    items.append(f"{key}: {int.__repr__(v)}")
                else:
                    items.append(f"{key}: {_dumps(v, inner)}")
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        for v in obj:
            if type(v) is str:
                items.append(encode_basestring_ascii(v))
            elif type(v) is int:
                items.append(int.__repr__(v))
            else:
                items.append(_dumps(v, inner))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is int:
        return int.__repr__(obj)
    if kind is TruncatedSeries:
        return obj._json_listing(newline)
    raise TypeError(f"payload values of type {kind.__name__} are not written")


def _emit(payload: dict, mode: str) -> None:
    if mode == "json":
        print(_dumps(payload))
    else:
        print("\n".join(_render_table(payload)))


def _gather(args, flags: tuple[str, ...], check: str) -> list[int]:
    vals = []
    for name in flags:
        v = getattr(args, name)
        if v is None:
            flag = f"-{name}" if len(name) == 1 else f"--{name}"
            raise ValueError(f"--check {check} requires {flag}")
        vals.append(v)
    return vals


def _cmd_chromatic(args, budget: Budget) -> tuple[int, dict]:
    g = _require_graph(args)
    chi = chromatic_polynomial(g, budget=budget)
    payload = {"graph": _graph_summary(g), "polynomial": chi.to_json_dict(), "pretty": chi.pretty()}
    poly = chi
    if args.d:
        poly = chi.derivative(args.d)
        payload["derivative"] = {"order": args.d, **poly.to_json_dict()}
    if args.q is not None:
        payload["evaluation"] = {"at": str(args.q), "value": str(poly.evaluate(args.q))}
    return 0, payload


def _cmd_chihat(args, budget: Budget) -> tuple[int, dict]:
    g = _require_graph(args)
    quot = chi_hat(g, args.d, budget=budget)
    return 0, {
        "graph": _graph_summary(g),
        "d": args.d,
        "polynomial": quot.to_json_dict(),
        "pretty": quot.pretty(),
    }


def _cmd_bivariate(args, budget: Budget) -> tuple[int, dict]:
    g = _require_graph(args)
    poly = bivariate_polynomial(g, budget=budget)
    return 0, {"graph": _graph_summary(g), "terms": poly.to_json_list()}


def _cmd_orientations(args, budget: Budget) -> tuple[int, dict]:
    # Greene-Zaslavsky: |[q^i] chi| acyclic orientations have i source components
    g = _require_graph(args)
    chi = chromatic_polynomial(g, budget=budget)
    hist = {i: abs(c) for i, c in enumerate(chi.coeffs) if c}
    return 0, {
        "graph": _graph_summary(g),
        "acyclic_count": str(sum(hist.values())),
        "by_source_components": {str(i): str(c) for i, c in sorted(hist.items())},
    }


def _cmd_heaps(args, budget: Budget) -> tuple[int, dict]:
    g = _require_graph(args)
    bound = args.D
    _prepay_heap_identities(g, bound, budget)
    trivial, heap, pyramid = heap_series_triple(g, bound, budget)
    report = check_heap_identities(g, trivial, heap, pyramid, budget)
    payload = {
        "graph": _graph_summary(g),
        "bound": bound,
        "trivial": trivial,
        "heap": heap,
        "pyramid": pyramid,
        "identities": report.to_json_dict(),
    }
    return (0 if report.equal else 1), payload


def _cmd_reciprocity(args, budget: Budget) -> tuple[int, dict]:
    g = _require_graph(args)
    fn, flags = RECIPROCITY_CHECKS[args.check]
    report: ReciprocityReport = fn(g, *_gather(args, flags, args.check), budget=budget)
    payload = {"graph": _graph_summary(g), **report.to_json_dict()}
    return (0 if report.equal else 1), payload


def _cmd_symfunc(args, budget: Budget) -> tuple[int, dict]:
    g = _require_graph(args)
    if args.check is None:
        x = csf_powersum(g, budget)
        payload = {
            "graph": _graph_summary(g),
            "powersum": x.to_json_dict(),
            "omega": omega(x).to_json_dict(),
            "chromatic_from_specialization": specialize_p_to_q(x).to_json_dict(),
        }
        if args.N:
            payload["expansion"] = {
                "variables": args.N,
                "terms": expand_finite(x, args.N).to_json_list(),
            }
        return 0, payload
    identity, flags = SYMFUNC_CHECKS[args.check]
    if flags:
        sizes = _gather(args, flags, args.check)
        lhs, rhs = identity_sides(g, identity, *sizes, budget=budget)
        report: IdentityReport = sides_report(g, identity, sizes, lhs, rhs)
    else:
        report = verify_orientation_expansion(g, budget)
    payload = {"graph": _graph_summary(g), **report.to_json_dict()}
    if report.equal:
        return 0, payload
    # mismatch contract: show both sides
    if flags:
        payload["lhs"], payload["rhs"] = lhs.to_json_list(), rhs.to_json_list()
    else:
        payload["lhs"] = omega(csf_powersum(g, budget)).to_json_dict()
        payload["rhs"] = orientation_lambda_tally(g).to_json_dict()
    return 1, payload


def _cmd_selfcheck(args, budget: Budget) -> tuple[int, dict]:
    results = run_selfcheck()
    payload = {
        "results": [r.to_json_dict() for r in results],
        "passed": sum(r.ok for r in results),
        "total": len(results),
    }
    return (0 if all(r.ok for r in results) else 1), payload


_COMMANDS = {
    "chromatic": _cmd_chromatic,
    "chihat": _cmd_chihat,
    "bivariate": _cmd_bivariate,
    "orientations": _cmd_orientations,
    "heaps": _cmd_heaps,
    "reciprocity": _cmd_reciprocity,
    "symfunc": _cmd_symfunc,
    "selfcheck": _cmd_selfcheck,
}


_parser: argparse.ArgumentParser | None = None  # built by the first run


def run(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage error, 0 on -h
        return int(exc.code or 0)
    try:
        budget = _parse_budget(args.budget)
        code, payload = _COMMANDS[args.command](args, budget)
    except (ChromheapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.mode)
    if code == 1:
        print("identity mismatch", file=sys.stderr)
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
