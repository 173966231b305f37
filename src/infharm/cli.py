"""Command-line front end.

Subcommands: check, energy, tension, suite, search, spaces.  Exit codes are
0 (harmonic / verified), 1 (not harmonic / counterexample found), 2 (usage
or input error).  Reports are deterministic for a fixed seed; the elapsed_s
field is the only part that varies between runs.  The default seed is 0 and
can be overridden with --seed or the IH_SEED environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .calculus import energy_density, infinity_tension
from .classify import (
    THEOREMS,
    UnsupportedPairError,
    cross_validate,
    falsify_search,
    run_suite,
)
from .exprcore import DimensionError, ExprParseError, UnsupportedExpressionError, to_string
from .mapspec import (
    MapSpecError,
    _digest,
    pad_components,
    parse_mapspec,
    serialize_mapspec,
)
from .spaces import CATALOG_EXAMPLES, SpaceError, build_euclidean, build_space


def _invocation(args, names) -> list[str]:
    parts = [args.command]
    for name in names:
        value = getattr(args, name.replace("-", "_"), None)
        if value is None or value is False:
            continue
        flag = f"--{name}"
        if value is True:
            parts.append(flag)
        else:
            parts.extend([flag, str(value)])
    return parts


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("IH_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SpaceError(f"IH_SEED must be an integer, got {env!r}") from None
    return 0


def _load_map(path: str, codomain, pad: bool):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = parse_mapspec(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise MapSpecError("$", f"cannot read {path}: {exc}") from None
    if pad:
        spec = pad_components(spec, codomain.dim)
    return spec


def _map_report(args, names):
    """The spaces, the map and the report fields shared by check, energy and tension."""
    domain = build_space(args.domain)
    codomain = build_space(args.codomain)
    spec = _load_map(args.map, codomain, args.pad)
    doc = {
        "command": args.command,
        "invocation": _invocation(args, names),
        "domain": domain.label,
        "codomain": codomain.label,
        "map": serialize_mapspec(spec),
    }
    doc["map_digest"] = _digest(doc["map"])
    return domain, codomain, spec, doc


def _tension_fields(direct) -> dict:
    return {
        "mode": direct.mode,
        "tension_components": None
        if direct.components is None
        else [to_string(c) for c in direct.components],
        "tension_clearing": _render(direct.tension_clearing),
        "verdict": direct.verdict,
        "witness": None if direct.witness is None else direct.witness.to_json(),
    }


def _finish(args, doc: dict, started: float) -> None:
    """Stamp elapsed_s and write the JSON report when --json was given."""
    doc["elapsed_s"] = round(time.monotonic() - started, 6)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise SpaceError(f"cannot write {args.json}: {exc}") from None


def _verdict_json(verdict) -> dict | None:
    if verdict is None:
        return None
    return {
        "harmonic": verdict.harmonic,
        "tag": verdict.tag,
        "residuals": {k: v for k, v in sorted(verdict.residuals.items())},
        "flags": list(verdict.flags),
        "detail": {k: v for k, v in sorted(verdict.detail.items())},
    }


def _render(expr) -> str | None:
    return None if expr is None else to_string(expr)


def cmd_check(args) -> int:
    started = time.monotonic()
    seed = _resolve_seed(args)
    domain, codomain, spec, doc = _map_report(args, ("domain", "codomain", "map", "mode", "pad", "seed"))
    report = cross_validate(domain, codomain, spec, seed=seed)
    direct = report.direct
    doc.update(
        _tension_fields(direct),
        energy_density=_render(direct.energy_density),
        energy_clearing=_render(direct.energy_clearing),
        predicted=_verdict_json(report.predicted),
        agree=report.agree,
        numeric_ok=report.numeric_ok,
        seed=seed,
    )
    _finish(args, doc, started)
    print(f"{domain.label} -> {codomain.label}  map {doc['map_digest']}")
    if doc["energy_density"] is not None:
        clearing = doc["energy_clearing"]
        suffix = "" if clearing == "1" else f"  (divided by {clearing})"
        print(f"energy density: {doc['energy_density']}{suffix}")
    print(f"verdict: {doc['verdict']} ({direct.mode})")
    if direct.witness is not None:
        w = doc["witness"]
        print(f"witness: component {w['component']} at ({', '.join(w['point'])}) = {w['value']:.6g}")
    if report.predicted is not None:
        agrees = {True: "agrees", False: "DISAGREES", None: "n/a"}[report.agree]
        print(f"predicted: {'harmonic' if report.predicted.harmonic else 'not harmonic'}"
              f" [{report.predicted.tag}] -- {agrees}")
        for flag in report.predicted.flags:
            print(f"note: {flag}")
    return 0 if direct.verdict == "zero" else 1


def cmd_energy(args) -> int:
    started = time.monotonic()
    domain, codomain, spec, doc = _map_report(args, ("domain", "codomain", "map", "pad"))
    energy = energy_density(domain, codomain, spec)
    doc.update(energy_density=to_string(energy.num), energy_clearing=to_string(energy.clearing))
    _finish(args, doc, started)
    if energy.is_plain:
        print(doc["energy_density"])
    else:
        print(f"({doc['energy_density']}) / ({doc['energy_clearing']})")
    return 0


def cmd_tension(args) -> int:
    started = time.monotonic()
    seed = _resolve_seed(args)
    domain, codomain, spec, doc = _map_report(args, ("domain", "codomain", "map", "mode", "pad", "seed"))
    direct = infinity_tension(domain, codomain, spec, seed=seed)
    doc.update(_tension_fields(direct), seed=seed)
    _finish(args, doc, started)
    if doc["tension_components"] is None:
        print("tension components left the symbolic class")
    else:
        for i, comp in enumerate(doc["tension_components"]):
            print(f"tension[{i}] = {comp}")
        if doc["tension_clearing"] != "1":
            print(f"(all divided by {doc['tension_clearing']})")
    print(f"verdict: {doc['verdict']} ({direct.mode})")
    return 0 if direct.verdict == "zero" else 1


def cmd_suite(args) -> int:
    started = time.monotonic()
    seed = _resolve_seed(args)
    if args.theorem == "all":
        ids = list(THEOREMS)
    else:
        ids = [t.strip() for t in args.theorem.split(",") if t.strip()]
        if not ids:
            raise SpaceError(f"--theorem names no theorem id: {args.theorem!r}")
        unknown = [t for t in ids if t not in THEOREMS]
        if unknown:
            raise SpaceError(
                f"unknown theorem id(s) {', '.join(unknown)}; known: {', '.join(THEOREMS)}"
            )
    if args.trials < 1:
        raise SpaceError(f"--trials must be >= 1, got {args.trials}")
    results = []
    for tid in ids:
        res = run_suite(tid, trials=args.trials, seed=seed)
        results.append(res)
        status = "ok" if res.passed else "FAIL"
        print(f"{tid:7s} trials={res.trials:5d} disagreements={res.disagreements} {status}")
    total_bad = sum(r.disagreements for r in results)
    doc = {
        "command": "suite",
        "invocation": _invocation(args, ("theorem", "trials", "seed")),
        "theorems": [
            {
                "theorem": r.theorem,
                "description": r.description,
                "trials": r.trials,
                "disagreements": r.disagreements,
                "failures": list(r.failures),
            }
            for r in results
        ],
        "total_disagreements": total_bad,
        "trials": args.trials,
        "seed": seed,
    }
    _finish(args, doc, started)
    print(f"total disagreements: {total_bad}")
    return 0 if total_bad == 0 else 1


def _search_space(label: str, family: str):
    if label.startswith("complex:"):
        if family != "holomorphic":
            raise SpaceError("complex:<m> labels apply to the holomorphic family only")
        dim = label[len("complex:"):]
        if not dim.isdecimal() or int(dim) < 1:
            raise SpaceError(f"bad complex dimension in {label!r}")
        return build_euclidean(2 * int(dim))
    return build_space(label)


def cmd_search(args) -> int:
    started = time.monotonic()
    seed = _resolve_seed(args)
    domain = _search_space(args.domain, args.family)
    codomain = _search_space(args.codomain, args.family)
    try:
        outcome = falsify_search(args.family, domain, codomain, args.trials, seed)
    except (UnsupportedPairError, ValueError) as exc:
        raise SpaceError(str(exc)) from None
    doc = {
        "command": "search",
        "invocation": _invocation(args, ("family", "domain", "codomain", "trials", "seed")),
        "family": outcome.family,
        "domain": outcome.domain,
        "codomain": outcome.codomain,
        "trials": outcome.trials,
        "seed": outcome.seed,
        "counterexamples": list(outcome.counterexamples),
    }
    _finish(args, doc, started)
    print(
        f"{outcome.family} {outcome.domain} -> {outcome.codomain}: "
        f"{outcome.trials} trials, {len(outcome.counterexamples)} counterexamples"
    )
    for entry in outcome.counterexamples[:3]:
        print(json.dumps(entry, sort_keys=True))
    return 0 if not outcome.counterexamples else 1


def cmd_spaces(args) -> int:
    print("space labels:")
    print("  euclid:<m>             flat R^m")
    print("  semi-euclid:<m>:<s>    diagonal +-1 metric, s like '-+'")
    print("  sphere:<m>             stereographic chart, factor (1+|x|^2)/2")
    print("  conformal:<m>:<F>      metric F^-2 delta for a polynomial F")
    print("  nil                    dx^2 + dy^2 + (dz - x dy)^2")
    print("  sol                    e^{2z} dx^2 + e^{-2z} dy^2 + dz^2")
    print()
    print("examples:")
    for label in CATALOG_EXAMPLES:
        sp = build_space(label)
        entries = []
        for i in range(sp.dim):
            for j in range(i, sp.dim):
                g = sp.g_lower[i][j]
                if g:
                    entries.append(f"g{i + 1}{j + 1}={to_string(g)}")
        shown = ", ".join(entries[:4]) + ("; ..." if len(entries) > 4 else "")
        scale = to_string(sp.lower_scale)
        suffix = "" if scale == "1" else f"  (all divided by {scale})"
        print(f"  {label:28s} dim={sp.dim}  {shown}{suffix}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="infharm",
        description="Exact symbolic checker for infinity-harmonic maps between model geometries.",
        epilog="theorem ids: " + ", ".join(f"{k} ({v[0]})" for k, v in THEOREMS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_map_flags(p, mode=True):
        p.add_argument("--domain", required=True, help="domain space label")
        p.add_argument("--codomain", required=True, help="codomain space label")
        p.add_argument("--map", required=True, help="path to a map JSON document")
        if mode:
            # One value only: old invocations, and the invocation field of reports, stay valid.
            p.add_argument("--mode", choices=("exact",), default="exact")
        p.add_argument(
            "--pad",
            action="store_true",
            help="zero-pad missing map components up to the codomain dimension",
        )
        p.add_argument("--json", help="write a JSON report to this path")
        p.add_argument("--seed", type=int, default=None)

    p_check = sub.add_parser("check", help="decide infinity-harmonicity of one map")
    add_map_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_energy = sub.add_parser("energy", help="print the energy density of one map")
    add_map_flags(p_energy, mode=False)
    p_energy.set_defaults(func=cmd_energy)

    p_tension = sub.add_parser("tension", help="print the tension components of one map")
    add_map_flags(p_tension)
    p_tension.set_defaults(func=cmd_tension)

    p_suite = sub.add_parser("suite", help="run theorem cross-validation campaigns")
    p_suite.add_argument("--theorem", required=True, help="'all' or comma-separated ids")
    p_suite.add_argument("--trials", type=int, default=200)
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.add_argument("--json", help="write a JSON report to this path")
    p_suite.set_defaults(func=cmd_suite)

    p_search = sub.add_parser("search", help="randomized counterexample search")
    p_search.add_argument("--family", required=True, choices=("linear", "quadratic", "holomorphic"))
    p_search.add_argument("--domain", required=True)
    p_search.add_argument("--codomain", required=True)
    p_search.add_argument("--trials", type=int, default=1000)
    p_search.add_argument("--seed", type=int, default=None)
    p_search.add_argument("--json", help="write a JSON report to this path")
    p_search.set_defaults(func=cmd_search)

    p_spaces = sub.add_parser("spaces", help="list the space catalog")
    p_spaces.set_defaults(func=cmd_spaces)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        SpaceError,
        MapSpecError,
        ExprParseError,
        DimensionError,
        UnsupportedExpressionError,
        UnsupportedPairError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
