"""Command line interface.

Subcommands: gen, check, decompose, reduce, recolor, pipeline,
oracle {distance|connected|diameter}, audit, bench. All files are JSON in
the formats documented in the README; bench writes CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bestchoice import best_choice_recoloring
from .chordalize import merge_same_colored, pipeline_theorem
from .decomposition import mcs_order
from .errors import InvalidColoring, InvalidInput, RecolorError
from .experiments import (
    ExperimentConfig,
    FAMILIES,
    _build_graph,
    has_violations,
    run_experiments,
    write_csv,
)
from .graphs import (
    Coloring,
    EliminationOrdering,
    Graph,
    is_proper,
    random_proper_coloring,
)
from .oracle import (
    DEFAULT_STATE_CAP,
    bfs_distance,
    proper_coloring_count,
    reconfig_connected,
    reconfig_diameter,
)
from .sequences import RecoloringSequence, audit_best_choice, verify_sequence


def _read(path: str, cls):
    """cls.from_json of the JSON file at path; any unreadable file is InvalidInput.

    The json decoder raises RecursionError on deeply nested text.
    """
    try:
        with open(path) as handle:
            return cls.from_json(json.load(handle))
    except (OSError, ValueError, RecursionError, InvalidInput) as exc:
        raise InvalidInput(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


class _OutPath(str):
    """Path of an output file; main checks its directory before any work starts."""


def _require_out_dirs(args) -> None:
    for value in vars(args).values():
        if isinstance(value, _OutPath):
            if not value:
                raise InvalidInput("cannot write to an empty path")
            directory = os.path.dirname(value) or "."
            if not os.path.isdir(directory):
                raise InvalidInput(f"cannot write {value}: no directory {directory}")
            if os.path.isdir(value):
                raise InvalidInput(f"cannot write {value}: it is a directory")


def _dump(path: str, obj: dict) -> None:
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")


def _cmd_gen(args) -> int:
    g = _build_graph(args.family, args.n, args.keep_prob, args.seed)
    _dump(args.out, g.to_json())
    if args.coloring_out:
        order = mcs_order(g)
        col = random_proper_coloring(g, order, args.k, args.coloring_seed)
        _dump(args.coloring_out, col.to_json())
    print(f"wrote {args.family} graph with n={g.n}, m={g.num_edges()} to {args.out}")
    return 0


def _cmd_check(args) -> int:
    if args.coloring is not None and args.expect_final is not None:
        raise InvalidInput("--expect-final needs --seq")
    g = _read(args.graph, Graph)
    if args.coloring is not None:
        col = _read(args.coloring, Coloring)
        ok = is_proper(g, col)
        print("proper" if ok else "improper")
        return 0 if ok else 1
    seq = _read(args.seq, RecoloringSequence)
    if args.expect_final is not None:
        want = _read(args.expect_final, Coloring)
        m = len(want.colors)
        if m != g.n:
            raise InvalidColoring(f"expected final coloring has {m} entries, not {g.n}")
    try:
        final = verify_sequence(g, seq)
    except RecolorError as exc:
        print(f"invalid: {exc}")
        return 1
    print(f"valid sequence of {len(seq.steps)} steps")
    if args.expect_final is not None and final.colors != want.colors:
        print("final coloring does not match the expected one")
        return 1
    return 0


def _cmd_decompose(args) -> int:
    g = _read(args.graph, Graph)
    _dump(args.peo, mcs_order(g).to_json())
    print(f"wrote elimination ordering of {g.n} vertices")
    return 0


def _cmd_reduce(args) -> int:
    g = _read(args.graph, Graph)
    alpha = _read(args.alpha, Coloring)
    h, merge_map, alpha_h = merge_same_colored(g, alpha)
    _dump(
        args.out,
        {
            "graph": h.to_json(),
            "merge_map": merge_map.to_json(),
            "coloring": alpha_h.to_json(),
        },
    )
    print(f"merged {g.n} vertices into {h.n}")
    return 0


def _cmd_recolor(args) -> int:
    g = _read(args.graph, Graph)
    peo = _read(args.peo, EliminationOrdering)
    alpha = _read(args.alpha, Coloring)
    beta = _read(args.beta, Coloring)
    seq = best_choice_recoloring(g, peo, alpha, beta, args.k)
    _dump(args.out, seq.to_json())
    if args.trace:
        for v, c in seq.steps:
            print(f"{v} -> {c}")
    print(f"wrote sequence of {len(seq.steps)} steps to {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    g = _read(args.graph, Graph)
    alpha = _read(args.alpha, Coloring)
    beta = _read(args.beta, Coloring)
    seq = pipeline_theorem(g, alpha, beta)
    _dump(args.out, seq.to_json())
    print(f"wrote sequence of {len(seq.steps)} steps to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    g = _read(args.graph, Graph)
    if args.mode == "distance":
        if not (args.alpha and args.beta):
            raise InvalidInput("distance needs --alpha and --beta")
        alpha = _read(args.alpha, Coloring)
        beta = _read(args.beta, Coloring)
        d = bfs_distance(g, args.k, alpha, beta, args.state_cap)
        print("unreachable" if d is None else d)
        return 0
    if args.mode == "connected":
        print("connected" if reconfig_connected(g, args.k, args.state_cap) else "disconnected")
        return 0
    d = reconfig_diameter(g, args.k, args.state_cap)
    if d is None:
        # the count is cached with the state space, so this sweeps nothing
        empty = proper_coloring_count(g, args.k, args.state_cap) == 0
        d = "no proper colorings" if empty else "disconnected"
    print(d)
    return 0


def _cmd_audit(args) -> int:
    g = _read(args.graph, Graph)
    peo = _read(args.peo, EliminationOrdering)
    seq = _read(args.seq, RecoloringSequence)
    report = audit_best_choice(seq, peo, g, strict=False)
    if args.json_out:
        _dump(args.json_out, report.to_json())
    if report.clean:
        print("audit clean")
        return 0
    for violation in report.violations:
        print(json.dumps(violation.to_json()))
    return 1


def _cmd_bench(args) -> int:
    try:
        sizes = tuple(int(x) for x in args.sizes.split(","))
    except ValueError:
        raise InvalidInput(
            f"--sizes must be comma-separated integers, got {args.sizes!r}"
        ) from None
    config = ExperimentConfig(
        family=args.family,
        sizes=sizes,
        seeds=tuple(range(args.seeds)),
        k=args.k,
        keep_prob=args.keep_prob,
        state_cap=args.state_cap,
    )
    records = run_experiments(config)
    write_csv(args.out, records)
    bad = has_violations(records)
    print(f"wrote {len(records)} records to {args.out}")
    if bad:
        print("violations found", file=sys.stderr)
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recolor",
        description="Recoloring transformations between colorings of treewidth-2 graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance graph")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keep-prob", type=float, default=0.6)
    p.add_argument("--out", required=True, type=_OutPath)
    p.add_argument("--coloring-out", type=_OutPath, help="also write a random proper coloring")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--coloring-seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="check a coloring or verify a sequence")
    p.add_argument("--graph", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--coloring")
    group.add_argument("--seq")
    p.add_argument("--expect-final", help="coloring the sequence must end at")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="elimination ordering by maximum cardinality search")
    p.add_argument("--graph", required=True)
    p.add_argument("--peo", required=True, type=_OutPath, help="output path for the ordering")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reduce", help="merge same-colored bag vertices, fill cliques")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--out", required=True, type=_OutPath)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("recolor", help="greedy bounded recoloring on a chordal graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--peo", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", required=True, type=_OutPath)
    p.add_argument("--trace", action="store_true", help="print one line per step")
    p.set_defaults(func=_cmd_recolor)

    p = sub.add_parser("pipeline", help="full 5-coloring transformation")
    p.add_argument("--graph", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--out", required=True, type=_OutPath)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("oracle", help="exhaustive state-space search")
    p.add_argument("mode", choices=("distance", "connected", "diameter"))
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("audit", help="audit a sequence against the greedy guarantees")
    p.add_argument("--graph", required=True)
    p.add_argument("--peo", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--json-out", type=_OutPath, help="write the full report as JSON")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("bench", help="run experiment batches, write CSV")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--sizes", required=True, help="comma separated, e.g. 50,100,200")
    p.add_argument("--seeds", type=int, default=10, help="use seeds 0..N-1")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--keep-prob", type=float, default=0.6)
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--out", required=True, type=_OutPath)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _require_out_dirs(args)
        return args.func(args)
    except RecolorError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
