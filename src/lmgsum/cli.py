"""Command-line front end: summarize, eval-labels, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
input-format error.  The seed falls back to the LMGSUM_SEED environment
variable, then to 0.  All outputs are deterministic given inputs, flags,
and seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# the merge engine (summarize, candidates, merge), the JSON writer and
# verify's array path are imported by the commands that run them, so no
# command compiles the others' code
from .config import RunConfig
from .graph import GraphFormatError, LabeledMultiGraph, load_graph
from .summary import (
    corrections_from_dict,
    corrections_to_dict,
    export_dot,
    reconstruct,
    summary_from_dict,
    summary_to_dict,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-i", "--input", required=True, help="edge list file (TSV)")
    p.add_argument("-l", "--labels", help="node label file (TSV)")
    p.add_argument(
        "--undirected",
        action="store_true",
        help="materialize each listed edge in both directions",
    )
    p.add_argument("-r", type=int, default=8, help="minhash rows per band")
    p.add_argument("-b", "--bands", type=int, default=10, help="number of bands")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: $LMGSUM_SEED or 0)")
    p.add_argument(
        "--threads", type=int, default=1,
        help="most worker processes eval-labels merges labelings in, capped by "
        "the usable CPUs (must be >= 1); other commands ignore it",
    )
    p.add_argument(
        "--cluster-cap", type=int, default=5000,
        help="sets the pair-verification budget per LSH cluster union to 8 x this value",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmgsum",
        description="Lossless MDL summarization of labeled directed multi-graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="summarize a graph and export the result")
    _add_common(p)
    p.add_argument(
        "--checkpoints",
        type=_parse_int_list,
        default=(),
        help="band counts at which to snapshot the summary, e.g. 2,5,10",
    )
    p.add_argument("--dot", metavar="DIR", help="write DOT renderings into DIR")
    p.add_argument("--json", metavar="PATH", help="write the full report JSON to PATH")

    p = sub.add_parser("eval-labels", help="normalized gain of a labeling vs shuffles")
    _add_common(p)
    p.add_argument("--shuffles", type=int, default=20, help="number of label permutations")
    p.add_argument("--json", metavar="PATH", help="write the evaluation JSON to PATH")

    p = sub.add_parser("verify", help="reconstruct from a report and compare")
    _add_common(p)
    p.add_argument(
        "--json",
        metavar="PATH",
        required=True,
        help="report JSON produced by `summarize`",
    )
    return parser


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("LMGSUM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"LMGSUM_SEED is not an integer: {env!r}")
    return 0


class UsageError(Exception):
    pass


def _config(args, **fields) -> RunConfig:
    """The run configuration of the common flags plus the command's ``fields``."""
    try:
        return RunConfig(
            r=args.r,
            b_max=args.bands,
            seed=_seed_of(args),
            cluster_cap=args.cluster_cap,
            undirected=args.undirected,
            threads=args.threads,
            **fields,
        )
    except ValueError as e:
        raise UsageError(str(e))


def _load(args) -> LabeledMultiGraph:
    return load_graph(args.input, args.labels, undirected=args.undirected)


def cmd_summarize(args) -> int:
    from .jsontext import write_json
    from .summarize import run

    config = _config(args, checkpoints=args.checkpoints)
    g = _load(args)
    summary, report = run(g, config, keep_checkpoint_summaries=bool(args.dot))
    payload = {
        "config": {
            "r": config.r,
            "b_max": config.b_max,
            "seed": config.seed,
            "cluster_cap": config.cluster_cap,
            "undirected": config.undirected,
            "checkpoints": list(config.checkpoints),
        },
        "report": report.to_dict(),
        "summary": summary_to_dict(g, summary, report.cost),
        "corrections": corrections_to_dict(summary, report.corrections),
    }
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
        for cp in report.checkpoints:
            if cp.summary is not None:
                path = os.path.join(args.dot, f"summary_b{cp.band}.dot")
                with open(path, "w", encoding="utf-8") as f:
                    f.write(export_dot(cp.summary, f"summary_b{cp.band}"))
        with open(os.path.join(args.dot, "summary_final.dot"), "w", encoding="utf-8") as f:
            f.write(export_dot(summary, "summary_final"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            write_json(payload, f.write)
            f.write("\n")
        print(
            f"bits_before={report.bits_before:.3f} bits_after={report.bits_after:.3f} "
            f"ratio={report.compression_ratio:.4f} super_nodes={report.super_node_count} "
            f"super_edges={report.super_edge_count} -> {args.json}"
        )
    else:
        write_json(payload, sys.stdout.write)
        print()
    return EXIT_OK


def cmd_eval_labels(args) -> int:
    from .jsontext import write_json
    from .summarize import shuffled_label_eval

    if not args.labels:
        raise UsageError("eval-labels requires a label file (-l/--labels)")
    if args.shuffles < 1:
        raise UsageError("--shuffles must be >= 1")
    config = _config(args, shuffles=args.shuffles)
    g = _load(args)
    result = shuffled_label_eval(g, config)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            write_json(result, f.write)
            f.write("\n")
    print(f"actual_ratio={result['actual']:.4f}")
    if result.get("normalized_gain") is None:
        print(f"warning: {result['warning']}")
    else:
        print(f"shuffled_mean={result['shuffled_mean']:.4f} (n={len(result['shuffled'])})")
        print(f"normalized_gain={result['normalized_gain'] * 100:.1f}%")
    return EXIT_OK


def cmd_verify(args) -> int:
    # verify reads none of the shared run flags, but rejects what the
    # other commands reject
    _config(args)
    g = _load(args)
    try:
        with open(args.json, encoding="utf-8") as f:
            payload = json.load(f)
    except json.JSONDecodeError as e:
        raise GraphFormatError(f"{args.json}: invalid JSON: {e}")
    except UnicodeDecodeError as e:
        raise GraphFormatError(f"{args.json}: not valid UTF-8: {e}") from None
    except RecursionError:
        raise GraphFormatError(f"{args.json}: JSON nested too deeply") from None
    if not isinstance(payload, dict):
        raise GraphFormatError(f"{args.json}: report is not a JSON object")
    if "summary" not in payload:
        raise UsageError(f"{args.json}: no 'summary' section")
    if "corrections" not in payload:
        raise UsageError(f"{args.json}: no 'corrections' section — cannot reconstruct")
    from .verify import rebuilds

    if rebuilds(g, payload["summary"], payload["corrections"]):
        print(f"OK: reconstruction matches {args.input} exactly")
        return EXIT_OK
    # the array path declined: the report is irregular, or does not match.
    # The object path below decides again and words every error and mismatch
    try:
        summary = summary_from_dict(payload["summary"])
        summary.validate()
        corrections = corrections_from_dict(summary, payload["corrections"])
        # the parsed JSON and reconstruct's edge dict together would set
        # this path's peak memory
        del payload
        # corrections that contradict their own summary are malformed too
        recon = reconstruct(summary, corrections)
    except KeyError as e:
        raise GraphFormatError(
            f"{args.json}: unknown or missing key {e.args[0]!r}"
        ) from None
    except (OverflowError, TypeError, ValueError) as e:
        raise GraphFormatError(f"{args.json}: malformed report: {e}") from None
    if (
        g == recon
        and g.node_names == recon.node_names
        and g.label_names == recon.label_names
    ):
        print(f"OK: reconstruction matches {args.input} exactly")
        return EXIT_OK
    # the ids may still differ by a renaming; the sorted text forms decide
    original = g.canonical_dump()
    rebuilt = recon.canonical_dump()
    if original == rebuilt:
        print(f"OK: reconstruction matches {args.input} exactly")
        return EXIT_OK
    for i, (a, b) in enumerate(zip(original.splitlines(), rebuilt.splitlines())):
        if a != b:
            print(f"MISMATCH at line {i + 1}: original={a!a} reconstructed={b!a}")
            break
    else:
        print(
            f"MISMATCH: line counts differ "
            f"({len(original.splitlines())} vs {len(rebuilt.splitlines())})"
        )
    return EXIT_VERIFY


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused.

    The commands create no reference cycles (``tests/test_cli.py`` pins
    that), so reference counting frees all they drop, and the collector
    would only re-walk their live containers.  Its state is restored on
    every way out, so in-process callers keep their own policy.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_command(argv)
    finally:
        if enabled:
            gc.enable()


def _run_command(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "summarize": cmd_summarize,
        "eval-labels": cmd_eval_labels,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except GraphFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
