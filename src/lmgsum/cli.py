"""Command-line front end: summarize, eval-labels, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
input-format error.  The seed falls back to the LMGSUM_SEED environment
variable, then to 0.  All outputs are deterministic given inputs, flags,
and seed.

:func:`entry` is the process entry of both the installed ``lmgsum`` script
and ``python -m lmgsum.cli``; :func:`main` runs one command in process.
This module imports NumPy, through the modules that need it, only when a
command runs, so that :func:`entry` can settle the process before NumPy
loads, and importing it changes nothing in a host program.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

# every NumPy-backed module (the reader, the summary, the merge engine,
# verify's decoder) and the JSON writer are imported by the commands that
# run them, so no command compiles the others' code and NumPy loads only
# after the process entry has run
from .config import RunConfig

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
        help="sets the pair-verification budget per LSH cluster union to 8 x this value; "
        "summarize reports on stderr when the budget skips a check",
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


def _load(args):
    from .graph import load_graph

    return load_graph(args.input, args.labels, undirected=args.undirected)


def cmd_summarize(args) -> int:
    from .jsontext import write_json
    from .summarize import run
    from .summary import corrections_to_dict, export_dot, summary_to_dict

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
    if report.budget_skips:
        print(
            f"budget: skipped {report.budget_skips} pair checks past "
            f"{8 * config.cluster_cap} per cluster union (8 x --cluster-cap); "
            "the candidates may differ from an unbudgeted run",
            file=sys.stderr,
        )
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
    from .graph import GraphFormatError

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
    for section in ("summary", "corrections"):
        if section not in payload:
            raise GraphFormatError(f"{args.json}: no {section!r} section — cannot reconstruct")
    from .verify import mismatch

    try:
        found = mismatch(g, payload["summary"], payload["corrections"])
    except KeyError as e:
        raise GraphFormatError(f"{args.json}: unknown or missing key {e.args[0]!r}") from None
    except (OverflowError, TypeError, ValueError) as e:
        raise GraphFormatError(f"{args.json}: malformed report: {e}") from None
    if found is not None:
        print(found)
        return EXIT_VERIFY
    print(f"OK: reconstruction matches {args.input} exactly")
    return EXIT_OK


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
    from .graph import GraphFormatError

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


def entry() -> None:
    """The process entry: settle the process, run :func:`main`, exit.

    Before NumPy loads, it caps OpenBLAS at one thread (no command makes a
    BLAS call, and the default worker thread busy-waits once NumPy is
    imported) unless the user set ``OPENBLAS_NUM_THREADS``, and turns the
    cyclic collector off.
    After the command it freezes what the run allocated, so interpreter
    shutdown does not walk it.  It exits through ``sys.exit``, which runs
    atexit handlers and flushes the output streams.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
