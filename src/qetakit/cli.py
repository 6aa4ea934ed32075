"""Batch command-line front end.

Subcommands::

    qetakit series <name> --order Q
    qetakit char --s S --t T --m M --n N --order Q [--form double|chi|product]
    qetakit verify <identity> [--k K | --s S --t T] --order Q
    qetakit verify suite [--manifest PATH | --max-st N --order Q] [--jobs J]

Orders are exact rationals (an integer or ``p/q``, as in manifests;
``--order -1/96`` is an order, not an option).  Series
are emitted in the text interchange format; verification reports stream as
one line each, or as a single JSON document with ``--format structured``.
Exit status is 0 iff every requested verification matched, 1 when one
reported ``match=false``, and 2, with one line on stderr, for a bad input,
an order too large to build or hold in memory among them.
The ``QETAKIT_OUTPUT_DIR`` environment variable relocates relative
``--output`` paths.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from .eta import NAMED_SERIES, named_series
from .identities import IDENTITIES, audit_identity, verify_identity
from .minimal_models import (character_chi_form, character_double_sum,
                             character_product_2k1, make_model, weight_label)
from .rationals import parse_order
from .suite import adhoc_manifest, load_manifest, run_suite


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative order p/q, such as -1/96, is a value, not an option
        self._negative_number_matcher = re.compile(r"-\d+(/\d+)?$|-\d*\.\d+$")

    def error(self, message):  # one line and exit 2, as for any bad input
        raise ValueError(message)


def _resolve_output(path):
    if os.path.isabs(path):
        return path
    override = os.environ.get("QETAKIT_OUTPUT_DIR")
    return os.path.join(override, path) if override else path


def _emit(text, output):
    if output:
        path = _resolve_output(output)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_series(args):
    series = named_series(args.name, parse_order(args.order))
    _emit(series.to_text(), args.output)
    return 0


def _cmd_char(args):
    order = parse_order(args.order)
    model = make_model(args.s, args.t)
    label = weight_label(model, args.m, args.n)
    if args.form == "double":
        series = character_double_sum(model, label, order)
    elif args.form == "chi":
        series = character_chi_form(model, label, order)
    else:
        if model.s != 2 or args.m != 1:
            raise ValueError("--form product needs s = 2 and m = 1")
        series = character_product_2k1(model.k, args.n, order)
    _emit(series.to_text(), args.output)
    return 0


def _structured_doc(version, reports, runtime):
    return json.dumps({
        "manifest_version": version,
        "reports": [r.to_dict() for r in reports],
        "runtime_seconds": round(runtime, 3),
    }, indent=2) + "\n"


def _cmd_verify(args):
    started = time.monotonic()
    order = parse_order("20" if args.order is None else args.order)
    if args.identity == "suite":
        if args.window_audit or (args.k, args.s, args.t) != (None,) * 3:
            raise ValueError("--k, --s, --t and --window-audit apply to a "
                             "single identity, not to a suite")
        if args.manifest is not None and args.max_st is not None:
            raise ValueError("choose either --manifest or --max-st")
        if args.max_st is not None:
            manifest = adhoc_manifest(args.max_st, order)
        elif args.order is not None:
            raise ValueError("--order applies to a single identity or to "
                             "--max-st; a manifest job sets its own order")
        else:
            manifest = load_manifest(args.manifest)
        reports = run_suite(manifest,
                            jobs=1 if args.jobs is None else args.jobs)
        version = manifest["version"]
        header = f"manifest={version}\n"
    else:
        if (args.manifest, args.max_st, args.jobs) != (None,) * 3:
            raise ValueError("--manifest, --max-st and --jobs apply to "
                             "verify suite only")
        verify = audit_identity if args.window_audit else verify_identity
        reports = [verify(args.identity, order=order, k=args.k, s=args.s,
                          t=args.t)]
        version = None
        header = ""
    runtime = time.monotonic() - started
    if args.format == "structured":
        _emit(_structured_doc(version, reports, runtime), args.output)
    else:
        _emit(header + "".join(r.to_line() + "\n" for r in reports),
              args.output)
    return 0 if all(r.match for r in reports) else 1


def build_parser():
    parser = _Parser(
        prog="qetakit",
        description="Exact q-series builders and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser(
        "series", help="emit a named series in the text format")
    p_series.add_argument("name",
                          help=f"one of: {', '.join(NAMED_SERIES)}")
    p_series.add_argument("--order", default="20",
                          help="truncation order as a rational p/q")
    p_series.add_argument("--output", help="write to this file")
    p_series.set_defaults(func=_cmd_series)

    p_char = sub.add_parser("char", help="emit a minimal-model character")
    p_char.add_argument("--s", type=int, required=True)
    p_char.add_argument("--t", type=int, required=True)
    p_char.add_argument("--m", type=int, required=True)
    p_char.add_argument("--n", type=int, required=True)
    p_char.add_argument("--order", default="20")
    p_char.add_argument("--form", choices=("double", "chi", "product"),
                        default="double")
    p_char.add_argument("--output")
    p_char.set_defaults(func=_cmd_char)

    p_verify = sub.add_parser("verify", help="verify a named identity")
    p_verify.add_argument("identity",
                          choices=tuple(IDENTITIES) + ("suite",))
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--s", type=int)
    p_verify.add_argument("--t", type=int)
    p_verify.add_argument("--order",
                          help="truncation order p/q (default 20); not for "
                               "a manifest suite")
    p_verify.add_argument("--format", choices=("text", "structured"),
                          default="text")
    p_verify.add_argument("--output")
    p_verify.add_argument("--manifest", help="suite manifest path")
    p_verify.add_argument("--max-st", type=int, dest="max_st",
                          help="generate the model-grid suite up to this s*t")
    p_verify.add_argument("--jobs", type=int,
                          help="parallel worker processes for suites "
                               "(default 1)")
    p_verify.add_argument("--window-audit", action="store_true",
                          dest="window_audit",
                          help="also build the lattice sum by tuple "
                               "enumeration and as one Wronskian and "
                               "require identical coefficients")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OverflowError, MemoryError) as exc:  # a size nothing can hold
        # str(MemoryError()) is usually empty
        error = f"order too large: {str(exc) or 'out of memory'}"
    except (ValueError, RuntimeError, OSError) as exc:
        error = exc
    print(f"qetakit: error: {error}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
