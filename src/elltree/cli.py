"""Command-line front end.

Modes:
  classify   per-line intersection classes of the curve
  domain     text dump of the truncated quotient tree
  symbolic   token-level assembly compared against the prediction
  concrete   finite-field assembly with honest per-degree verdicts
  compare    both reports side by side with an agreement table
  selftest   built-in oracle batteries

Exit codes: 0 success or all-match, 1 bad input, 2 mismatch or failed
selftest, 3 refused as too large.  Reports are byte-identical across
repeated runs with the same configuration.
"""

import argparse
import json
import sys

from .coefficients import BATTERIES, ConcreteSpec, report, report_to_json_text
from .curve import SingularCurveError, WeierstrassCurve
from .errors import TooLargeError
from .field import make_field
from .groups import BarLimits, DEFAULT_LIMITS
from .selftest import run_selftest
from .tree import build_domain

LARGE_LIMITS = BarLimits(max_order=360, max_degree=3, dense_columns=9000)

MODES = ("classify", "domain", "symbolic", "concrete", "compare", "selftest")


class CliError(Exception):
    """Bad invocation or bad input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# Flags by destination: (type, choices, help).  The parser and the config
# file both check values against this one table.
_FLAGS = {
    "p": (int, None, "field characteristic"),
    "k": (int, None, "extension degree (default 1)"),
    "curve": (
        str,
        None,
        "coefficients a1,a2,a3,a4,a6; integers for k=1, "
        "colon-separated vectors c0:c1:... for k>1",
    ),
    "q_max": (int, None, "top homology degree"),
    "depth": (int, None, "cusp truncation depth (default 2)"),
    "battery": (str, sorted(BATTERIES), None),
    "resolution": (str, ["zero", "iso"], None),
    "attach": (int, [1, 2], None),
    "allow_large": (bool, None, "raise the group-size ceilings for concrete runs"),
}


def build_parser():
    parser = _Parser(
        prog="elltree",
        description="Assemble and compare homology decompositions for the "
        "group of an affine elliptic curve acting on its tree.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", help="JSON file with flag defaults")
    for key, (typ, choices, text) in _FLAGS.items():
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            parser.add_argument(flag, dest=key, action="store_true", default=None, help=text)
        else:
            parser.add_argument(flag, dest=key, type=typ, choices=choices, help=text)
    parser.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"config is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError("config must be a JSON object of flag values")
    return data


def _merge_config(args):
    """Fill unset flags from the config file; explicit flags win."""
    if args.config is None:
        return
    data = _load_config(args.config)
    unknown = set(data) - set(_FLAGS)
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in data.items():
        if getattr(args, key) is not None:
            continue
        typ, choices, _ = _FLAGS[key]
        # bool is a subclass of int, but true is not a depth
        if not isinstance(value, typ) or (typ is not bool and isinstance(value, bool)):
            raise CliError(f"config key {key!r} must be {typ.__name__}")
        if choices is not None and value not in choices:
            raise CliError(f"config key {key!r} must be one of {', '.join(map(str, choices))}")
        setattr(args, key, value)


def parse_curve_coefficients(text, k):
    """Five coefficients; ints when k=1, colon vectors otherwise."""
    parts = text.split(",")
    if len(parts) != 5:
        raise CliError(f"expected 5 curve coefficients a1,a2,a3,a4,a6, got {len(parts)}")
    coeffs = []
    for part in parts:
        try:
            if k == 1 and ":" not in part:
                coeffs.append(int(part))
            else:
                coeffs.append(tuple(int(c) for c in part.split(":")))
        except ValueError as exc:
            raise CliError(f"bad curve coefficient {part!r}") from exc
    return coeffs


def _resolve(args):
    args.k = 1 if args.k is None else args.k
    args.depth = 2 if args.depth is None else args.depth
    args.battery = "A" if args.battery is None else args.battery
    args.resolution = "zero" if args.resolution is None else args.resolution
    args.attach = 1 if args.attach is None else args.attach
    args.allow_large = bool(args.allow_large)
    if args.q_max is None:
        args.q_max = 2 if args.mode in ("concrete", "compare") else 5
    if args.depth < 1:
        raise CliError("depth must be at least 1")
    if args.q_max < 1:
        raise CliError("q-max must be at least 1")
    if args.attach > args.depth:
        raise CliError("attach point exceeds the truncation depth")


def _build_curve(args):
    if args.p is None:
        raise CliError(f"mode {args.mode!r} needs --p (and --curve)")
    if args.curve is None:
        raise CliError(f"mode {args.mode!r} needs --curve")
    try:
        field = make_field(args.p, args.k)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    coeffs = parse_curve_coefficients(args.curve, args.k)
    try:
        curve = WeierstrassCurve(field, *coeffs)
    except SingularCurveError as exc:
        raise CliError(str(exc)) from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return field, curve


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc.strerror}") from exc


def _verdicts(report):
    return [entry["verdict"] for entry in report["degrees"]]


def _run_classify(args, field, curve):
    summary = curve.classify_all()
    payload = {
        "mode": "classify",
        "curve": curve.to_json(),
        "field": field.to_json(),
        "classification": summary.to_json(),
        "cusp_count": summary.cusp_count,
    }
    _emit(report_to_json_text(payload), args.out)
    return 0


def _run_domain(args, field, curve):
    tree = build_domain(curve.classify_all(), args.depth, args.attach)
    _emit(tree.graph_dump(), args.out)
    return 0


def _spec(mode, args, field):
    if mode == "symbolic":
        return BATTERIES[args.battery].with_resolution(args.resolution)
    return ConcreteSpec(field, LARGE_LIMITS if args.allow_large else DEFAULT_LIMITS)


def _run_reports(args, field, curve):
    """One report; compare builds both over one tree and adds an agreement table."""
    tree = build_domain(curve.classify_all(), args.depth, args.attach)
    if args.mode != "compare":
        rep = report(tree, _spec(args.mode, args, field), args.q_max, curve)
        _emit(report_to_json_text(rep), args.out)
        return 2 if "mismatch" in _verdicts(rep) else 0
    sym = report(tree, _spec("symbolic", args, field), args.q_max, curve)
    con = report(tree, _spec("concrete", args, field), args.q_max, curve)
    agreement = [
        {
            "i": s["i"],
            "symbolic": s["verdict"],
            "concrete": c["verdict"],
            "agree": s["verdict"] == c["verdict"],
        }
        for s, c in zip(sym["degrees"], con["degrees"])
    ]
    payload = {"mode": "compare", "symbolic": sym, "concrete": con, "agreement": agreement}
    _emit(report_to_json_text(payload), args.out)
    return 2 if "mismatch" in _verdicts(sym) + _verdicts(con) else 0


def _run_selftest(args):
    lines = []
    ok = run_selftest(write=lines.append)
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 2


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args)
        _resolve(args)
        if args.mode == "selftest":
            return _run_selftest(args)
        field, curve = _build_curve(args)
        if args.mode == "classify":
            return _run_classify(args, field, curve)
        if args.mode == "domain":
            return _run_domain(args, field, curve)
        return _run_reports(args, field, curve)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TooLargeError as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
