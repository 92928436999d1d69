"""Command-line front end: analyze, simulate, effect-series.

Exit codes: 0 success; 2 design-validation failure (a
:class:`~brokenrct.errors.DesignError`, printed as "validation failure: ...")
or a hot-deck cell with no donor; 3 estimation failure; 4 I/O, schema or
configuration failure, a ``--completed-dir`` file that is incomplete or
does not complete the input included.
All output is deterministic given the inputs and seed: reports embed the
package version, the seed and a configuration digest, never timestamps.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from dataclasses import fields
from pathlib import Path

from . import __version__
from .comparators import METHODS, check_scale
from .errors import BrokenRctError, DesignError, EstimationError, SchemaError
from .estimation import SCALES
from .estimators import analyze_dataset
from .records import WEAK_INSTRUMENT_THRESHOLD, read_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3
EXIT_IO = 4

#: the columns of each estimate in an analyze report, after method and scale
ESTIMATE_COLUMNS = ("estimate", "se", "ci_lower", "ci_upper", "p_value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brokenrct",
        description=(
            "Estimate treatment effects in randomized experiments with "
            "non-compliance, truncation-by-death and missing outcomes."
        ),
    )
    parser.add_argument("--version", action="version", version=f"brokenrct {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="estimate effects from a dataset CSV")
    analyze.add_argument("--input", required=True, help="dataset CSV (z,d,delta_s,s,delta_y,y)")
    analyze.add_argument("--method", action="append", choices=METHODS,
                         help="estimator to run (repeatable; default: pace)")
    analyze.add_argument("--scale", choices=SCALES, default="identity",
                         help="estimand scale for the pace method; the comparator "
                              "methods take only identity")
    analyze.add_argument("--level", type=float, default=0.95)
    analyze.add_argument("--impute", type=int, metavar="M",
                         help="hot-deck imputations to draw and pool (M >= 2)")
    analyze.add_argument("--completed-dir", metavar="DIR",
                         help="directory of externally completed CSV datasets to pool")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--weak-threshold", type=float, default=WEAK_INSTRUMENT_THRESHOLD)
    analyze.add_argument("--format", choices=("text", "csv", "json"), default="text")
    analyze.add_argument("--output", help="write the report here instead of stdout")
    analyze.set_defaults(func=cmd_analyze)

    simulate = sub.add_parser("simulate", help="run a Monte Carlo study")
    simulate.add_argument("--config", required=True, help="study configuration JSON")
    simulate.add_argument("--out-dir", required=True, help="directory for report files")
    simulate.set_defaults(func=cmd_simulate)

    series = sub.add_parser("effect-series",
                            help="per-period survival and outcome effects")
    series.add_argument("inputs", nargs="+", help="one dataset CSV per period")
    series.add_argument("--level", type=float, default=0.95)
    series.add_argument("--output", help="write the series CSV here instead of stdout")
    series.set_defaults(func=cmd_effect_series)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except DesignError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenRctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def cmd_analyze(args) -> int:
    methods = args.method or ["pace"]
    if args.impute is not None and args.completed_dir is not None:
        raise ValueError("--impute and --completed-dir are mutually exclusive")
    if args.impute is not None and args.impute < 2:
        raise ValueError("--impute requires M >= 2 for pooled variance")
    for method in methods:
        check_scale(method, args.scale)
    arr = read_csv(args.input)
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        analysis = analyze_dataset(arr, methods, args.level, args.scale, args.impute,
                                   args.seed, args.completed_dir, args.weak_threshold)
    report, strata, survival = analysis.validation, analysis.strata, analysis.survival
    mode = "complete-case"
    if args.impute is not None:
        mode = f"impute m={args.impute} seed={args.seed}"
    elif args.completed_dir is not None:
        mode = f"completed-dir m={analysis.estimates[methods[0]].m}"
    results = {method: dict(zip(ESTIMATE_COLUMNS, (est.tau, est.se, *est.ci, est.p_value)))
               for method, est in analysis.estimates.items()}

    payload = {
        "version": __version__,
        "input": args.input,
        "n_records": report.n_records,
        "mode": mode,
        "scale": args.scale,
        "level": args.level,
        "first_stage": report.first_stage,
        "strata_proportions": {"always_takers": strata.p_a, "compliers": strata.p_c,
                               "never_takers": strata.p_n},
        "complier_survival": {"treated": survival.s1_given_c, "control": survival.s0_given_c,
                              "effect": survival.effect},
        "estimates": results,
        "warnings": [str(w.message) for w in captured],
    }
    _emit(_render_analyze(payload, args.format), args.output)
    return EXIT_OK


def _render_analyze(payload, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["method", "scale", *ESTIMATE_COLUMNS])
        for method, cell in payload["estimates"].items():
            writer.writerow([method, payload["scale"], *(repr(cell[c]) for c in ESTIMATE_COLUMNS)])
        return buffer.getvalue()
    lines = [
        f"brokenrct {payload['version']}",
        f"input: {payload['input']} (n={payload['n_records']})",
        f"missing-data mode: {payload['mode']}",
        f"first-stage difference: {payload['first_stage']:.6f}",
        "strata proportions: always-takers {always_takers:.6f}  "
        "compliers {compliers:.6f}  never-takers {never_takers:.6f}".format(
            **payload["strata_proportions"]),
        "complier survival:  treated {treated:.6f}  control {control:.6f}  "
        "effect {effect:.6f}".format(**payload["complier_survival"]),
        "",
        f"{'method':<8}{'scale':<10}" + "".join(f"{c:>12}" for c in ESTIMATE_COLUMNS),
    ]
    for method, cell in payload["estimates"].items():
        lines.append(f"{method:<8}{payload['scale']:<10}"
                     + "".join(f"{cell[c]:>12.6f}" for c in ESTIMATE_COLUMNS))
    for message in payload["warnings"]:
        lines.append(f"warning: {message}")
    return "\n".join(lines) + "\n"


def _config_error(path: str, message: str) -> SchemaError:
    return SchemaError(f"{path}: {message}")


def load_study_config(path) -> dict:
    """The study settings of a config file over :func:`run_study`'s defaults.

    ``run_study`` checks the settings; ``dgp`` holds the
    :class:`DgpConfig` overrides that it takes as ``config``.
    """
    import inspect

    from .simulate import DgpConfig, run_study

    with open(path) as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise _config_error("<root>", "configuration must be a JSON object")
    defaults = {name: parameter.default
                for name, parameter in inspect.signature(run_study).parameters.items()
                if name != "config"}
    for key in raw:
        if key not in defaults and key != "dgp":
            raise _config_error(key, "unknown configuration field")
    config = {**defaults, "dgp": {}, **raw}
    if not isinstance(config["dgp"], dict):
        raise _config_error("dgp", "must be an object of DGP overrides")
    valid_dgp = {f.name for f in fields(DgpConfig)} - {"n", "case"}
    for key, value in config["dgp"].items():
        if key not in valid_dgp:
            raise _config_error(f"dgp.{key}", "unknown DGP field")
        if isinstance(value, list):
            config["dgp"][key] = tuple(value)
    try:
        DgpConfig(**config["dgp"]).validate()
    except (TypeError, ValueError) as exc:
        raise _config_error("dgp", str(exc)) from None
    return config


def cmd_simulate(args) -> int:
    import hashlib

    from .simulate import DgpConfig, run_study

    config = load_study_config(args.config)
    settings = {key: value for key, value in config.items() if key != "dgp"}
    report = run_study(config=DgpConfig(**config["dgp"]), **settings)
    # n_jobs sets how the study runs, not what it computes
    study = {key: value for key, value in config.items() if key != "n_jobs"}
    digest = hashlib.sha256(json.dumps(study, sort_keys=True).encode()).hexdigest()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "report.csv")
    (out_dir / "table.txt").write_text(report.format_table())
    metadata = {
        "version": __version__,
        "seed": config["seed"],
        "config_sha256": digest,
        "config": study,
    }
    (out_dir / "metadata.json").write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_dir / 'report.csv'}")
    print(f"wrote {out_dir / 'table.txt'}")
    print(f"wrote {out_dir / 'metadata.json'}")
    return EXIT_OK


def cmd_effect_series(args) -> int:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, restval="", fieldnames=[
        "period", "input", "n", "s1_complier", "s0_complier", "survival_effect",
        "tau", "se", "ci_lower", "ci_upper", "status"])
    writer.writeheader()
    for period, path in enumerate(args.inputs, start=1):
        row = {"period": period, "input": path}
        try:
            arr = read_csv(path)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                analysis = analyze_dataset(arr, level=args.level)
            est, survival = analysis.estimates["pace"], analysis.survival
            row.update(n=est.n, s1_complier=survival.s1_given_c,
                       s0_complier=survival.s0_given_c, survival_effect=survival.effect,
                       tau=est.tau, se=est.se, ci_lower=est.ci_lower, ci_upper=est.ci_upper,
                       status="ok")
        except (BrokenRctError, OSError) as exc:
            row["status"] = f"error: {exc}"
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    _emit(buffer.getvalue(), args.output)
    return EXIT_OK


def _emit(text: str, output) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
