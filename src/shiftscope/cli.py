"""Command-line surface: estimate, simulate, bench.

Each command reads its files, hands the work to the library and writes the
result. ``estimate`` runs every method on one ``estimator.Pair``, so with
``--method all`` they share its joints, source accuracy and truth weights;
a method that fails leaves an error entry in place of its report. Errors
print a single ``ERROR <CATEGORY>: detail`` line and exit 2 for input
problems, 1 for anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench
from .data import (
    DISCRETE,
    FeatureSchema,
    TabularDataset,
    align_schemas,
    decode_code,
    encode_code,
    load_dataset,
    load_schema,
    open_input,
    save_dataset,
    validate_dataset,
)
from .errors import InputError, ShiftScopeError, ValidationError
from .estimator import METHODS, GroundTruth, Pair, run_method
from .predictor import load_predictions, predict, train_logistic
from .sees_c import SeesCConfig
from .sees_d import SeesDConfig
from .synth import ShiftSpec, draw_pair, score_target
from .tabulate import apply_discretizer, fit_discretizer
from .weights import TableWeight


# ---------------------------------------------------------------------------
# Config-file helpers.

def _decode_feature(schema: FeatureSchema, ref) -> int:
    if isinstance(ref, int) and not isinstance(ref, bool):
        return ref
    return schema.index_of(str(ref))


def _load_cells(path, schema: FeatureSchema, cells_key: str, value_key: str, build):
    """``build(document, shifted features, {(x_I, y): value})`` for a spec
    or truth file; anything malformed raises ValidationError naming the
    file."""
    try:
        with open_input(path) as fh:
            raw = json.load(fh)
        given = [_decode_feature(schema, f) for f in raw["shifted_features"]]
        order = sorted(range(len(given)), key=given.__getitem__)
        shifted = tuple(given[i] for i in order)
        cols = [schema.column(j) for j in shifted]
        for c in cols:
            if c.kind != DISCRETE:
                raise ValueError(f"shifted column {c.name!r} is continuous")
        cells = {}
        for cell in raw[cells_key]:
            xs = cell.get("x", [])
            if len(xs) != len(cols):
                raise ValueError(f"cell x {xs!r} does not match {len(cols)} shifted features")
            # each cell lists x in the file's feature order; keys take the sorted one
            xv = tuple(decode_code(xs[i], c.categories, c.cardinality)
                       for i, c in zip(order, cols))
            y = decode_code(cell["y"], schema.label_categories, schema.label_cardinality)
            cells[(xv, y)] = float(cell[value_key])
        return build(raw, shifted, cells)
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc}") from exc
    except (ValidationError, ValueError, TypeError, AttributeError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_shift_spec(path, schema: FeatureSchema) -> ShiftSpec:
    """Shift spec file: shifted feature names/indices plus (x_I, y) masses."""
    return _load_cells(path, schema, "cells", "mass",
                       lambda raw, shifted, cells: ShiftSpec(shifted=shifted, cells=cells))


def save_truth(path, schema: FeatureSchema, truth: GroundTruth) -> None:
    weights = truth.true_weights
    if not isinstance(weights, TableWeight):
        raise ValidationError("only table truth weights are serializable")
    cols = [schema.column(j) for j in weights.index_set]
    cells = [
        {
            "x": [encode_code(v, c.categories) for c, v in zip(cols, xv)],
            "y": encode_code(y, schema.label_categories),
            "w": w,
        }
        for (xv, y), w in sorted(weights.table.items())
    ]
    doc = {
        "shifted_features": [schema.column(j).name for j in truth.true_shift_set],
        "weights": cells,
        "true_target_accuracy": truth.true_target_accuracy,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_truth(path, schema: FeatureSchema) -> GroundTruth:
    def build(raw, shifted, table):
        acc = raw.get("true_target_accuracy")
        return GroundTruth(
            true_weights=TableWeight(index_set=shifted, table=table),
            true_shift_set=shifted,
            true_target_accuracy=None if acc is None else float(acc),
        )

    return _load_cells(path, schema, "weights", "w", build)


# ---------------------------------------------------------------------------
# estimate

def _check(ds: TabularDataset, name: str) -> None:
    findings = validate_dataset(ds)
    if findings:
        raise ValidationError(f"{name}: " + "; ".join(findings[:5]))


def _check_at_least(*flags) -> None:
    """Each ``(flag, value, least)`` needs ``value >= least`` (NaN fails)."""
    for flag, value, least in flags:
        if not value >= least:
            raise ValidationError(f"{flag} must be >= {least}")


def _check_output_path(path: str, flag: str) -> None:
    """Fail on a path that cannot become the output file named by ``flag``,
    creating nothing."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"{flag} is a directory: {path!r}")
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(f"{flag} is empty or its directory is missing: {path!r}")


def cmd_estimate(args: argparse.Namespace) -> None:
    """Run the ``estimate`` command on parsed arguments. Every flag and the
    output path are checked before the data are read, so a bad flag fails
    the same way for any ``--method``."""
    schema = load_schema(args.schema_path)
    if not 0 <= args.sparsity <= schema.d:
        raise ValidationError(f"--sparsity must lie in 0..{schema.d} (the feature count)")
    _check_at_least(("--eta", args.eta, 0), ("--weight-bound", args.weight_bound, 1),
                    ("--bins", args.bins, 2))
    _check_output_path(args.output_path, "--output-path")
    source = load_dataset(args.source_path, schema)
    target = load_dataset(args.target_path, schema)
    for ds, name in ((source, "source"), (target, "target")):
        if ds.n == 0:
            raise ValidationError(f"{name} file has no data rows")
    if source.labels is None:
        raise ValidationError("source file has no label column")
    target = target.without_labels()
    _check(source, "source")
    _check(target, "target")
    align_schemas(source, target)

    if args.predictions_path:
        parts = args.predictions_path.split(",")
        if len(parts) != 2:
            raise ValidationError(
                "--predictions-path takes SOURCE_CSV,TARGET_CSV (two files)"
            )
        source = load_predictions(source, parts[0])
        target = load_predictions(target, parts[1])
    else:
        model = train_logistic(source)
        source = predict(model, source)
        target = predict(model, target)

    # the discretizer leaves an all-discrete dataset as it is
    disc = fit_discretizer(source, args.bins)
    truth = load_truth(args.truth_path, schema) if args.truth_path else None
    pair = Pair(source, target, truth,
                (apply_discretizer(disc, source), apply_discretizer(disc, target)))
    methods = METHODS if args.method == "all" else (args.method,)
    entries, errors = [], []
    for m in methods:
        try:
            entries.append(run_method(m, pair, args.sparsity, args.eta,
                                      args.weight_bound).to_dict())
        except ShiftScopeError as exc:
            errors.append(exc)
            entries.append({"method": m,
                            "error": {"category": exc.category, "message": str(exc)}})
    if len(errors) == len(methods):
        raise errors[0]
    payload = entries[0] if len(entries) == 1 else entries
    with open(args.output_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output_path}")


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args: argparse.Namespace) -> None:
    """Run the ``simulate`` command on parsed arguments. The three output
    paths are checked before any file is read."""
    _check_at_least(("--n", args.n, 1))
    outputs = [f"{args.out_prefix}.{part}" for part in ("source.csv", "target.csv", "truth.json")]
    for path in outputs:
        _check_output_path(path, "--out-prefix")
    schema = load_schema(args.schema_path)
    base = load_dataset(args.base_path, schema)
    if base.labels is None:
        raise ValidationError("base file has no label column")
    spec = load_shift_spec(args.spec_path, schema)
    source, target, truth = draw_pair(base, spec, args.n, args.n, args.seed)
    target, truth = score_target(train_logistic(source), target, truth)
    save_dataset(source, outputs[0], include_labels=True)
    save_dataset(target, outputs[1])
    save_truth(outputs[2], schema, truth)
    print(f"wrote {', '.join(outputs)}")


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftscope",
        description="Estimate and explain accuracy change under sparse joint shift",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the accuracy gap on a source/target pair")
    est.add_argument("--source-path", required=True)
    est.add_argument("--target-path", required=True)
    est.add_argument("--schema-path", required=True)
    est.add_argument("--output-path", required=True)
    est.add_argument("--method", default="sees-d", choices=METHODS + ("all",))
    est.add_argument("--sparsity", type=int, default=1)
    est.add_argument("--eta", type=float, default=SeesCConfig.eta)
    est.add_argument("--bins", type=int, default=5)
    est.add_argument("--weight-bound", type=float, default=SeesDConfig.weight_bound)
    est.add_argument("--predictions-path", default=None,
                     help="external predictions: SOURCE_CSV,TARGET_CSV")
    est.add_argument("--truth-path", default=None,
                     help="truth file from `simulate` to score weights and gap")

    sim = sub.add_parser("simulate", help="draw a shifted source/target pair from a base")
    sim.add_argument("--spec-path", required=True)
    sim.add_argument("--base-path", required=True)
    sim.add_argument("--schema-path", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-prefix", required=True)

    ben = sub.add_parser("bench", help="run a benchmark suite on bundled synthetic data")
    ben.add_argument("--suite", required=True,
                     choices=("tradeoff", "sparsity", "robustness", "sensitivity"))
    ben.add_argument("--seeds", type=int, default=5)
    ben.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "estimate":
            cmd_estimate(args)
        elif args.command == "simulate":
            cmd_simulate(args)
        else:
            _check_at_least(("--seeds", args.seeds, 1))
            _check_output_path(args.out, "--out")
            rows = bench.run_suite(args.suite, args.seeds, args.out)
            print(f"wrote {rows} rows to {args.out}")
    except FileNotFoundError as exc:
        print(f"ERROR FILE_NOT_FOUND: {exc}", file=sys.stderr)
        return 2
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"ERROR FILE_ERROR: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"ERROR {exc.category}: {exc}", file=sys.stderr)
        return 2
    except ShiftScopeError as exc:
        print(f"ERROR {exc.category}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"ERROR INTERNAL: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
