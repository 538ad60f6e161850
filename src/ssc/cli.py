"""Command-line interface.

Subcommands are thin wrappers over the library: dataset utilities
(validate/dedupe/aggregate/resample/folds/synth), single-model train and
evaluate, ensemble evaluation, the full scenario experiment, agreement
statistics, the annotation pre-filter, and one-off prediction.

The SSC_PRECISION environment variable (32 or 64) selects the numeric mode
before any model is built. Exit status is nonzero iff any error was
reported.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import baselines, synth
from .agreement import cohen_kappa, krippendorff_alpha
from .config import ExperimentConfig, dump_config, load_config
from .corpus import (
    Dataset,
    ScenarioPlan,
    Tweet,
    aggregate_labels,
    dedupe,
    load_annotations,
    load_dataset,
    make_folds,
    make_scenario,
    save_dataset,
    save_fold_plan,
)
from .encoding import encode_dataset
from .ensemble import (
    CNN_KINDS,
    KINDS,
    TAG_KINDS,
    EnsembleSpec,
    ensemble_vote_batch,
    input_flags,
    load_member,
    resolve_members,
    save_baseline_member,
)
from .experiment import (
    build_feature_context,
    emit_report,
    run_experiment,
    train_bow_member,
    train_cnn_member,
)
from .metrics import CSV_HEADER, compute_metrics
from .nn import load_checkpoint, save_checkpoint


def _err(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    overrides = {}
    if getattr(args, "output", None):
        overrides["output"] = args.output
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return replace(cfg, **overrides) if overrides else cfg


def _parse_ratio(text: str) -> tuple[int, int]:
    pos, _, neg = text.partition(":")
    return int(pos), int(neg)


# ---------------------------------------------------------------------------
# dataset subcommand
# ---------------------------------------------------------------------------

def cmd_dataset(args) -> int:
    if args.action == "validate":
        ds = load_dataset(args.input)
        labeled = sum(1 for t in ds if t.label is not None)
        pos = sum(1 for t in ds if t.label == 1)
        print(f"{len(ds)} items, {labeled} labeled ({pos} positive, {labeled - pos} negative)")
        return 0
    if args.action == "dedupe":
        ds = load_dataset(args.input)
        deduped, removed = dedupe(ds)
        save_dataset(deduped, args.output)
        print(f"removed {removed} duplicates, kept {len(deduped)}")
        return 0
    if args.action == "aggregate":
        ann = load_annotations(args.annotations)
        result = aggregate_labels(ann)
        ds = load_dataset(args.input)
        labeled = []
        for t in ds:
            label = result.labels.get(t.id, t.label)
            labeled.append(Tweet(t.id, t.text, label))
        save_dataset(Dataset(labeled), args.output)
        print(f"aggregated {len(result.labels)} labels")
        if result.rejected:
            for item_id, reason in result.rejected.items():
                print(f"rejected {item_id}: {reason}", file=sys.stderr)
            return 1
        return 0
    if args.action == "resample":
        ds = load_dataset(args.input)
        plan = ScenarioPlan(_parse_ratio(args.ratio), args.train, args.test, args.seed)
        train, test = make_scenario(ds, plan)
        save_dataset(train, args.output_train)
        save_dataset(test, args.output_test)
        print(f"train {len(train)}, test {len(test)} at {plan.label}")
        return 0
    if args.action == "folds":
        ds = load_dataset(args.input)
        plan = ScenarioPlan(_parse_ratio(args.ratio), args.train, args.test, args.seed)
        folds = make_folds(ds, plan, args.k)
        save_fold_plan(folds, args.output)
        print(f"{folds.k} folds written to {args.output}")
        return 0
    if args.action == "synth":
        ds = synth.generate_dataset(args.positives, args.negatives, seed=args.seed)
        save_dataset(ds, args.output)
        print(f"wrote {len(ds)} synthetic items to {args.output}")
        if args.fixtures:
            paths = synth.write_fixture_files(args.fixtures, embed_dim=args.embed_dim,
                                              seed=args.seed)
            for name, p in paths.items():
                print(f"wrote {name}: {p}")
        return 0
    return _err(f"unknown dataset action {args.action!r}")


# ---------------------------------------------------------------------------
# train / evaluate / ensemble / predict
# ---------------------------------------------------------------------------

def _encoder(cfg: ExperimentConfig, kinds):
    """Dataset -> EncodedSet with the inputs that members of these kinds read."""
    inputs = input_flags(kinds)
    ctx = build_feature_context(cfg)
    if inputs["with_word"] and ctx.table is None:
        raise ValueError("word models need an embeddings path in the config")
    return lambda ds: encode_dataset(ds, ctx, **inputs)


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    kind = args.kind
    enc = _encoder(cfg, [kind])(load_dataset(args.train_data))
    seed = cfg.seed if args.seed is None else args.seed
    if kind in CNN_KINDS:
        member, best = train_cnn_member(kind, enc, cfg, init_seed=seed,
                                        train_seed=seed + 1)
        save_checkpoint(best, args.output)
        print(f"best epoch {best.epoch}: "
              + " ".join(f"{k}={v:.4f}" for k, v in sorted(best.metrics.items())))
        return 0
    vocab, idf = baselines.fit_tfidf(enc.tokens)
    x = baselines.bow_features(enc, vocab, idf)
    member = train_bow_member(kind, 0, enc, x, vocab, idf, enc.labels, cfg, seed)
    save_baseline_member(member, args.output)
    print(f"trained {kind}, saved to {args.output}")
    return 0


def _member_from_path(path):
    cp = load_checkpoint(path)
    tag = cp.metadata.get("kind", "")
    if tag not in TAG_KINDS:
        raise ValueError(f"{path}: unknown member kind tag {tag!r}")
    return TAG_KINDS[tag], load_member(TAG_KINDS[tag], cp)


def cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    kind, member = _member_from_path(args.checkpoint)
    enc = _encoder(cfg, [kind])(load_dataset(args.test_data))
    if enc.labels is None:
        return _err("test data must be fully labeled")
    pred, _ = member.predict_batch(enc)
    report = compute_metrics(pred.tolist(), list(enc.labels))
    print(CSV_HEADER)
    print(report.csv_row("-", kind))
    return 0


def cmd_ensemble(args) -> int:
    cfg = _load_cfg(args)
    loaded = [_member_from_path(p) for p in args.members.split(",")]
    spec = EnsembleSpec(tuple((k, m) for k, m in loaded), mode=args.mode)
    members = resolve_members(spec)
    enc = _encoder(cfg, [m.kind for m in members])(load_dataset(args.test_data))
    if enc.labels is None:
        return _err("test data must be fully labeled")
    votes = ensemble_vote_batch(members, enc)
    report = compute_metrics(votes.tolist(), list(enc.labels))
    print(CSV_HEADER)
    print(report.csv_row("-", "ensemble"))
    return 0


def cmd_predict(args) -> int:
    cfg = _load_cfg(args)
    kind, member = _member_from_path(args.checkpoint)
    enc = _encoder(cfg, [kind])(Dataset([Tweet("input0", args.text)]))
    cls, p_pos = member.predict(enc, 0)
    label = "positive" if cls == 1 else "negative"
    print(f"{label}\tp_positive={p_pos:.6f}")
    return 0


# ---------------------------------------------------------------------------
# experiment / agreement / prefilter
# ---------------------------------------------------------------------------

def cmd_experiment(args) -> int:
    cfg = _load_cfg(args)
    report = run_experiment(cfg, jobs=args.jobs)
    print(emit_report(report, args.format), end="")
    if report.failures:
        for failure in report.failures:
            print(f"error: {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_agreement(args) -> int:
    ann = load_annotations(args.annotations)
    alpha = krippendorff_alpha(ann)
    if alpha is None:
        print("alpha=not computable (no pairable values)")
    else:
        print(f"alpha={alpha:.6f}")
    if args.kappa:
        a_id, _, b_id = args.kappa.partition(",")
        a, b = [], []
        for anns in ann.entries.values():
            by = dict(anns)
            if a_id in by and b_id in by:
                a.append(by[a_id])
                b.append(by[b_id])
        if not a:
            return _err(f"no items annotated by both {a_id!r} and {b_id!r}")
        print(f"kappa[{a_id},{b_id}]={cohen_kappa(a, b):.6f}")
    return 0


def cmd_prefilter(args) -> int:
    cfg = _load_cfg(args)
    kind, member = _member_from_path(args.checkpoint)
    if kind != "svm":
        return _err("prefilter requires an SVM checkpoint")
    ds = load_dataset(args.input)
    x = baselines.bow_features(_encoder(cfg, [kind])(ds), member.vocab, member.idf)
    result = baselines.prefilter(ds, member.model, x, threshold=args.threshold,
                                 sample_n=args.sample, seed=args.seed)
    save_dataset(result.sample, args.output)
    print(f"{result.n_qualified} items above threshold, wrote {len(result.sample)}")
    if result.warned:
        print("warning: fewer qualifying items than requested", file=sys.stderr)
    return 0


def cmd_config_dump(args) -> int:
    cfg = _load_cfg(args)
    print(dump_config(cfg), end="")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssc", description="Imbalanced short-text classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="dataset utilities")
    ds_sub = ds.add_subparsers(dest="action", required=True)
    p = ds_sub.add_parser("validate")
    p.add_argument("--input", required=True)
    p = ds_sub.add_parser("dedupe")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p = ds_sub.add_parser("aggregate")
    p.add_argument("--input", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--output", required=True)
    p = ds_sub.add_parser("resample")
    p.add_argument("--input", required=True)
    p.add_argument("--ratio", required=True, help="e.g. 50:50")
    p.add_argument("--train", type=int, required=True)
    p.add_argument("--test", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-train", required=True)
    p.add_argument("--output-test", required=True)
    p = ds_sub.add_parser("folds")
    p.add_argument("--input", required=True)
    p.add_argument("--ratio", required=True)
    p.add_argument("--train", type=int, required=True)
    p.add_argument("--test", type=int, required=True)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p = ds_sub.add_parser("synth")
    p.add_argument("--positives", type=int, required=True)
    p.add_argument("--negatives", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.add_argument("--fixtures", help="also write lexicon/embedding fixtures here")
    p.add_argument("--embed-dim", type=int, default=50)
    ds.set_defaults(func=cmd_dataset)

    tr = sub.add_parser("train", help="train one model and save its best epoch")
    tr.add_argument("--config", required=True)
    tr.add_argument("--kind", required=True, choices=list(KINDS))
    tr.add_argument("--train-data", required=True)
    tr.add_argument("--output", required=True)
    tr.add_argument("--seed", type=int)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="evaluate a checkpoint on labeled data")
    ev.add_argument("--config", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--test-data", required=True)
    ev.set_defaults(func=cmd_evaluate)

    en = sub.add_parser("ensemble", help="majority-vote a set of checkpoints")
    en.add_argument("--config", required=True)
    en.add_argument("--members", required=True, help="comma-separated checkpoint paths")
    en.add_argument("--test-data", required=True)
    en.add_argument("--mode", choices=["strict", "free"], default="strict")
    en.set_defaults(func=cmd_ensemble)

    ex = sub.add_parser("experiment", help="full scenario grid experiment")
    ex.add_argument("--config", required=True)
    ex.add_argument("--output")
    ex.add_argument("--seed", type=int)
    ex.add_argument("--jobs", type=int, default=1)
    ex.add_argument("--format", choices=["csv", "markdown"], default="csv")
    ex.set_defaults(func=cmd_experiment)

    ag = sub.add_parser("agreement", help="annotation reliability statistics")
    ag.add_argument("--annotations", required=True)
    ag.add_argument("--kappa", help="two annotator ids, comma-separated")
    ag.set_defaults(func=cmd_agreement)

    pf = sub.add_parser("prefilter", help="confidently machine-labeled sample")
    pf.add_argument("--config", required=True)
    pf.add_argument("--checkpoint", required=True, help="calibrated SVM checkpoint")
    pf.add_argument("--input", required=True)
    pf.add_argument("--threshold", type=float, default=0.8)
    pf.add_argument("--sample", type=int)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--output", required=True)
    pf.set_defaults(func=cmd_prefilter)

    pr = sub.add_parser("predict", help="classify a single text")
    pr.add_argument("--config", required=True)
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--text", required=True)
    pr.set_defaults(func=cmd_predict)

    cd = sub.add_parser("config", help="parse and dump a config with defaults")
    cd.add_argument("--config", required=True)
    cd.set_defaults(func=cmd_config_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:
        return _err(str(e))


if __name__ == "__main__":
    sys.exit(main())
