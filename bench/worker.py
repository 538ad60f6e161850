"""One benchmark phase in its own process: setup, run or check.

run.py starts this script with src/ on PYTHONPATH and the workload's BLAS
thread count in the environment; each phase prints one JSON object as its
last line of output.

    python3 bench/worker.py setup --workload W --seed N --work DIR
    python3 bench/worker.py run   --workload W --seed N --work DIR --seconds S --trace 0|1
    python3 bench/worker.py check --workload W --seed N --work DIR
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import settings


def _quiet(_msg) -> None:
    pass


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, work: Path) -> dict:
    # Imports and a previous run's outputs are not set-up work; the timer
    # starts after both, so a cold bytecode cache does not count either.
    import inputs
    from ssc import config, experiment

    shutil.rmtree(work, ignore_errors=True)
    t0 = perf_counter()
    files = inputs.generate(workload, seed, work)
    if settings.WORKLOADS[workload]["kind"] == "score":
        for name in ("cnn", "ml"):
            report = experiment.run_experiment(config.load_config(files[f"config_{name}"]),
                                               jobs=1, log=_quiet)
            if report.failures:
                raise RuntimeError(f"score set-up ({name}) failed: {report.failures}")
    return {"setup_s": perf_counter() - t0}


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def environment(spec: dict) -> dict:
    import ssc.nn

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "jobs": spec["jobs"],
        "SSC_PRECISION": os.environ.get("SSC_PRECISION", ""),
        "default_dtype": np.dtype(ssc.nn.default_dtype()).name,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _blas_threads():
    """Thread count OpenBLAS reports, read from the loaded library if possible."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def fit_round(spec: dict, work: Path, r: int) -> tuple[float, int, int]:
    from ssc import config, experiment

    cfg = config.load_config(work / "exp.conf")
    cfg = replace(cfg, output=str(work / f"round{r}"))
    shutil.rmtree(cfg.output, ignore_errors=True)
    t0 = perf_counter()
    report = experiment.run_experiment(cfg, jobs=spec["jobs"], log=_quiet)
    elapsed = perf_counter() - t0
    return elapsed, len(cfg.scenario_plans()), len(report.failures)


def checkpoint_paths(root: Path) -> list[tuple[str, str]]:
    """(kind, path) of every saved member, in a fixed order."""
    paths = sorted(root.glob("checkpoints/*/*.ckpt"))
    return [(p.name.split(".")[0], str(p)) for p in paths]


def score_round(spec: dict, work: Path, r: int) -> tuple[float, int, int]:
    """Load, encode and vote each ensemble's pool; a failed half fails all its texts."""
    from ssc import config, corpus, encoding, ensemble, experiment

    t0 = perf_counter()
    ctx = experiment.build_feature_context(config.load_config(work / "cnn.conf"))
    votes, attempted, failed = {}, 0, 0
    for name in ("cnn", "ml"):
        pool = corpus.load_dataset(work / f"pool_{name}.tsv")
        attempted += len(pool)
        try:
            members = ensemble.resolve_members(ensemble.EnsembleSpec(
                tuple(checkpoint_paths(work / f"train_{name}")), mode="strict"))
            enc = encoding.encode_dataset(pool, ctx, with_word=name == "cnn",
                                          with_char=name == "cnn")
            votes[name] = ensemble.ensemble_vote_batch(members, enc)
        except Exception as e:  # counted as failed operations, reported on stderr
            print(f"score {name} ensemble failed: {e!r}", file=sys.stderr)
            failed += len(pool)
    elapsed = perf_counter() - t0
    for name, v in votes.items():
        np.save(work / f"votes_{name}.round{r}.npy", v)
    return elapsed, attempted, failed


def run(workload: str, seed: int, work: Path, seconds: float, trace: bool) -> dict:
    spec = settings.WORKLOADS[workload]
    env = environment(spec)
    round_fn = fit_round if spec["kind"] == "fit" else score_round
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()

    rounds = []
    measured = 0.0
    r = 0
    while True:
        traced = trace and r % 2 == 1  # a trace run alternates plain and traced rounds
        if traced:
            tracer.install()
        cpu0 = _cpu_s()
        try:
            elapsed, attempted, failed = round_fn(spec, work, r)
        finally:
            if traced:
                tracer.unpatch()
        rounds.append({"elapsed": elapsed, "traced": traced, "attempted": attempted,
                       "failed": failed, "cpu_s": _cpu_s() - cpu0})
        if spec["kind"] == "fit" and r > 0:
            shutil.rmtree(work / f"round{r}" / "checkpoints", ignore_errors=True)
        measured += elapsed
        r += 1
        if measured >= seconds and (not trace or r >= 2):
            break

    result = {"env": env, "rounds": rounds,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if trace:
        import tracing
        n_traced = sum(x["traced"] for x in rounds)
        plain = [x for x in rounds if not x["traced"]]
        layer = tracing.per_layer(tracer.spans, n_traced)
        layer["process.cpu_s"] = statistics.median(x["cpu_s"] for x in plain)
        layer["trace.overhead_s"] = (
            statistics.median(x["elapsed"] for x in rounds if x["traced"])
            - statistics.median(x["elapsed"] for x in plain))
        result["per_layer"] = layer
        result["self_times"] = tracing.self_time_table(tracer.spans, n_traced)
        (work / "fit_losses.json").write_text(json.dumps(tracing.fit_losses(tracer.spans)))
        tracer.dump(work / "spans.jsonl")
    return result


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def check(workload: str, seed: int, work: Path) -> dict:
    import checks

    spec = settings.WORKLOADS[workload]
    if spec["kind"] == "fit":
        found, info = check_fit(work, spec["widen"])
    else:
        found, info = check_score(seed, work)
    for name, floor in settings.FLOORS.get(workload, {}).items():
        if f"accuracy.{name}" in info:  # absent when its operations failed
            found[f"floor.{name}"] = checks.check_floor(info[f"accuracy.{name}"], floor, name)
    return {"checks": found, "info": info}


def check_fit(work: Path, widened: bool) -> tuple[dict, dict]:
    """Round 0 in full; later rounds must repeat its CSVs byte for byte.

    A scenario that run_experiment lists as failed is counted by the run
    phase and skipped here; the checks speak of the completed scenarios.
    """
    import checks
    from ssc import config, corpus, encoding, ensemble, experiment, nn

    cfg = config.load_config(work / "exp.conf")
    out = work / "round0"
    labels = checks.parse_corpus((work / "corpus.tsv").read_text())
    pool = corpus.load_dataset(work / "corpus.tsv").by_id()
    ctx = experiment.build_feature_context(cfg)
    roster = cfg.roster_members()
    found = {k: [] for k in ("outputs", "report_rows", "report_means", "fold_plans",
                             "member_metrics", "ensemble_votes", "fit_loss", "repeat_rounds",
                             *(["wide_vocab"] if widened else []))}
    failures = out / "failures.txt"
    failed = checks.failed_scenarios(failures.read_text()) if failures.exists() else []
    info = {"failed_scenarios": failed}
    specs = [s.strip() for s in cfg.scenarios.split(",")]
    labels_by_spec = [checks.scenario_counts(s)[0] for s in specs]
    done = [(s, lab) for s, lab in zip(specs, labels_by_spec) if lab not in failed]
    report_text = (out / "report.csv").read_text()
    found["report_rows"] += checks.check_report_rows(
        report_text, checks.expected_report_rows([lab for _, lab in done], roster))

    traced = work / "fit_losses.json"  # every epoch's loss, when the run was traced
    losses = json.loads(traced.read_text()) if traced.exists() else []
    with_word = "word_aux" in roster
    with_char = any(k in roster for k in ("char_aux", "char_cnn"))
    for spec_text, label in done:
        tag = label.replace(":", "-")
        plan_file = out / "fold_plans" / f"scenario_{tag}.folds"
        per_fold_file = out / "per_fold" / f"{tag}.csv"
        missing = [p.name for p in (plan_file, per_fold_file) if not p.exists()]
        if missing:
            found["outputs"].append(f"{label}: missing {', '.join(missing)}")
            continue
        plan = checks.parse_fold_plan(plan_file.read_text())
        found["fold_plans"] += checks.check_fold_plan(plan, labels, spec_text, k=cfg.folds)
        per_fold = checks.parse_csv(per_fold_file.read_text())
        found["report_means"] += checks.check_report_means(report_text, per_fold)
        rows = {(r["model"], int(r["fold"])): r for r in per_fold}
        for fold, (_, test_ids) in sorted(plan.items()):
            gold = np.array([labels[i] for i in test_ids])
            test = corpus.Dataset(pool[i] for i in test_ids)
            enc = encoding.encode_dataset(test, ctx, with_word=with_word, with_char=with_char)
            groups: dict[str, tuple[list, list]] = {}
            for path in sorted((out / "checkpoints" / tag).glob(f"*.f{fold}.ckpt")):
                kind, member_tag = path.name.split(".")[:2]
                member = ensemble.load_member(kind, str(path))
                classes, probs = member.predict_batch(enc)
                row = rows.get((f"{kind}.{member_tag}", fold))
                found["member_metrics"] += (checks.check_row(row, classes, gold) if row else
                                            [f"{label} fold {fold}: no row for {path.name}"])
                family = "ensemble_cnn" if kind in checks.CNN_KINDS else "ensemble_ml"
                groups.setdefault(family, ([], []))
                groups[family][0].append(classes)
                groups[family][1].append(probs)
                if kind in checks.CNN_KINDS:
                    losses.append(nn.load_checkpoint(str(path)).metrics["fit_loss"])
            n_saved = sum(len(c) for c, _ in groups.values())
            if n_saved != len(roster):
                found["member_metrics"].append(
                    f"{label} fold {fold}: {n_saved} checkpoints for {len(roster)} members")
            for family, (classes, probs) in groups.items():
                if (family, fold) not in rows:
                    continue
                votes = checks.vote(np.stack(classes), np.stack(probs))
                found["ensemble_votes"] += checks.check_row(rows[(family, fold)], votes, gold)
                if label == labels_by_spec[0]:
                    info[f"accuracy.{family}"] = float(np.mean(votes == gold))
        if widened:
            ckpt = next((out / "checkpoints" / tag).glob("svm.*.ckpt"), None)
            size = len(nn.load_checkpoint(str(ckpt)).metadata["vocab"].split()) if ckpt else 0
            info[f"tfidf_vocab.{label}"] = size
            if size < settings.WIDE_VOCAB_MIN:
                found["wide_vocab"].append(f"{label}: TF-IDF vocabulary {size} < "
                                           f"{settings.WIDE_VOCAB_MIN}")
    found["fit_loss"] += checks.check_finite(losses, "fit_loss")

    for later in sorted(work.glob("round[1-9]*")):
        for rel in ["report.csv"] + [f"per_fold/{lab.replace(':', '-')}.csv" for lab in labels_by_spec]:
            mine, first = later / rel, out / rel
            if mine.exists() != first.exists() or (
                    first.exists() and mine.read_bytes() != first.read_bytes()):
                found["repeat_rounds"].append(f"{later.name}/{rel} differs from round0")
    return found, info


def check_score(seed: int, work: Path) -> tuple[dict, dict]:
    import checks
    from ssc import config, corpus, encoding, ensemble, experiment, nn

    ctx = experiment.build_feature_context(config.load_config(work / "cnn.conf"))
    found = {k: [] for k in ("ensemble_votes", "nb_posterior", "single_vs_batch", "repeat_rounds")}
    info = {}
    rng = np.random.default_rng([seed, 3])
    for name in ("cnn", "ml"):
        if not (work / f"votes_{name}.round0.npy").exists():
            continue  # this ensemble failed; the run phase counted its texts as failed
        text = (work / f"pool_{name}.tsv").read_text()
        gold_by_id = checks.parse_corpus(text)
        pool = corpus.load_dataset(work / f"pool_{name}.tsv")
        gold = np.array([gold_by_id[t.id] for t in pool])
        enc = encoding.encode_dataset(pool, ctx, with_word=name == "cnn", with_char=name == "cnn")
        classes, probs = [], []
        for kind, path in checkpoint_paths(work / f"train_{name}"):
            member = ensemble.load_member(kind, path)
            c, p = member.predict_batch(enc)
            classes.append(c)
            probs.append(p)
            for i in rng.choice(len(enc), size=8, replace=False):
                single = member.predict(enc, int(i))[0]
                if single != c[i]:
                    found["single_vs_batch"].append(
                        f"{Path(path).name}: item {int(i)} predict {single}, batch {int(c[i])}")
            if kind == "nb":
                cp = nn.load_checkpoint(path)
                nb_cls, nb_p = checks.nb_posterior(cp.arrays["log_prior"], cp.arrays["log_likelihood"],
                                                   cp.metadata["vocab"].split(), enc.tokens)
                bad = np.flatnonzero((np.abs(nb_p - p) > 1e-6)
                                     | ((nb_cls != c) & (np.abs(nb_p - 0.5) > 1e-6)))
                if bad.size:
                    found["nb_posterior"].append(
                        f"{Path(path).name}: {bad.size} items differ from log_prior + "
                        f"counts @ log_likelihood.T (first {int(bad[0])})")
        votes = np.load(work / f"votes_{name}.round0.npy")
        found["ensemble_votes"] += checks.check_votes(votes, np.stack(classes), np.stack(probs),
                                                      f"ensemble_{name}")
        for later in sorted(work.glob(f"votes_{name}.round[1-9]*.npy")):
            if not np.array_equal(np.load(later), votes):
                found["repeat_rounds"].append(f"{later.name} differs from round 0")
        info[f"accuracy.ensemble_{name}"] = float(np.mean(votes == gold))
    return found, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("phase", choices=("setup", "run", "check"))
    ap.add_argument("--workload", required=True, choices=sorted(settings.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.phase == "setup":
        result = setup(args.workload, args.seed, args.work)
    elif args.phase == "run":
        result = run(args.workload, args.seed, args.work, args.seconds, bool(args.trace))
    else:
        result = check(args.workload, args.seed, args.work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
