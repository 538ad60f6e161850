"""Spans around the calls into each ssc module, recorded from outside ssc.

Each public function is wrapped where its caller looks it up (a module
attribute such as ssc.nn.conv1d, or a name imported into ssc.experiment).
Op backward time is taken by wrapping the backward closure on the tensor an
op returns. A span is (id, name, start, end, parent, thread, attrs); spans
are kept in memory and written out when the run ends. Worker threads of the
jobs pool inherit the submitting thread's current span as their parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import ssc.baselines
import ssc.encoding
import ssc.ensemble
import ssc.experiment
import ssc.models
import ssc.nn
import ssc.nn.optim
import ssc.nn.tensor

from checks import CNN_KINDS, ML_KINDS

OP_GROUPS = {
    "conv1d": "nn.conv1d",
    "embedding_lookup": "nn.embedding_lookup",
    "dense": "nn.dense",
    "maxpool1d": "nn.pool",
    "global_maxpool": "nn.pool",
    **{op: "nn.other" for op in ("relu", "tanh", "selu", "concat", "reshape",
                                 "dropout", "softmax_xent", "softmax")},
}
MEMBER_KINDS = CNN_KINDS + ML_KINDS


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn, attrs=None):
        """fn timed as a span; attrs(args, kwargs, result) may add a dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            st = self.stack()
            parent = st[-1] if st else 0
            st.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.pop()
            extra = attrs(args, kwargs, out) if attrs else None
            self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), extra))
            return out

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every traced entry point; unpatch() restores the originals."""
        for op, group in OP_GROUPS.items():
            self.patch(ssc.nn, op, self._op(op, group, getattr(ssc.nn, op)))
        w = self.wrap
        self.patch(ssc.nn.tensor.Tensor, "backward",
                   w("nn.backward", ssc.nn.tensor.Tensor.backward))
        self.patch(ssc.nn.optim.Adam, "step", w("nn.adam.step", ssc.nn.optim.Adam.step))
        save_attrs = lambda a, kw, out: {"bytes": os.path.getsize(a[1])}  # noqa: E731
        load_attrs = lambda a, kw, out: {"bytes": os.path.getsize(a[0])}  # noqa: E731
        for owner in (ssc.experiment, ssc.ensemble):
            self.patch(owner, "save_checkpoint",
                       w("nn.checkpoint.save", owner.save_checkpoint, save_attrs))
        self.patch(ssc.ensemble, "load_checkpoint",
                   w("nn.checkpoint.load", ssc.ensemble.load_checkpoint, load_attrs))
        self.patch(ssc.models, "train", w("models.train", ssc.models.train, _train_attrs))
        self.patch(ssc.models, "predict_batch",
                   w("models.predict", ssc.models.predict_batch,
                     lambda a, kw, out: {"n": len(a[1])}))
        encode_attrs = lambda a, kw, out: {"n": len(out)}  # noqa: E731
        for owner in (ssc.experiment, ssc.encoding):
            self.patch(owner, "encode_dataset",
                       w("encoding.encode", owner.encode_dataset, encode_attrs))
        ex = ssc.experiment
        self.patch(ex, "make_folds", w("corpus.make_folds", ex.make_folds))
        self.patch(ex, "fold_datasets", w("corpus.fold_datasets", ex.fold_datasets))
        self.patch(ex, "train_cnn_member", w("experiment.train_cnn_member", ex.train_cnn_member))
        self.patch(ex, "run_experiment", w("experiment.run_experiment", ex.run_experiment))
        self.patch(ex, "ThreadPoolExecutor", self._executor())
        for owner in (ssc.experiment, ssc.ensemble):
            self.patch(owner, "ensemble_vote_batch",
                       w("ensemble.vote", owner.ensemble_vote_batch))
        self.patch(ssc.ensemble, "load_member", w("ensemble.load", ssc.ensemble.load_member))
        kind_attrs = lambda a, kw, out: {"kind": a[0].kind, "n": len(a[1])}  # noqa: E731
        for cls in (ssc.ensemble.CnnMember, ssc.ensemble.BowMember):
            self.patch(cls, "predict_batch", w("ensemble.predict", cls.predict_batch, kind_attrs))
        b = ssc.baselines
        for fn in ("fit_tfidf", "vectorize"):
            self.patch(b, fn, w("baselines.tfidf", getattr(b, fn)))
        self.patch(b, "dense_matrix", w("baselines.tfidf", b.dense_matrix,
                                        lambda a, kw, out: {"bytes": out.nbytes}))
        for fn in ("train_svm", "calibrate_svm"):
            self.patch(b, fn, w("baselines.svm.train", getattr(b, fn)))
        self.patch(b, "train_rf", w("baselines.rf.train", b.train_rf,
                                    lambda a, kw, out: {"nodes": sum(len(t.feature) for t in out.trees)}))
        self.patch(b, "train_nb", w("baselines.nb.train", b.train_nb))

    def _op(self, op: str, group: str, fn):
        """Wrap an nn op: a forward span, and a span around its backward closure."""
        conv = op == "conv1d"

        def fwd_attrs(args, kwargs, out):
            if not conv:
                return {"op": op}
            return {"op": op, "flop": _conv_flop(args, _tensor(out))[0]}

        fwd = self.wrap(f"{group}.fwd", fn, fwd_attrs)

        def traced(*args, **kwargs):
            out = fwd(*args, **kwargs)
            tensor = _tensor(out)
            if isinstance(tensor, ssc.nn.Tensor) and tensor._bwd is not None \
                    and not any(tensor is a for a in args):
                attrs = {"op": op}
                if conv:
                    attrs["flop"] = _conv_flop(args, tensor)[1]
                tensor._bwd = self.wrap(f"{group}.bwd", tensor._bwd, lambda a, kw, o: attrs)
            return out

        return functools.wraps(fn)(traced)

    def _executor(self):
        tracer = self

        class PropagatingExecutor(ThreadPoolExecutor):
            """ThreadPoolExecutor whose tasks start under the submitter's span."""

            def submit(self, fn, /, *args, **kwargs):
                st = tracer.stack()
                parent = [st[-1]] if st else []

                def run(*a, **kw):
                    mine = tracer.stack()
                    saved = mine[:]
                    mine[:] = parent
                    try:
                        return fn(*a, **kw)
                    finally:
                        mine[:] = saved

                return super().submit(run, *args, **kwargs)

        return PropagatingExecutor

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, thread, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "thread": thread,
                                     "attrs": attrs}) + "\n")


def _train_attrs(args, kwargs, checkpoints) -> dict:
    return {
        "kind": args[0].kind,
        "snapshot_bytes": sum(a.nbytes for cp in checkpoints for a in cp.arrays.values()),
        "fit_loss": [cp.metrics["fit_loss"] for cp in checkpoints],
    }


def _tensor(out):
    """The tensor an op returns (softmax_xent returns (loss, probs))."""
    return out[0] if isinstance(out, tuple) else out


def _conv_flop(args, out) -> tuple[int, int]:
    """(forward, backward) multiply-add FLOPs of one conv1d call, from shapes."""
    x, kernel = args[0], args[1]
    k, c, f = kernel.shape
    positions = out.data.size // f  # B * L_out
    one = 2 * positions * k * c * f
    grads = int(getattr(kernel, "requires_grad", False)) + int(getattr(x, "requires_grad", False))
    return one, one * grads


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, t0, t1, parent, _, _ in spans:
        children.setdefault(parent, []).append((t0, t1))
    return {sid: (t1 - t0) - _union_length(children.get(sid, ()))
            for sid, _, t0, t1, _, _, _ in spans}


def per_layer(spans, rounds: int) -> dict[str, float]:
    """Per-layer metrics per traced round (rates are ratios of totals)."""
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    selfs = self_times(spans)

    def total(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum((s[6] or {}).get(key, 0) for s in by_name.get(name, ()))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m: dict[str, float] = {}
    m["corpus.folds_s"] = total("corpus.make_folds") + total("corpus.fold_datasets")
    m["encoding.encode_s"] = total("encoding.encode")
    m["encoding.items_per_s"] = rate(attr_sum("encoding.encode", "n"), m["encoding.encode_s"])
    conv_fwd_flop = attr_sum("nn.conv1d.fwd", "flop")
    conv_bwd_flop = attr_sum("nn.conv1d.bwd", "flop")
    for group in ("nn.conv1d", "nn.embedding_lookup", "nn.dense", "nn.pool", "nn.other"):
        m[f"{group}.fwd_s"] = total(f"{group}.fwd")
        m[f"{group}.bwd_s"] = total(f"{group}.bwd")
    m["nn.conv1d.gflop"] = (conv_fwd_flop + conv_bwd_flop) / 1e9
    m["nn.conv1d.fwd_gflops"] = rate(conv_fwd_flop / 1e9, m["nn.conv1d.fwd_s"])
    m["nn.conv1d.bwd_gflops"] = rate(conv_bwd_flop / 1e9, m["nn.conv1d.bwd_s"])
    m["nn.backward_s"] = total("nn.backward")
    m["nn.adam.step_s"] = total("nn.adam.step")
    m["nn.adam.steps"] = len(by_name.get("nn.adam.step", ()))
    m["nn.checkpoint.save_s"] = total("nn.checkpoint.save")
    m["nn.checkpoint.save_mb"] = attr_sum("nn.checkpoint.save", "bytes") / 1e6
    m["nn.checkpoint.load_s"] = total("nn.checkpoint.load")
    m["nn.checkpoint.load_mb"] = attr_sum("nn.checkpoint.load", "bytes") / 1e6

    trains = by_name.get("models.train", ())
    val_predict: dict[int, float] = {}
    steps: dict[int, int] = {}
    for s in by_name.get("models.predict", ()):
        val_predict[s[4]] = val_predict.get(s[4], 0.0) + (s[3] - s[2])
    for s in by_name.get("nn.adam.step", ()):
        steps[s[4]] = steps.get(s[4], 0) + 1
    for kind in CNN_KINDS:
        mine = [s for s in trains if s[6]["kind"] == kind]
        train_s = sum(s[3] - s[2] for s in mine)
        fit_s = sum(s[3] - s[2] - val_predict.get(s[0], 0.0) for s in mine)
        n_steps = sum(steps.get(s[0], 0) for s in mine)
        m[f"models.train_s.{kind}"] = train_s
        m[f"models.step_ms.{kind}"] = rate(1e3 * fit_s, n_steps)
    m["models.snapshot_mb"] = max((s[6]["snapshot_bytes"] for s in trains), default=0) / 1e6
    m["models.predict_s"] = total("models.predict")
    m["models.predict_items_per_s"] = rate(attr_sum("models.predict", "n"), m["models.predict_s"])
    m["baselines.tfidf_s"] = total("baselines.tfidf")
    m["baselines.features_mb"] = attr_sum("baselines.tfidf", "bytes") / 1e6
    for kind in ("svm", "rf", "nb"):
        m[f"baselines.{kind}.train_s"] = total(f"baselines.{kind}.train")
    m["baselines.rf.nodes"] = attr_sum("baselines.rf.train", "nodes")
    predicts = by_name.get("ensemble.predict", ())
    for kind in MEMBER_KINDS:
        m[f"ensemble.predict_s.{kind}"] = sum(s[3] - s[2] for s in predicts if s[6]["kind"] == kind)
    m["ensemble.vote_s"] = sum(selfs[s[0]] for s in by_name.get("ensemble.vote", ()))
    m["ensemble.load_s"] = total("ensemble.load")
    m["experiment.self_s"] = sum(selfs[s[0]] for s in by_name.get("experiment.run_experiment", ()))
    m["experiment.cnn_member_s"] = total("experiment.train_cnn_member")
    m["experiment.cnn_phase_s"] = _cnn_phase(by_name)
    # Rates, maxima and per-step times are not per-round sums.
    keep = {"encoding.items_per_s", "nn.conv1d.fwd_gflops", "nn.conv1d.bwd_gflops",
            "models.predict_items_per_s", "models.snapshot_mb",
            *(f"models.step_ms.{kind}" for kind in CNN_KINDS)}
    return {k: (v if k in keep else v / rounds) for k, v in m.items()}


def _cnn_phase(by_name) -> float:
    """Wall time of each fold's CNN-training block, summed over folds.

    A fold starts at its fold_datasets call; its block runs from the first
    train_cnn_member start to the last end among the members that started
    after that call and share its parent.
    """
    fold_starts: dict[int, list[float]] = {}
    for s in by_name.get("corpus.fold_datasets", ()):
        fold_starts.setdefault(s[4], []).append(s[2])
    blocks: dict[tuple[int, float], list[float]] = {}
    for s in by_name.get("experiment.train_cnn_member", ()):
        starts = [t for t in fold_starts.get(s[4], ()) if t <= s[2]]
        key = (s[4], max(starts) if starts else 0.0)
        lo_hi = blocks.setdefault(key, [s[2], s[3]])
        lo_hi[0] = min(lo_hi[0], s[2])
        lo_hi[1] = max(lo_hi[1], s[3])
    return sum(hi - lo for lo, hi in blocks.values())


def self_time_table(spans, rounds: int) -> list[tuple[str, int, float, float]]:
    """(name, calls, total_s, self_s) per span name, per round."""
    selfs = self_times(spans)
    rows: dict[str, list[float]] = {}
    for s in spans:
        r = rows.setdefault(s[1], [0, 0.0, 0.0])
        r[0] += 1
        r[1] += s[3] - s[2]
        r[2] += selfs[s[0]]
    return sorted(((n, int(c / rounds), t / rounds, sf / rounds) for n, (c, t, sf) in rows.items()),
                  key=lambda r: -r[3])


def fit_losses(spans) -> list[float]:
    return [x for s in spans if s[1] == "models.train" for x in s[6]["fit_loss"]]
