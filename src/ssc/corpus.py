"""Dataset ingestion, annotation aggregation, deduplication, and resampling.

Text items are immutable records with a string id and an optional binary
label (1 = positive, 0 = negative). Annotations are a plain dict of item id
-> ((annotator id, label), ...), checked once by load_annotations. All file
formats are line-oriented, tab-separated UTF-8 so they diff cleanly and
round-trip exactly.

Every line-oriented input file of ssc, the config, lexicons, maps and
embeddings included, is read by read_lines: a malformed file is refused
once, naming its path and its first MAX_BAD_LINES bad lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

NEGATIVE = 0
POSITIVE = 1

UNLABELED_TOKEN = "-"
_LABEL_TOKENS = {"0": NEGATIVE, "1": POSITIVE, UNLABELED_TOKEN: None}

MAX_BAD_LINES = 20  # bad lines a refused file lists; the rest are counted
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class CorpusError(ValueError):
    """Malformed corpus file or infeasible sampling request."""


def read_lines(path, what: str, parse: Callable[[str, int], object],
               error: type[Exception] = ValueError) -> list:
    """parse(line, lineno) of each line of a UTF-8 file, line end stripped, None results skipped.

    A byte-order mark before the first line is dropped. A line that is not
    valid UTF-8, or whose parse raises ValueError, is bad; a file with bad
    lines raises error after its last line, naming its path and its first
    MAX_BAD_LINES bad lines.
    """
    results, bad = [], []
    # surrogateescape decodes each undecodable byte to one lone surrogate, which UTF-8 never yields.
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            undecodable = _UNDECODABLE.search(line)
            if undecodable:
                byte = ord(undecodable[0]) - 0xDC00
                bad.append(f"line {lineno}: not valid UTF-8 "
                           f"(byte 0x{byte:02x} at character {undecodable.start() + 1})")
                continue
            try:
                result = parse(line, lineno)
            except ValueError as e:
                bad.append(f"line {lineno}: {e}")
                continue
            if result is not None:
                results.append(result)
    if bad:
        if len(bad) > MAX_BAD_LINES:
            bad[MAX_BAD_LINES:] = [f"... and {len(bad) - MAX_BAD_LINES} more bad lines"]
        raise error(f"malformed {what} file {path}:\n" + "\n".join(bad))
    return results


@dataclass(frozen=True)
class Tweet:
    """One text item. Label is None while unlabeled."""

    id: str
    text: str
    label: int | None = None

    def __post_init__(self):
        if not self.id:
            raise CorpusError("item id must be non-empty")
        if any(c in self.id for c in "\t\n\r"):
            raise CorpusError(f"item {self.id!r}: id must not contain tabs or line breaks")
        if not self.text:
            raise CorpusError(f"item {self.id!r}: text must be non-empty")
        if "\n" in self.text or "\r" in self.text:
            raise CorpusError(f"item {self.id!r}: text must not contain line breaks")
        if self.label not in (None, NEGATIVE, POSITIVE):
            raise CorpusError(f"item {self.id!r}: label must be 0, 1 or None")


class Dataset:
    """Ordered collection of tweets with unique ids."""

    def __init__(self, items: Iterable[Tweet]):
        items = tuple(items)
        seen: set[str] = set()
        for t in items:
            if t.id in seen:
                raise CorpusError(f"duplicate id {t.id!r}")
            seen.add(t.id)
        self.items: tuple[Tweet, ...] = items

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Tweet]:
        return iter(self.items)

    def __getitem__(self, i) -> Tweet:
        return self.items[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Dataset) and self.items == other.items

    def __repr__(self) -> str:
        return f"Dataset({len(self.items)} items)"

    @property
    def all_labeled(self) -> bool:
        return all(t.label is not None for t in self.items)

    def by_class(self) -> tuple[list[Tweet], list[Tweet]]:
        """Split into (positives, negatives); requires a fully labeled dataset."""
        if not self.all_labeled:
            raise CorpusError("dataset contains unlabeled items")
        pos = [t for t in self.items if t.label == POSITIVE]
        neg = [t for t in self.items if t.label == NEGATIVE]
        return pos, neg

    def by_id(self) -> dict[str, Tweet]:
        return {t.id: t for t in self.items}


def load_dataset(path) -> Dataset:
    """Parse a tab-separated dataset file: ``id<TAB>label<TAB>text`` per line.

    Labels are ``1`` (positive), ``0`` (negative) or ``-`` (unlabeled).
    """
    seen: set[str] = set()

    def parse(line: str, lineno: int) -> Tweet:
        parts = line.split("\t", 2)
        if len(parts) != 3:
            raise ValueError("expected id<TAB>label<TAB>text")
        item_id, label_tok, text = parts
        if label_tok not in _LABEL_TOKENS:
            raise ValueError(f"invalid label {label_tok!r}")
        if item_id in seen:
            raise ValueError(f"duplicate id {item_id!r}")
        tweet = Tweet(item_id, text, _LABEL_TOKENS[label_tok])
        seen.add(item_id)
        return tweet
    return Dataset(read_lines(path, "dataset", parse, CorpusError))


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset in the same tab-separated format load_dataset reads."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in dataset:
            tok = UNLABELED_TOKEN if t.label is None else str(t.label)
            fh.write(f"{t.id}\t{tok}\t{t.text}\n")


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------

def load_annotations(path) -> dict[str, tuple[tuple[str, int], ...]]:
    """Parse ``item_id<TAB>annotator_id<TAB>label`` lines: item id -> ((annotator, label), ...).

    Ids are non-empty, labels 0 or 1, and an item's annotators distinct; a
    line that breaks one of these is refused with its line number.
    """
    entries: dict[str, list[tuple[str, int]]] = {}

    def parse(line: str, lineno: int) -> None:
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError("expected item_id<TAB>annotator_id<TAB>label")
        item_id, annotator, label_tok = parts
        if not item_id:
            raise ValueError("empty item id")
        if not annotator:
            raise ValueError("empty annotator id")
        if label_tok not in ("0", "1"):
            raise ValueError(f"invalid label {label_tok!r}")
        if any(a == annotator for a, _ in entries.get(item_id, [])):
            raise ValueError(f"duplicate annotator {annotator!r} for item {item_id!r}")
        entries.setdefault(item_id, []).append((annotator, int(label_tok)))
    read_lines(path, "annotation", parse, CorpusError)
    return {k: tuple(v) for k, v in entries.items()}


def aggregate_labels(annotations: dict[str, tuple[tuple[str, int], ...]]
                     ) -> tuple[dict[str, int], dict[str, str]]:
    """Aggregate each item's annotations by strict majority vote: (labels, rejected).

    Items with fewer than 3 annotations or an even number of annotations are
    rejected (item id -> reason) rather than guessed.
    """
    labels: dict[str, int] = {}
    rejected: dict[str, str] = {}
    for item_id, anns in annotations.items():
        n = len(anns)
        if n < 3:
            rejected[item_id] = f"needs at least 3 annotations, got {n}"
            continue
        if n % 2 == 0:
            rejected[item_id] = f"needs an odd number of annotations, got {n}"
            continue
        votes = sum(label for _, label in anns)
        labels[item_id] = POSITIVE if votes * 2 > n else NEGATIVE
    return labels, rejected


# ---------------------------------------------------------------------------
# Deduplication
# ---------------------------------------------------------------------------

def _dedupe_key(text: str) -> str:
    return " ".join(text.lower().split())


def dedupe(dataset: Dataset) -> tuple[Dataset, int]:
    """Drop items whose normalized text was seen before.

    The duplicate key is the lowercased, whitespace-collapsed text; the first
    occurrence wins. Returns (deduplicated dataset, number of removed items).
    """
    seen: set[str] = set()
    kept: list[Tweet] = []
    for t in dataset:
        key = _dedupe_key(t.text)
        if key in seen:
            continue
        seen.add(key)
        kept.append(t)
    return Dataset(kept), len(dataset) - len(kept)


# ---------------------------------------------------------------------------
# Scenario sampling and fold planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioPlan:
    """A class-ratio resampling recipe: ratio is (positive%, negative%)."""

    ratio: tuple[int, int]
    n_train: int
    n_test: int
    seed: int = 0

    def __post_init__(self):
        pos, neg = self.ratio
        if pos + neg != 100 or pos <= 0 or neg <= 0:
            raise CorpusError(f"ratio {self.ratio} must be positive and sum to 100")
        if self.n_train <= 0 or self.n_test <= 0:
            raise CorpusError("n_train and n_test must be positive")
        for name, n in (("n_train", self.n_train), ("n_test", self.n_test)):
            if (n * pos) % 100 != 0:
                raise CorpusError(
                    f"{name}={n} does not split into whole counts at ratio {pos}:{neg}"
                )

    def class_counts(self, n: int) -> tuple[int, int]:
        """Whole (positive, negative) counts for a block of n items."""
        pos = n * self.ratio[0] // 100
        return pos, n - pos

    @property
    def label(self) -> str:
        return f"{self.ratio[0]}:{self.ratio[1]}"


def _shuffled(items: Sequence[Tweet], rng: np.random.Generator) -> list[Tweet]:
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def make_scenario(pool: Dataset, plan: ScenarioPlan) -> tuple[Dataset, Dataset]:
    """Stratified train/test sampling without replacement at the plan's ratio.

    Deterministic under plan.seed: each class is shuffled once, the train
    block takes the prefix and the test block the following slice.
    """
    pos, neg = pool.by_class()
    rng = np.random.default_rng(plan.seed)
    pos = _shuffled(pos, rng)
    neg = _shuffled(neg, rng)

    tr_pos, tr_neg = plan.class_counts(plan.n_train)
    te_pos, te_neg = plan.class_counts(plan.n_test)
    shortfalls = []
    if len(pos) < tr_pos + te_pos:
        shortfalls.append(f"positives: need {tr_pos + te_pos}, pool has {len(pos)}")
    if len(neg) < tr_neg + te_neg:
        shortfalls.append(f"negatives: need {tr_neg + te_neg}, pool has {len(neg)}")
    if shortfalls:
        raise CorpusError("insufficient pool for scenario; " + "; ".join(shortfalls))

    train = pos[:tr_pos] + neg[:tr_neg]
    test = pos[tr_pos:tr_pos + te_pos] + neg[tr_neg:tr_neg + te_neg]
    train = _shuffled(train, rng)
    test = _shuffled(test, rng)
    return Dataset(train), Dataset(test)


@dataclass(frozen=True)
class FoldPlan:
    """k train/test splits over a sampled pool, stored as item ids.

    Test blocks are pairwise disjoint and every fold's train set is disjoint
    from its own test block.
    """

    k: int
    folds: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    def __post_init__(self):
        if self.k != len(self.folds):
            raise CorpusError("fold count does not match k")
        all_test: set[str] = set()
        for train_ids, test_ids in self.folds:
            test_set = set(test_ids)
            if test_set & set(train_ids):
                raise CorpusError("fold train and test sets overlap")
            if all_test & test_set:
                raise CorpusError("test blocks are not pairwise disjoint")
            all_test |= test_set


def make_folds(pool: Dataset, plan: ScenarioPlan, k: int = 6) -> FoldPlan:
    """Build k stratified cross-validation folds at the plan's ratio.

    k disjoint test blocks of plan.n_test are sampled first; each fold then
    fills its training set from the remaining items (the other blocks, then
    any unsampled pool leftovers) at the plan ratio. With
    n_train == (k-1) * n_test this is a classic k-fold partition.
    """
    if k < 1:
        raise CorpusError("k must be >= 1")
    if k == 1:
        train, test = make_scenario(pool, plan)
        return FoldPlan(1, ((tuple(t.id for t in train), tuple(t.id for t in test)),))

    pos, neg = pool.by_class()
    rng = np.random.default_rng(plan.seed)
    pos = _shuffled(pos, rng)
    neg = _shuffled(neg, rng)

    te_pos, te_neg = plan.class_counts(plan.n_test)
    tr_pos, tr_neg = plan.class_counts(plan.n_train)
    shortfalls = []
    if len(pos) < k * te_pos:
        shortfalls.append(f"positives: need {k * te_pos} for {k} test blocks, pool has {len(pos)}")
    if len(neg) < k * te_neg:
        shortfalls.append(f"negatives: need {k * te_neg} for {k} test blocks, pool has {len(neg)}")
    # Training candidates for a fold are everything outside its test block.
    if (k - 1) * te_pos + max(0, len(pos) - k * te_pos) < tr_pos:
        shortfalls.append(f"positives: cannot fill {tr_pos} training items per fold")
    if (k - 1) * te_neg + max(0, len(neg) - k * te_neg) < tr_neg:
        shortfalls.append(f"negatives: cannot fill {tr_neg} training items per fold")
    if shortfalls:
        raise CorpusError("insufficient pool for fold plan; " + "; ".join(shortfalls))

    pos_blocks = [pos[i * te_pos:(i + 1) * te_pos] for i in range(k)]
    neg_blocks = [neg[i * te_neg:(i + 1) * te_neg] for i in range(k)]
    pos_rest = pos[k * te_pos:]
    neg_rest = neg[k * te_neg:]

    folds = []
    for i in range(k):
        test = pos_blocks[i] + neg_blocks[i]
        cand_pos = [t for j in range(k) if j != i for t in pos_blocks[j]] + pos_rest
        cand_neg = [t for j in range(k) if j != i for t in neg_blocks[j]] + neg_rest
        train = cand_pos[:tr_pos] + cand_neg[:tr_neg]
        fold_rng = np.random.default_rng([plan.seed, i])
        train = _shuffled(train, fold_rng)
        test = _shuffled(test, fold_rng)
        folds.append((tuple(t.id for t in train), tuple(t.id for t in test)))
    return FoldPlan(k, tuple(folds))


def fold_datasets(pool: Dataset, fold_plan: FoldPlan, fold: int) -> tuple[Dataset, Dataset]:
    """Resolve one fold's item ids against the pool."""
    index = pool.by_id()
    train_ids, test_ids = fold_plan.folds[fold]
    try:
        train = Dataset(index[i] for i in train_ids)
        test = Dataset(index[i] for i in test_ids)
    except KeyError as e:
        raise CorpusError(f"fold {fold}: item id {e.args[0]!r} not found in pool") from None
    return train, test


def save_fold_plan(fold_plan: FoldPlan, path) -> None:
    """Write ``fold_index<TAB>role<TAB>item_id`` lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, (train_ids, test_ids) in enumerate(fold_plan.folds):
            for item_id in train_ids:
                fh.write(f"{i}\ttrain\t{item_id}\n")
            for item_id in test_ids:
                fh.write(f"{i}\ttest\t{item_id}\n")


def load_fold_plan(path) -> FoldPlan:
    """Read a fold plan file written by save_fold_plan."""
    by_fold: dict[int, tuple[list[str], list[str]]] = {}

    def parse(line: str, lineno: int) -> None:
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError("expected fold_index<TAB>role<TAB>item_id")
        fold_tok, role, item_id = parts
        if not (fold_tok.isascii() and fold_tok.isdigit()):
            raise ValueError(f"invalid fold index {fold_tok!r}")
        if role not in ("train", "test"):
            raise ValueError(f"invalid role {role!r}")
        slot = by_fold.setdefault(int(fold_tok), ([], []))
        slot[0 if role == "train" else 1].append(item_id)
    read_lines(path, "fold plan", parse, CorpusError)
    if not by_fold or sorted(by_fold) != list(range(len(by_fold))):
        raise CorpusError(f"malformed fold plan file {path}: fold indices must be 0..k-1")

    folds = tuple(
        (tuple(by_fold[i][0]), tuple(by_fold[i][1])) for i in range(len(by_fold))
    )
    return FoldPlan(len(folds), folds)
