"""The benchmark's own checks must reject corrupted results.

    python3 -m pytest -q bench/test_checks.py
"""

import numpy as np

import checks


def _row(model, pred, gold, scenario="50:50"):
    tp, fp, fn, tn = checks.confusion(pred, gold)
    m = checks.measures(tp, fp, fn, tn)
    row = {"scenario": scenario, "model": model, "fold": "0"}
    row.update({k: f"{m[k]:.6f}" for k in checks.MEASURES})
    row.update({"tp": f"{tp:g}", "fp": f"{fp:g}", "fn": f"{fn:g}", "tn": f"{tn:g}"})
    return row


GOLD = np.array([1, 1, 1, 0, 0, 0, 1, 0])
CLASSES = np.array([
    [1, 1, 0, 0, 0, 1, 1, 0],
    [1, 0, 1, 0, 1, 0, 1, 0],
    [1, 1, 1, 0, 0, 0, 0, 1],
    [0, 1, 1, 1, 0, 0, 1, 0],
])
PROBS = np.where(CLASSES == 1, 0.7, 0.2)


def test_vote_rule_strict_majority_and_tie():
    classes = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 1], [0, 0, 1]])
    probs = np.array([[0.9, 0.6, 0.1], [0.8, 0.1, 0.1], [0.4, 0.6, 0.6], [0.2, 0.1, 0.9]])
    # item 0: 2-2 tie, mean 0.575 > 0.5 -> 1; item 1: 2-2, mean 0.45 -> 0; item 2: 1-3 -> 0
    assert checks.vote(classes, probs).tolist() == [1, 0, 0]


def test_flipped_vote_is_rejected():
    votes = checks.vote(CLASSES, PROBS)
    assert checks.check_votes(votes, CLASSES, PROBS, "e") == []
    flipped = votes.copy()
    flipped[3] = 1 - flipped[3]
    assert checks.check_votes(flipped, CLASSES, PROBS, "e")


def test_flipped_vote_in_ensemble_row_is_rejected():
    votes = checks.vote(CLASSES, PROBS)
    flipped = votes.copy()
    flipped[0] = 1 - flipped[0]
    row = _row("ensemble_cnn", flipped, GOLD)
    assert checks.check_row(row, votes, GOLD)


def test_metric_off_by_one_count_is_rejected():
    pred = CLASSES[0]
    assert checks.check_row(_row("svm.m0", pred, GOLD), pred, GOLD) == []
    off = pred.copy()
    off[np.flatnonzero(pred == 0)[0]] = 1  # one more positive prediction
    assert checks.check_row(_row("svm.m0", off, GOLD), pred, GOLD)
    row = _row("svm.m0", pred, GOLD)
    row["tp"] = str(int(float(row["tp"])) + 1)  # counts alone off by one
    assert checks.check_row(row, pred, GOLD)


def test_zero_division_rules():
    assert checks.measures(0, 0, 3, 5) == {"accuracy": 5 / 8, "precision_p": 0.0,
                                           "recall_p": 0.0, "f1_p": 0.0}


def _plan_and_labels():
    labels = {f"p{i}": 1 for i in range(10)} | {f"n{i}": 0 for i in range(10)}
    train = [f"p{i}" for i in range(4)] + [f"n{i}" for i in range(4)]
    test = [f"p{i}" for i in range(4, 6)] + [f"n{i}" for i in range(4, 6)]
    return {0: (train, test)}, labels


def test_fold_with_wrong_class_count_is_rejected():
    plan, labels = _plan_and_labels()
    assert checks.check_fold_plan(plan, labels, "50:50:8:4") == []
    train, test = plan[0]
    bad = {0: (train[:-1] + ["p9"], test)}  # a negative swapped for a positive
    assert any("class counts" in p for p in checks.check_fold_plan(bad, labels, "50:50:8:4"))


def test_fold_overlap_and_foreign_ids_are_rejected():
    plan, labels = _plan_and_labels()
    train, test = plan[0]
    assert checks.check_fold_plan({0: (train, test[:-1] + [train[-1]])}, labels, "50:50:8:4")
    assert checks.check_fold_plan({0: (train, test[:-1] + ["zz"])}, labels, "50:50:8:4")


def test_report_rows_must_match_roster():
    expected = checks.expected_report_rows(["50:50"], ["svm", "svm", "rf", "rf", "nb", "nb"])
    lines = ["scenario,model,measure,value"] + [
        f"{s},{model},{m},0.5" for (s, model, m) in sorted(expected)]
    assert checks.check_report_rows("\n".join(lines), expected) == []
    assert checks.check_report_rows("\n".join(lines[:-1]), expected)
    assert checks.check_report_rows("\n".join(lines + [lines[-1]]), expected)


def test_nb_posterior_matches_direct_sum():
    log_prior = np.log([0.4, 0.6])
    ll = np.log(np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]))
    cls, p = checks.nb_posterior(log_prior, ll, ["a", "b", "c"], [["a", "a", "x"], ["c"]])
    lp = log_prior + np.array([[2, 0, 0], [0, 0, 1]]) @ ll.T
    want = np.exp(lp[:, 1]) / np.exp(lp).sum(axis=1)
    assert np.allclose(p, want) and cls.tolist() == [0, 1]


def test_non_finite_loss_and_low_accuracy_are_rejected():
    assert checks.check_finite([0.7, 0.6], "fit_loss") == []
    assert checks.check_finite([0.7, float("inf")], "fit_loss")
    assert checks.check_floor(0.8, 0.7, "e") == []
    assert checks.check_floor(0.6, 0.7, "e")


def test_failed_scenarios_are_read_from_the_manifest():
    text = ("# failed units\nscenario 10:90: boom: bad shape\n"
            "# completed units\n50:50\n")
    assert checks.failed_scenarios(text) == ["10:90"]
    assert checks.failed_scenarios("# failed units\n# completed units\n50:50\n") == []
