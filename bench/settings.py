"""Fixed make-up of each benchmark workload.

Pure data, so that run.py can read it without numpy or ssc on the path.
Sizes are chosen so that a comparison campaign (70 runs over the three
workloads) stays well inside an hour on a 2-core CPU; see README.md.
"""

# CNN roster at the paper architecture (WCnnConfig/CCnnConfig defaults).
CNN_ROSTER = "char_aux:2,char_cnn:2,word_aux:2"
ML_ROSTER = "svm:2,rf:2,nb:2"
PAPER_EMBED_DIM = 400  # WCnnConfig.embed_dim default; the fixtures are written at this width

WORKLOADS = {
    "cnn_fit": {
        "kind": "fit",
        "roster": CNN_ROSTER,
        "scenarios": "50:50:48:40,10:90:40:40",
        "epochs": 3,
        "pool": (200, 200),
        "widen": False,
        "jobs": 2,
        "blas_threads": 1,
        "setup_repeats": 9,
    },
    "ml_fit_wide": {
        "kind": "fit",
        "roster": ML_ROSTER,
        "scenarios": "50:50:400:100,10:90:400:100",
        "epochs": 1,
        "rf_trees": 6,
        "pool": (300, 500),
        "widen": True,
        "jobs": 1,
        "blas_threads": 2,
        "setup_repeats": 9,
    },
    "score": {
        "kind": "score",
        # Set-up trains each ensemble with one run_experiment call on a
        # balanced scenario; the timed phase only loads and classifies.
        "cnn_train": {"roster": CNN_ROSTER, "scenarios": "50:50:48:40", "epochs": 1},
        "ml_train": {"roster": ML_ROSTER, "scenarios": "50:50:400:100", "epochs": 1,
                     "rf_trees": 10},
        "pool": (300, 300),
        "cnn_pool": 160,
        "ml_pool": 6000,
        "widen": False,
        "jobs": 1,
        "blas_threads": 2,
        "setup_repeats": 1,
    },
}

# Vocabulary widening for ml_fit_wide: filler tokens with no class signal,
# drawn from a finite Zipf-like law p(r) ~ 1 / r**ZIPF_S over ZIPF_TYPES types.
ZIPF_TYPES = 100_000
ZIPF_S = 0.8
FILLER_PER_TEXT = (20, 60)  # uniform, inclusive
WIDE_VOCAB_MIN = 10_000

# Accuracy floors for the classical ensemble (chance is 0.5 on balanced
# data). The CNN ensembles have none; README.md says why.
FLOORS = {
    "ml_fit_wide": {"ensemble_ml": 0.70},
    "score": {"ensemble_ml": 0.70},
}
