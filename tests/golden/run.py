"""Run the golden experiment and copy what the golden test compares into a directory.

    SSC_PRECISION=64 PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/golden/run.py tests/golden

The run is `ssc experiment --jobs 2` on a small synthetic corpus: two
scenarios (one 10:90), two folds, the default twelve-member roster, two
epochs and small CNN widths. Copied: report.csv, per_fold/*.csv and the
fold plans, byte for byte, and checkpoints.txt, one line per checkpoint
array with its sum of squares and max |x| (no binaries: the bytes of BLAS
results may differ between numpy builds). Regenerating the golden files is
an output change and must be stated as one.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from ssc import cli, synth
from ssc.corpus import save_dataset
from ssc.nn import load_checkpoint

CONFIG = """
[paths]
dataset = {root}/corpus.tsv
abuse_lexicon = {root}/fix/abuse_terms.txt
slang_lexicon = {root}/fix/drug_slang.txt
cluster_map = {root}/fix/clusters.tsv
synonym_map = {root}/fix/synonyms.tsv
embeddings = {root}/fix/embeddings.txt
output = {root}/out

[experiment]
scenarios = 50:50:100:20,10:90:100:20
folds = 2
seed = 3

[training]
epochs = 2
batch_size = 16
filters = 2
word_kernels = 2,3
char_kernels = 2,3
char_embed_dim = 4

[baselines]
rf_trees = 5
"""


def checkpoint_summary(out: Path) -> str:
    """'<checkpoint> <array> <sum of squares> <max |x|>' for every array, in file order."""
    lines = []
    for path in sorted(out.glob("checkpoints/**/*.ckpt")):
        for name, a in load_checkpoint(path).arrays.items():
            x = np.abs(np.asarray(a, dtype=np.float64))
            lines.append(f"{path.relative_to(out).as_posix()} {name} "
                         f"{float(np.sum(x * x))!r} {float(x.max(initial=0.0))!r}")
    return "".join(f"{line}\n" for line in lines)


def main(dest: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_dataset(synth.generate_dataset(130, 130, seed=41), root / "corpus.tsv")
        synth.write_fixture_files(root / "fix", embed_dim=8, seed=0)
        (root / "exp.conf").write_text(CONFIG.format(root=root.as_posix()))
        status = cli.main(["experiment", "--config", str(root / "exp.conf"), "--jobs", "2"])
        if status != 0:
            return status
        out = root / "out"
        for rel in ["report.csv", *(p.relative_to(out) for p in out.glob("per_fold/*.csv")),
                    *(p.relative_to(out) for p in out.glob("fold_plans/*"))]:
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out / rel, dest / rel)
        (dest / "checkpoints.txt").write_text(checkpoint_summary(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
