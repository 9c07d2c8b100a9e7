"""
End-to-end experiment on a synthetic collection
===============================================

"""

import json
import tempfile
from pathlib import Path

from twqp import ExperimentConfig, make_synthetic, run_experiment, write_collection

# The directory and everything in it are removed at the end (or at exit).
tmp = tempfile.TemporaryDirectory(prefix="twqp-demo-")
work = Path(tmp.name)

# The generator plants topic terms into on-topic documents, so relevance
# judgments and useful expansion terms exist by construction.
coll = make_synthetic(seed=11, n_docs=80, vocab_size=120, n_queries=8)
paths = write_collection(coll, work)
print("corpus:", paths["corpus"])
print("docs:", len(coll.documents), " queries:", len(coll.topics))

# Small grids keep the demo quick; the defaults sweep 50 x 20 settings.
config = ExperimentConfig(
    corpus=str(paths["corpus"]),
    topics=str(paths["topics"]),
    qrels=str(paths["qrels"]),
    output_dir=str(work / "out"),
    mu_grid=(500, 1000, 2000),
    rm3_m_grid=(5, 10),
)
result = run_experiment(config)
print(f"\ntuned: mu={result.best_mu:g}  rm3 m={result.best_m}")

# One run file per method plus a machine-readable and a plain-text report.
out = Path(config.output_dir)
for p in sorted(out.rglob("*")):
    if p.is_file():
        print(" ", p.relative_to(out))

report = json.loads((out / "report.json").read_text())
print("\nMAP by method:")
for method, block in report["methods"].items():
    print(f"  {method:18s} {block['aggregates']['ap']:.4f}")

print("\n" + (out / "report.txt").read_text())

tmp.cleanup()
