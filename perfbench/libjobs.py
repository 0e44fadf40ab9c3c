"""Model fits that the CLI cannot size: `train` hard-codes 500 GBT rounds
and 100 forest trees, which take minutes. Each job loads the CSV, fits,
saves the model and writes its own predictions for the first rows, so
that the benchmark can check that the saved file reproduces them.

    python perfbench/libjobs.py fit-gbt CSV MODEL --rounds 25
    python perfbench/libjobs.py fit-forest CSV MODEL --trees 5

GBT trees are always depth 4, with learning rate 0.1.
"""

from __future__ import annotations

import argparse
import json
import sys

from phishguard import datasets, models

CHECK_ROWS = 256
GBT_DEPTH = 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="libjobs")
    parser.add_argument("job", choices=("fit-gbt", "fit-forest"))
    parser.add_argument("csv")
    parser.add_argument("model")
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--trees", type=int, default=5)
    args = parser.parse_args(argv)

    ds = datasets.load_csv(args.csv)
    if args.job == "fit-gbt":
        model = models.train_gbt(ds, n_rounds=args.rounds, learning_rate=0.1,
                                 max_depth=GBT_DEPTH)
    else:
        model = models.train_forest(ds, n_trees=args.trees, mode="bagging")
    models.save_model(model, args.model)
    predictions = [float(p) for p in model.predict_proba(ds.X[:CHECK_ROWS])]
    with open(args.model + ".pred.json", "w") as fh:
        json.dump(predictions, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
