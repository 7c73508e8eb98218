"""Measure how per-scene cloud fraction degrades the patch-sequence classifier.

Cloud and shadow datum vectors are zeroed before training and classification.
Acceptance criterion 4 runs this measurement at 0% and 20% cloud and requires
the holdout accuracy to drop by less than 3 points. How the gates treat the
zeroed steps is not measured here.

Usage: python scripts/cloud_robustness.py [--fractions 0.0 0.1 0.2] [--seed 9]
"""

import argparse
import dataclasses
import logging

from pbrnn import experiments as ex
from pbrnn import synthetic as sy


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fractions", type=float, nargs="+", default=[0.0, 0.1, 0.2])
    parser.add_argument("--seed", type=int, default=9)
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING)
    # heavy synthetic noise legitimately produces negative reflectance values
    logging.getLogger("pbrnn.raster_data").setLevel(logging.ERROR)

    results = {}
    for fraction in args.fractions:
        spec = dataclasses.replace(ex.ordering_site_spec(args.seed),
                                   cloud_fraction=fraction)
        series, truth = sy.generate(spec)
        settings = ex.ExperimentSettings()
        run = ex.train_system("pb-rnn", series, truth, spec.num_classes, settings)
        results[fraction] = run.holdout_accuracy
        print(f"cloud fraction {fraction:4.2f}: holdout accuracy "
              f"{100 * run.holdout_accuracy:6.2f}%")
    base = results[min(results)]
    worst = results[max(results)]
    print(f"degradation from {min(results):.2f} to {max(results):.2f}: "
          f"{100 * (base - worst):.2f} points")


if __name__ == "__main__":
    main()
