#!/usr/bin/env python3
"""Write the synthetic desk-scale IDX fixture (5k train / 1k test)."""

import argparse
from pathlib import Path

from arcgate import idx


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data", help="target directory")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--n-train", type=int, default=5000)
    parser.add_argument("--n-test", type=int, default=1000)
    args = parser.parse_args()
    try:
        paths = idx.synthesize_idx_files(Path(args.out_dir), seed=args.seed,
                                         n_train=args.n_train, n_test=args.n_test)
    except ValueError as exc:
        parser.error(str(exc))
    for name, path in paths.items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
