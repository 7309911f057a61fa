"""Runs one workload in this (fresh) interpreter and prints its result as
one JSON line on stdout.

Started by ``run.py``, never imported: the process tier's spawned workers
re-import this file as their main module, so its top level imports only
the standard library and all work happens under the ``__main__`` guard.
"""

import argparse
import json
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True,
                        help="time.monotonic() when the launcher started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from host import fingerprint
    from workloads import WORKLOADS

    result = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace),
        lambda: time.monotonic() - args.launched_at,
        setup_only=args.setup_only,
    )
    doc = result.to_dict()
    doc["host"] = fingerprint()
    print(json.dumps(doc), flush=True)


if __name__ == "__main__":
    main()
