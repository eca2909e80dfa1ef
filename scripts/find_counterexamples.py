#!/usr/bin/env python3
"""Run every bounded counterexample search and print the first witnesses.

Usage: python scripts/find_counterexamples.py

Exits 1 if a witness found does not re-validate.
"""
import json
import sys

from qfuzzy.lab import SEARCHES, AuditConfig, search_counterexample, validate_witness


def main():
    config = AuditConfig()
    for claim in SEARCHES:
        witness = search_counterexample(claim, config)
        if witness is None:
            print(f"{claim}: no witness in the bounded search space")
            continue
        if not validate_witness(witness):
            print(f"{claim}: witness found but does not re-validate", file=sys.stderr)
            print(json.dumps(witness, sort_keys=True, indent=2), file=sys.stderr)
            return 1
        print(f"{claim}: witness found and re-validated")
        print(json.dumps(witness, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
