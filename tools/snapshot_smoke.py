#!/usr/bin/env python3
"""End-to-end smoke for the snapshot + dataset-registry cold-start path.

Drives the exact workflow DESIGN.md's "Profile snapshots & dataset registry"
section promises, against real binaries and a real socket:

  1. `foresight_snapshot build`   — generate a small benchmark CSV and write
     its binary profile snapshot next to it as <id>.fsnap.
  2. `foresight_snapshot inspect` — the file must validate (magic, version,
     both checksums) and report the expected shape.
  3. `foresight_snapshot verify --rebuild` — the restored profile must be
     byte-identical to a fresh re-preprocess of the same CSV.
  4. `foresight_serve --datasets=DIR --smoke` — the server must list the
     dataset at /v1/datasets, answer a dataset-routed /v1/query whose
     profile came from the snapshot, append a row to the dataset via
     /v1/append, and answer the query again.

Usage:
  snapshot_smoke.py --snapshot-binary PATH --serve-binary PATH

Exit code 0 = all stages passed, 1 = a stage failed, 2 = usage/setup error.
"""

import argparse
import os
import subprocess
import sys
import tempfile

ROWS = 400


def run(stage, argv):
    print("[%s] %s" % (stage, " ".join(argv)), flush=True)
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=300)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print("[%s] FAILED (exit %d)" % (stage, proc.returncode))
        sys.exit(1)
    return proc.stdout


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--snapshot-binary", required=True)
    parser.add_argument("--serve-binary", required=True)
    args = parser.parse_args()
    for path in (args.snapshot_binary, args.serve_binary):
        if not os.path.exists(path):
            print("missing binary: %s" % path)
            return 2

    with tempfile.TemporaryDirectory(prefix="foresight_snap_smoke_") as work:
        csv_path = os.path.join(work, "demo.csv")
        snap_path = os.path.join(work, "demo.fsnap")

        run("build", [args.snapshot_binary, "build",
                      "--synthetic-rows=%d" % ROWS, "--synthetic-numeric=12",
                      "--synthetic-categorical=3", "--csv-out=" + csv_path,
                      "--out=" + snap_path])

        inspect_out = run("inspect", [args.snapshot_binary, "inspect",
                                      "--in=" + snap_path])
        if ("rows:           %d" % ROWS) not in inspect_out:
            print("[inspect] FAILED: expected %d rows in summary" % ROWS)
            return 1

        verify_out = run("verify", [args.snapshot_binary, "verify",
                                    "--in=" + snap_path, "--csv=" + csv_path,
                                    "--rebuild"])
        if "byte-identical" not in verify_out:
            print("[verify] FAILED: no bit-identity confirmation")
            return 1

        serve_out = run("serve", [args.serve_binary, "--smoke", "--rows=100",
                                  "--datasets=" + work])
        if "smoke ok (dataset demo)" not in serve_out:
            print("[serve] FAILED: dataset-routed query did not run")
            return 1
        if "smoke append ok" not in serve_out:
            print("[serve] FAILED: dataset-routed append did not run")
            return 1

    print("snapshot smoke: all stages passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
