"""Record the expected output of every report in `expected.json`.

    python3 clibench/record.py

Runs each report of every workload once, exactly as the benchmark does,
and stores the digests of its input documents and of its stdout.  It
refuses to record while any report fails.  The recorded outputs are the
reference every later run is compared with, so record only at a commit
whose outputs are trusted.
"""

import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)


def main():
    os.chdir(run.ROOT)
    from replay import failure_of, run_report
    from workloads import WORKLOADS
    expected = {}
    bad = 0
    shutil.rmtree(run.WORKDIR, ignore_errors=True)
    try:
        for workload in WORKLOADS:
            reports, inputs = run.generate_reports(
                workload, os.path.join(run.WORKDIR, workload))
            table = {}
            for report in reports:
                msg = run_report(report, check_oracle=True)
                # judged against its own output, so only the checks that
                # need no recorded output can fail it
                entry = {"input": inputs[report.rid], "output": msg.get("digest")}
                failure = failure_of(report, msg, {report.rid: entry},
                                     inputs[report.rid])
                if failure:
                    print("FAILED %s: %s %r" % (report.rid, failure, msg))
                    bad += 1
                    continue
                table[report.rid] = entry
            expected[workload] = table
            print("%s: %d reports" % (workload, len(table)))
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    if bad:
        print("not recorded: %d reports failed" % bad)
        return 1
    with open(os.path.join(run.HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
