"""Check that the benchmark counts every kind of failed report and keeps
going, using inputs made to fail.

    python3 clibench/selfcheck.py

Exits 0 when each case is classified as expected.
"""

import json
import os
import shutil
import sys
import time

import run

sys.path.insert(0, run.SRC)

CASES = 7


def main():
    os.chdir(run.ROOT)
    from replay import digest, failure_of, file_digest, run_in_child, run_report
    from workloads import Report
    from jumploci.documents import dumps
    workdir = os.path.join(run.WORKDIR, "selfcheck")
    shutil.rmtree(run.WORKDIR, ignore_errors=True)
    os.makedirs(workdir)

    def doc(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    ring = {"field": {"kind": "rationals"}, "variables": ["x"]}
    half = doc("half.cc", dumps({"type": "free-complex", "ring": ring,
                                 "ranks": [1, 1], "differentials": [[["x - 1/2"]]]}))
    broken = doc("broken.cc", "{ not json")
    not_complex = doc("not-complex.cc", dumps({
        "type": "free-complex", "ring": ring, "ranks": [1, 1, 1],
        "differentials": [[["x"]], [["x"]]]}))
    good = doc("good.cc", dumps({
        "type": "free-complex",
        "ring": {"field": {"kind": "prime-field", "p": 5}, "variables": ["x"]},
        "ranks": [1, 1], "differentials": [[["x"]]]}))

    def report(rid, argv, docs):
        return Report(rid, argv + ["--format", "structured"], docs, 0, False)

    good_report = report("good", ["jumploci", "--complex", good, "--i", "0", "--q", "5"], [good])
    good_msg = run_report(good_report)
    cases = [  # (report, expected output digest, input digest, expected failure)
        (report("half-into-F16", ["jumploci", "--complex", half, "--i", "0", "--q", "16"],
                [half]), None, None, ("raised ", "error report")),
        (report("broken-json", ["jumploci", "--complex", broken, "--i", "0", "--q", "5"],
                [broken]), None, None, ("error report",)),
        (report("d-squared-nonzero", ["validate", "--complex", not_complex], [not_complex]),
         None, None, ("exit 1",)),
        (good_report, "0" * 64, None, ("output mismatch",)),
        (good_report, good_msg.get("digest"), "0" * 64, ("input changed",)),
        (good_report, good_msg.get("digest"), None, (None,)),
    ]
    bad = 0
    for rep, out_digest, in_digest, allowed in cases:
        inputs = file_digest(rep.docs)
        expected = {rep.rid: {"output": out_digest or digest(""),
                              "input": in_digest or inputs}}
        msg = run_report(rep)
        got = failure_of(rep, msg, expected, inputs)
        ok = got is None if allowed == (None,) else (
            got is not None and got.startswith(allowed))
        bad += not ok
        print("%-4s %-18s -> %s" % ("ok" if ok else "BAD", rep.rid, got))
    lost = run_in_child(lambda: time.sleep(5), timeout=0.5)
    ok = lost == {"lost": "timeout"}
    bad += not ok
    print("%-4s %-18s -> %s" % ("ok" if ok else "BAD", "hung-child", json.dumps(lost)))
    shutil.rmtree(run.WORKDIR, ignore_errors=True)
    print("%d of %d cases classified as expected" % (CASES - bad, CASES))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
