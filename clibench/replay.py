"""Replay reports through `jumploci.cli.main`, one forked child per report.

The parent process has already imported `jumploci`; each child starts from that
state, as a one-shot CLI call would after its imports, so nothing computed
by one report survives into the next.  The child times only `cli.main`,
captures its stdout, and sends back a small message: elapsed time, peak
RSS, exit status, the digest of stdout, and the verdict of any check it
was asked to make after the timer stopped.  The parent never holds report
outputs, so its own memory (which every child inherits) stays flat.
"""

import gc
import hashlib
import io
import json
import marshal
import os
import resource
import select
import signal
import sys
import time

from jumploci import cli
from jumploci.documents import load_document
from jumploci.fields import finite_field
from jumploci.rings import Ideal, parse_poly
from jumploci.varieties import zero_locus_points

REPORT_TIMEOUT_S = 120.0


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _oracle_verdict(report, stdout):
    """Minor-ideal route against pointwise route, outside the timer: the
    printed points must be the zero set of the printed ideal generators."""
    out = json.loads(stdout)["results"]
    q = int(report.argv[report.argv.index("--q") + 1])
    F = finite_field(q)
    E = load_document(report.docs[0], "complex")
    ideal = Ideal(E.ring, [parse_poly(E.ring, g) for g in out["ideal"]])
    expected = cli.point_list(F, zero_locus_points(ideal, F))
    return None if expected == out["by_extension"]["1"]["points"] else (
        "printed points differ from the zero set of the printed ideal")


def _child(report, check_oracle, tracer):
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    exc = None
    code = None
    if tracer is not None:
        tracer.begin()
    started = time.perf_counter()
    try:
        code = cli.main(list(report.argv))
    except BaseException as e:  # a raising child is a counted failure
        exc = type(e).__name__
        if isinstance(e, SystemExit):
            code = e.code if isinstance(e.code, int) else 1
    elapsed = time.perf_counter() - started
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stdout = sys.stdout.getvalue()
    sys.stdout, sys.stderr = real_out, real_err
    msg = {"elapsed": elapsed, "rss_kb": rss_kb, "code": code, "exc": exc,
           "digest": digest(stdout), "error_report": None, "oracle": None}
    if tracer is not None:
        msg["trace"] = tracer.end()
    if exc is None:
        try:
            error = json.loads(stdout).get("error")
        except ValueError:
            error = None
        if error:
            msg["error_report"] = "%s: %s" % (error.get("type"), error.get("message"))
        elif check_oracle and report.oracle:
            try:
                msg["oracle"] = _oracle_verdict(report, stdout)
            except Exception as e:  # the check itself failed: count it
                msg["oracle"] = "oracle check raised %s: %s" % (type(e).__name__, e)
    return msg


def run_in_child(fn, timeout=REPORT_TIMEOUT_S):
    """Run `fn()` in a forked child and return its marshalled result, or a
    dict with key "lost" naming why no result arrived."""
    sys.stdout.flush()
    sys.stderr.flush()
    gc.freeze()  # the child's collector skips the parent's objects
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(rfd)
            data = marshal.dumps(fn())
            view = memoryview(data)
            while view:
                view = view[os.write(wfd, view):]
        except BaseException:
            status = 3
        finally:
            os._exit(status)
    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + timeout
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([rfd], [], [], left)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status = os.waitpid(pid, 0)
    if timed_out:
        return {"lost": "timeout"}
    if os.WIFSIGNALED(status):
        return {"lost": "signal %d" % os.WTERMSIG(status)}
    if os.WEXITSTATUS(status) != 0 or not chunks:
        return {"lost": "child exit %d" % os.WEXITSTATUS(status)}
    return marshal.loads(b"".join(chunks))


def run_report(report, check_oracle=False, tracer=None):
    return run_in_child(lambda: _child(report, check_oracle, tracer))


def failure_of(report, msg, expected, input_digest):
    """The failure type of one report's result, or None if it passed."""
    if "lost" in msg:
        return msg["lost"]
    if msg["exc"] is not None:
        return "raised " + msg["exc"]
    if msg["error_report"]:
        return "error report"
    if msg["code"] != 0:
        return "exit %s" % msg["code"]
    if msg["oracle"]:
        return "oracle mismatch"
    exp = expected.get(report.rid)
    if exp is None:
        return "no expected output"
    if exp["input"] != input_digest:
        return "input changed"
    if exp["output"] != msg["digest"]:
        return "output mismatch"
    return None
