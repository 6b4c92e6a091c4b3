"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/launcher.py --spans-out SPANS.json -- serve [ARGS...]

Installs the wrappers, calls :func:`repro.cli.main` with the arguments
after ``--``, and writes the recorded spans to ``SPANS.json`` once the
daemon has drained after SIGTERM and ``main`` has returned.  Spans of
one HTTP request carry that request's ``X-Bench-Id`` header as their tag.
"""

from __future__ import annotations

import functools
import json
import sys

from tracer import SpanRecorder


def install(recorder: SpanRecorder) -> None:
    import repro.filters.filterlist as filterlist
    import repro.serve.daemon as daemon
    import repro.serve.protocol as protocol
    import repro.serve.reload as reload
    from repro.filters.engine import AdblockEngine
    from repro.serve.admission import AdmissionController

    handler = daemon._ServeHandler
    do_post = handler.do_POST

    @functools.wraps(do_post)
    def tagged_do_post(self):
        recorder.set_tag(self.headers.get("X-Bench-Id", ""))
        try:
            return do_post(self)
        finally:
            recorder.set_tag("")

    handler.do_POST = tagged_do_post
    # The daemon reaches these through ``protocol.<name>``.
    recorder.install(protocol, "parse_match_payload", "serve.parse")
    recorder.install(protocol, "serve_match", "serve.match")
    recorder.install(protocol, "encode", "serve.encode")
    recorder.install(daemon.ServeDaemon, "handle_match", "serve.handle_match")
    recorder.install(AdmissionController, "admit", "serve.admit")
    recorder.install(AdblockEngine, "check_request", "filters.check_request")
    recorder.install(AdblockEngine, "hidden_elements",
                     "filters.hidden_elements")
    recorder.install(AdblockEngine, "freeze", "filters.freeze")
    # Module globals: the reloader binds the builder when it is created,
    # after this runs; the CLI imports the persist call at call time.
    recorder.install(reload, "build_snapshot_from_sources",
                     "serve.reload_build")
    recorder.install(reload, "persist_snapshot_artifact",
                     "serve.reload_persist")
    recorder.install(reload, "parse_filter_list", "filters.parse")
    recorder.install(filterlist, "parse_filter_list", "filters.parse")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, command = argv[1], argv[3:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as repro_main

    status = repro_main(command)
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump({"spans": recorder.spans}, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
