"""Traced qdesk CLI process for the cli_mix workload.

    python3 perfbench/cli_child.py SPAN_FILE [qdesk CLI arguments...]

Times `import qdesk.cli`, installs the span recorder, runs
`qdesk.cli.main(argv)`, writes the import time and the spans to SPAN_FILE
and exits with the CLI's exit code.
"""

import json
import sys
import time

start = time.perf_counter()
import qdesk.cli  # noqa: E402

import_s = time.perf_counter() - start

import spans  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    with spans.Recorder() as recorder:
        code = qdesk.cli.main(argv)
    with open(span_file, "w") as fh:
        json.dump({"import_s": import_s, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
