"""Rewrite cli_golden.json from the program as it is: replay every stored
``argv`` through ``hexdimer.cli.main`` and store its exit code, its stdout
with the timing fields masked, and its stderr.  From the repo root:

    PYTHONPATH=src python tests/data/regen_golden.py

then read the diff: each changed entry is a change of the CLI's output.
test_cli.py's golden test masks its replays with ``masked`` from here."""

import contextlib
import io
import json
import re
from pathlib import Path

GOLDEN = Path(__file__).with_name("cli_golden.json")


def masked(text):
    """Output with its timing fields zeroed."""
    text = re.sub(r'"seconds": [0-9.]+', '"seconds": 0', text)
    return re.sub(r"\(\d+\.\d\ds\)", "(0.00s)", text)


def replay(argv):
    """One golden entry: ``argv`` run through the CLI in-process."""
    from hexdimer.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": masked(out.getvalue()),
            "stderr": err.getvalue()}


if __name__ == "__main__":
    cases = [replay(case["argv"]) for case in json.loads(GOLDEN.read_text())]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
