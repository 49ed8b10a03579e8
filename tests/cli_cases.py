"""The checked-in CLI cases of cli_cases.json, run in process.

`PYTHONPATH=src python tests/cli_cases.py` prints one line per case: the
sha256 prefixes (12 hex) of its stdout and stderr, its exit code and its
argv. Run it on two trees to compare their output bytes.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from derangetropy.cli import main

SPEC = json.loads(Path(__file__).with_name("cli_cases.json").read_text())


def run(argv):
    """(exit code, stdout, stderr) of one in-process `derangetropy` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_tab(tmp_dir):
    """Write the CSV that TAB stands for into tmp_dir, and return its path."""
    tab = str(Path(tmp_dir) / "tab.csv")
    code, _, err = run([*SPEC["tab"], "--out", tab])
    if code != 0:
        raise RuntimeError(f"the tab argv exited {code}: {err}")
    return tab


def with_tab(argv, tab):
    return [arg.replace("TAB", tab) for arg in argv]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tab = write_tab(tmp)
        for argv in SPEC["cases"]:
            code, out, err = run(with_tab(argv, tab))
            # the temporary path shows in the tabulated note on stderr
            digests = [hashlib.sha256(s.replace(tab, "TAB").encode()).hexdigest()[:12] for s in (out, err)]
            print(*digests, code, " ".join(argv))
