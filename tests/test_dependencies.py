"""numpy is the only runtime dependency: importing the package loads no test or oracle tool."""

import json
import subprocess
import sys
from pathlib import Path

import derangetropy

TEST_ONLY = {"scipy", "mpmath", "hypothesis", "pytest"}
# imported where first needed, since each adds measurable time to `import derangetropy`
DEFERRED = {"statistics"}


def test_import_loads_no_test_only_module():
    # a fresh interpreter, since this one already holds pytest and hypothesis
    src = str(Path(derangetropy.__file__).resolve().parents[1])
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import derangetropy; "
        "print(json.dumps(sorted({name.partition('.')[0] for name in sys.modules})))"
    )
    run = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    loaded = set(json.loads(run.stdout))
    assert {"derangetropy", "numpy"} <= loaded
    assert not loaded & TEST_ONLY, sorted(loaded & TEST_ONLY)
    assert not loaded & DEFERRED, sorted(loaded & DEFERRED)
