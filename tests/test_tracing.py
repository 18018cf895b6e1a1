"""perfbench/tracing.py times a stage by rebinding names on the ontoprobe
modules; every name it rebinds must still exist there."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_current_modules():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import tracing; tracing.install(tracing.Tracer()); print('ok')"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
