"""Readers import only what they read.

``import repro`` binds its public names on first use, so the telemetry
readers (``repro.obs.*``) never import the simulator, and reading a
plain run directory never imports the sweep service.  Each check runs in
a fresh interpreter, where ``sys.modules`` starts empty.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.baselines import make_engine
from repro.obs.context import ObsConfig, ObsContext
from repro.obs.sinks import NdjsonFileSink

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_python(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_obs_watch_leaves_the_simulator_unimported():
    got = fresh_python(
        "import json, sys\n"
        "import repro.obs.watch\n"
        "engine = 'repro.sim.engine' in sys.modules\n"
        "from repro import MtmManager, make_engine\n"
        "print(json.dumps({'engine': engine,\n"
        "                  'names': [MtmManager.__name__,\n"
        "                            make_engine.__name__]}))\n")
    assert got == {"engine": False, "names": ["MtmManager", "make_engine"]}


def test_reading_a_plain_run_leaves_the_service_unimported(tmp_path):
    ctx = ObsContext(ObsConfig(stream=True), label="plain")
    ctx.add_sink(NdjsonFileSink(tmp_path / "stream.ndjson"))
    make_engine("mtm", "gups", scale=1 / 512, seed=3, obs=ctx).run(4)
    ctx.stream_close()
    got = fresh_python(
        "import json, sys\n"
        "from repro.obs.analytics import load_run\n"
        "from repro.obs.cli import obs_report\n"
        f"obs_report({str(tmp_path)!r})\n"
        f"obs_report({str(tmp_path)!r}, as_json=True)\n"
        f"load_run({str(tmp_path)!r})\n"
        "print(json.dumps({'service': 'repro.service' in sys.modules}))\n")
    assert got == {"service": False}
