"""``import repro`` must stay light: numpy loads where a stream is built."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import repro
from repro.common.clock import VirtualClock
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler

class Owner:
    name = "n"

clock = VirtualClock()
owner = Owner()
owner.metadata = MetadataRegistry(
    owner, MetadataSystem(clock, VirtualTimeScheduler(clock)))
owner.metadata.define(MetadataDefinition(MetadataKey("x"), Mechanism.STATIC, value=1))
assert owner.metadata.subscribe(MetadataKey("x")).get() == 1
print("numpy" in sys.modules)

from repro.sources.synthetic import ConstantRate, StreamDriver
StreamDriver(None, ConstantRate(1.0))
print("numpy" in sys.modules)
"""


def test_bare_metadata_system_does_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    # Not after building a registry; yes once a stream driver exists.
    assert result.stdout.split() == ["False", "True"]
