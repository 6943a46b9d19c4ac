"""The benchmark harness still runs against the program.

perfbench/ wraps functions of the program by name, looked up in the owner's
``__dict__`` (harness.SPANS: train_pipeline, reoptimize_classifier,
erm_train, flow_fit, Encoder.encode_tape, Tensor.backward, Adam.step,
FlowModel.nll_loss, ...), and checks that every run reports exactly the
metrics of BENCHMARK.json. Each training stage runs one loss node per step,
so ``Encoder.encode_tape`` (the ERM forward: latents and cache) and
``FlowModel.nll_loss`` time a step's forward, and ``Tensor.backward`` (the
node's rule) its whole backward. The self-test runs every workload at a tiny
size in a few seconds; a rename or a dropped metric makes it fail.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
