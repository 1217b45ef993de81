"""The benchmark's probes and checks, run against the current gvcl.

`perfbench/probes.py` wraps gvcl functions by name and `perfbench/checks.py`
calls them. A hooked name that is renamed or reshaped fails here, in the
test suite, rather than first in a benchmark run.
"""

import os
import sys

from gvcl import cli, nets, optim, toys
from gvcl.nets import Architecture
from gvcl.objectives import GVCLConfig
from gvcl.runner import RunnerConfig

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import checks  # noqa: E402
import probes  # noqa: E402


class NoBurst:
    """A reference burst with no parts: every call times nothing."""

    parts = {}

    def __call__(self, names):
        return {}


def _bindings():
    """Every name the probes may rebind, with the object it is bound to."""
    out = {(mod, k): v for mod in probes.MODULES for k, v in vars(mod).items()}
    for cls in (nets.VariationalNet, optim.Adam, optim.SGD):
        out.update({(cls, k): v for k, v in vars(cls).items()})
    return out


def test_bench_probes_and_checks_run_against_gvcl():
    before = _bindings()
    probe = probes.Probe(NoBurst(), every=1e9)
    tracer = probes.Tracer(probe)
    probe.install()
    tracer.install()
    try:
        tasks = toys.gen_synthetic_pair(0)
        arch = Architecture.mlp(input_dim=12, hidden=(8,))
        cfg = RunnerConfig(
            gvcl=GVCLConfig(epochs=2, lr=1e-2, eval_samples=2), map_epochs=2, fisher_samples=10
        )
        for method in ("gvcl_film", "ewc"):
            cli.run_continual(method, tasks, cfg, 0, arch=arch)
    finally:
        tracer.uninstall()
        probe.uninstall()

    vi, ewc = probe.cells
    assert not vi["record"].error and not ewc["record"].error
    assert checks.check_kl(vi) == []
    assert checks.check_steps(vi) == []
    assert checks.check_fisher(ewc) == []
    assert checks.check_fisher_work(ewc) == []
    # the wrapped losses sit on the path every optimizer step takes
    assert tracer.calls["objectives.beta_elbo_loss"] == vi["steps"]
    assert tracer.calls["objectives.ewc_loss"] == ewc["steps"] > 0
    assert len(probe.steps) == vi["steps"] + ewc["steps"]

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
