"""The names perfbench's tracer wraps still name platoonflow functions.

The tracer replaces a function at the name under which its caller
imported it and skips a name that does not resolve, so a rename zeroes
that span without an error. This pins which of its targets resolve.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from platoonflow import controllers, ring

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# targets the tracer lists that no platoonflow module defines under that name
UNRESOLVED = {
    "platoonflow.cli.write_csv",
    "platoonflow.experiments.run_cell",
    "platoonflow.experiments.cell_seed",
    "platoonflow.experiments.fleet_fuel",
    "platoonflow.experiments.fleet_emissions",
    "platoonflow.experiments.write_trajectory_csv",
    "platoonflow.experiments.generate_sequence",
    "platoonflow.ring.init_state",
    "platoonflow.ring.run_state",
    "platoonflow.ring.generate_sequence",
    "platoonflow.ring.form_platoons",
    "platoonflow.ring.assign_strategies",
    "platoonflow.fleet.label_roles",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_only_the_known_tracer_targets_fail_to_resolve():
    tracer = load_tracer()
    targets = [(module, attr) for module, attr, _, _ in tracer.WRAPS]
    unresolved = {f"{module}.{attr}" for module, attr in targets
                  if getattr(importlib.import_module(module), attr, None) is None}
    assert unresolved == UNRESOLVED
    assert len(targets) - len(unresolved) == 15


def test_traced_laws_are_the_controllers_functions():
    tracer = load_tracer()
    for law in tracer.LAWS:
        name = f"{law}_accel"
        assert getattr(ring, name) is getattr(controllers, name), name
