"""Ring-road simulator for mixed CAV / human traffic with platoon
spacing strategies, string-stability checks, and fuel/emission metrics.

Import what you need from the modules (``platoonflow.experiments``,
``platoonflow.ring``, ...); the command line is ``platoonflow.cli``.
"""

__version__ = "0.1.0"
