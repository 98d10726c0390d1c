"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration and usage
problems exit 1, stability/numerical refusals exit 2, and failures inside
a Monte Carlo run exit 3.
"""


class ConfigError(Exception):
    """Bad or missing configuration (files, keys, values)."""


class TopologyError(Exception):
    """Invalid network description, or failure to generate one."""


class ModelError(Exception):
    """Invalid signal-model parameters (non-PD covariance, bad kind, ...)."""


class SequencingError(Exception):
    """Time indices requested out of order. Nothing in the package raises it
    since snapshot streams serve their draws in order; it stays exported
    while perfbench/workloads.py names it, see ROADMAP item 1."""


class AssemblyError(Exception):
    """The averaged error system cannot be built as given: a forgetting
    factor or consensus step out of range."""


class StabilityError(Exception):
    """A requested computation is refused because the system is unstable."""


class DivergenceError(Exception):
    """An iteration grew without bound instead of converging."""


class RunFailure(Exception):
    """A Monte Carlo run produced non-finite state."""
