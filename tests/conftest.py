"""Hypothesis runs derandomized, with no example database and no deadline,
so the property tests draw the same examples on every run and do not depend
on the speed of the host.  It skips the explain phase, which only adds notes
to a failure report and makes a failing property several times slower to
report.  Its remaining cache (constants read from the source) goes to a
temporary directory removed after the run, so no ``.hypothesis/`` directory
is written into the tree."""

import tempfile
import warnings

import pytest
from hypothesis import Phase, settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None,
                          phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("deterministic")

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(
        prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HOME].cleanup()


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # on a failing property test Hypothesis imports its patch writer, whose
    # dependencies warn on import; the failure is reported, not the warning
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict",
                                DeprecationWarning)
        return (yield)
