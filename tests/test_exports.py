"""Public names: every `__all__` entry of every newmanlab module resolves."""

import importlib
import pkgutil

import pytest

import newmanlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(newmanlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"newmanlab.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_trial_record_is_exported_once():
    from newmanlab import experiment, sparsify

    assert newmanlab.TrialRecord is sparsify.TrialRecord
    assert "TrialRecord" in sparsify.__all__
    assert "TrialRecord" not in experiment.__all__
