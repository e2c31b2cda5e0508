"""The public name lists: every entry resolves, and the package re-exports
only layer names, error classes and submodules.

The benchmark's tracer looks up each layer's ``__all__`` entry by name, so
a stale entry would break a traced run before any test of the layer did.
"""

import importlib
import inspect
import types

import pytest

import branchdim
from branchdim import errors

LAYERS = ("spectra", "branch", "sets", "counting", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_layer_export_resolves(layer):
    module = importlib.import_module(f"branchdim.{layer}")
    assert len(module.__all__) == len(set(module.__all__))
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_only_layer_names_errors_and_submodules():
    layer_objects = {}
    for layer in LAYERS:
        module = importlib.import_module(f"branchdim.{layer}")
        for name in module.__all__:
            layer_objects[name] = getattr(module, name)
    error_classes = {name for name, obj in vars(errors).items()
                     if inspect.isclass(obj) and issubclass(obj, Exception)}
    stray = []
    for name in branchdim.__all__:
        obj = getattr(branchdim, name)
        if isinstance(obj, types.ModuleType):
            ok = obj.__name__ == f"branchdim.{name}"
        elif name in error_classes:
            ok = obj is getattr(errors, name)
        else:
            ok = layer_objects.get(name) is obj
        if not ok:
            stray.append(name)
    assert stray == []


@pytest.mark.parametrize("layer, name", [
    ("branch", "equiv_compare"), ("branch", "EquivReport"),
    ("branch", "branch_to_csv"), ("branch", "profile_to_csv"),
    ("branch", "strip_envelope"), ("branch", "inf_branch"),
    ("branch", "StripEnvelopeBranch"), ("branch", "InfBranch"),
    ("branch", "max_lipschitz_minorant"),
    ("spectra", "spectrum_to_csv"),
    ("_num", "interpolate"), ("_num", "slopes"),
])
def test_removed_names_are_gone(layer, name):
    assert not hasattr(importlib.import_module(f"branchdim.{layer}"), name)
    assert not hasattr(branchdim, name)


def test_removed_parameters_are_gone():
    from branchdim.branch import GridBranch
    from branchdim.counting import SpectrumEstimate
    from branchdim.spectra import Spectrum, spectrum_from_breakpoints

    assert "certified" not in inspect.signature(GridBranch).parameters
    assert "certified" not in inspect.signature(GridBranch.from_function).parameters
    assert "kind" not in inspect.signature(spectrum_from_breakpoints).parameters
    assert "kind" not in inspect.signature(Spectrum).parameters
    assert not hasattr(SpectrumEstimate, "dimensions")
