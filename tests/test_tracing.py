"""The benchmark's traced run patches package functions by name.

``perfbench/tracing.py`` looks every hooked function up in its module when
it installs; a renamed or deleted function breaks the traced benchmark.
This guard runs the install and uninstall against the package.
"""

import importlib.util
import pathlib
import sys

import jumpfeedback
import jumpfeedback.cli  # noqa: F401  (the tracer hooks cli functions too)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_attributes():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "jumpfeedback"
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_install_and_uninstall_against_the_package():
    tracing = load_tracing()
    before = package_attributes()
    superop_expm = jumpfeedback.Superoperator.expm
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
        for _, modname, attr in tracing.TRACED_FUNCTIONS:
            assert (sys.modules[modname], attr) in patched
        assert jumpfeedback.Superoperator.expm is not superop_expm
    finally:
        tracer.uninstall()
    assert package_attributes() == before
    assert jumpfeedback.Superoperator.expm is superop_expm
