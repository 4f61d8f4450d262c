import os
import subprocess
import sys

import ionkit
from ionkit import lineage, notation, objlang, ordinals

MODULES = (objlang, ordinals, notation, lineage)


def test_package_exports_each_modules_all():
    expected = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert ionkit.__all__ == expected
    assert len(set(ionkit.__all__)) == len(ionkit.__all__)


def test_exported_names_are_the_modules_objects():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(ionkit, name) is getattr(m, name), (m.__name__, name)


def test_condition_and_error_names_import_from_the_package():
    from ionkit import Equals, Not, NotALimitError, TrueCond, source_sha256

    assert (Equals, Not, TrueCond) == (objlang.Equals, objlang.Not, objlang.TrueCond)
    assert NotALimitError is ordinals.NotALimitError
    assert source_sha256 is notation.source_sha256


def test_import_ionkit_loads_neither_the_cli_nor_argparse():
    code = "import sys, ionkit; print('ionkit.cli' in sys.modules, 'argparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(ionkit.__path__[0])},
    ).stdout
    assert out == "False False\n"
