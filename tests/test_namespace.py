import json
import os
import subprocess
import sys
from pathlib import Path

import spherecov
from spherecov import (
    errors,
    fields,
    geometry,
    interpolation,
    ranktests,
    sampling,
    simplex,
    spd,
    twosample,
)

MODULES = [errors, geometry, spd, simplex, fields, ranktests, twosample, sampling, interpolation]


def test_package_all_is_the_module_lists_in_import_order():
    assert spherecov.__all__ == [*(name for mod in MODULES for name in mod.__all__), "__version__"]


def test_no_name_is_exported_by_two_modules():
    # `import *` would let the later module shadow the earlier one silently
    assert len(set(spherecov.__all__)) == len(spherecov.__all__)


def test_every_name_is_the_object_its_module_binds():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(spherecov, name) is getattr(mod, name), (mod.__name__, name)


def test_star_import_binds_every_name():
    code = (
        "import json, spherecov\n"
        "from spherecov import *\n"
        "print(json.dumps([n for n in spherecov.__all__\n"
        "                  if n not in globals() or globals()[n] is not getattr(spherecov, n)]))\n"
    )
    src = str(Path(spherecov.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []
