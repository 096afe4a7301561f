import subprocess
import sys
from pathlib import Path

import sbc


def test_import_does_not_load_scipy():
    """`import sbc` stays numpy-only: scipy is a test dependency, and import time is set-up time.

    numpy.random is loaded only when the first random stream is built.
    """
    src = str(Path(sbc.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import sbc; "
             "print('scipy' in sys.modules, 'numpy.random' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe, src],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False False"
