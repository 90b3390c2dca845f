"""The ``teamdp`` command: ``python -m teamdp`` and the installed script
both start here.

OpenBLAS is told to start no worker pool (``OPENBLAS_NUM_THREADS=1``)
before ``cli`` is imported, which is where numpy, and with it OpenBLAS,
loads: at its load OpenBLAS starts one worker thread per further CPU,
and those threads take the CPU from the import while teamdp never runs
a BLAS call large enough to use them.  ``import teamdp`` loads no numpy,
so the setting is in time; a value already in the environment is kept.
``cli.main`` ends the process as soon as the report is out.  Library use
(``import teamdp``, ``teamdp.cli.run``) touches neither the environment
nor the exit path.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy loads here, after the setting)

if __name__ == "__main__":
    main()
