"""The ``teamdp`` command: ``python -m teamdp`` and the installed script
both start here.

The package's ``__init__`` runs first and, numpy not being loaded yet,
sets ``OPENBLAS_NUM_THREADS=1`` unless the environment sets it, so
OpenBLAS starts no worker pool when ``cli`` loads numpy.  ``cli.main``
ends the process as soon as the report is out; library use
(``teamdp.cli.run``) leaves the exit path alone.
"""

from .cli import main

if __name__ == "__main__":
    main()
