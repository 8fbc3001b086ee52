"""Run the ``gentle`` command line as ``python -m gentle``."""
from .cli import main

raise SystemExit(main())
