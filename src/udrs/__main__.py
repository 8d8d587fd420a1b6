"""``python -m udrs``: the ``udrs`` command line."""

from .cli import main

main()
