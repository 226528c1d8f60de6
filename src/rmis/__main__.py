"""`python -m rmis`: the command-line interface, run from a checkout with
`src` on the module path (`PYTHONPATH=src python -m rmis find g.edges`).
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
