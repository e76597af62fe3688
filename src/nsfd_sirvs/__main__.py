"""`python -m nsfd_sirvs`: the `nsfd-sirvs` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
