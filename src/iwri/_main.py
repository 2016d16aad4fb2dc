"""Console-script entry point: hands over to the CLI."""

import sys

from .cli import main


def run():
    sys.exit(main(sys.argv[1:]))
