"""Console-script entry point: hands over to the CLI."""

import sys

from .cli import cli_dispatch


def run():
    sys.exit(cli_dispatch(sys.argv[1:]))
