"""``python -m iwri``: the same entry point as the ``iwri`` console script."""
from ._main import run

if __name__ == "__main__":
    run()
