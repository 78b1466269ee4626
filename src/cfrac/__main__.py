"""``python -m cfrac``: the ``cfrac`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
