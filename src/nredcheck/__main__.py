"""`python -m nredcheck`: the command-line tool of `nredcheck.cli`."""

from .cli import entry

if __name__ == "__main__":
    entry()
