"""``python -m waverep``: the command-line front end."""

from .cli import main

main()
