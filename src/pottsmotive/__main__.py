"""`python -m pottsmotive ...` runs the `potts` command line."""

from .cli import main

main()
