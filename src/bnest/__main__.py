"""`python -m bnest ...` runs the bnest command line."""
from .cli import main

raise SystemExit(main())
