"""`python -m endscope`: the endscope command line."""

from .cli import main

if __name__ == "__main__":
    main()
