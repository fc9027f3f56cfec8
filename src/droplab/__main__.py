"""``python -m droplab``: the droplab command line."""
from .cli import main

if __name__ == "__main__":
    main()
