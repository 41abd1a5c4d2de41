"""``python -m weylgeom``: the weylgeom command line."""

from .cli import entrypoint

entrypoint()
