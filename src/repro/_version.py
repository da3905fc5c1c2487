"""Package version (``setup.py`` reads it from this file)."""

__version__ = "1.0.0"
