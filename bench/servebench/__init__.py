"""The stage-resolved serving benchmark (see ``bench/README.md``).

Everything here drives the system under ``src/`` through its public
composition points; nothing in ``src/`` is edited or monkey-patched.
``bench/run.py`` is the one entry point.
"""
