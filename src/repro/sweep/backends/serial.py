"""Empty: serial sweep points run inline in ``run_plan``.

``perfbench/ledger.py`` imports this module by name before it installs
its wrappers, so the module stays until that import goes.
"""
