"""``python -m repro.engine``: rewrite the generated interface block of
``_ckernel.c`` from the tables in :mod:`repro.engine.ckernel`.

It lives here, not under ``ckernel``'s own ``__main__`` guard, because
the package imports ``ckernel``: running that module with ``-m`` would
execute it a second time, with a runpy warning.
"""

from .ckernel import _SRC, regenerate

print("rewritten" if regenerate() else "already up to date", _SRC)
