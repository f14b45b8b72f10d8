"""An alias of :func:`repro.apps.get_app` and nothing else.

``simbench/layers.py`` imports this module and wraps its
``teastore_app`` attribute; nothing in ``repro`` calls it.  The next
change to the benchmark removes the import, and this module with it.
"""

from repro.apps.registry import get_app as teastore_app  # noqa: F401
