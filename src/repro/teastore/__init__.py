"""Holds only :mod:`repro.teastore.store`, an alias kept for the
benchmark's span tracer.  TeaStore itself is the bundled
``teastore.json`` spec (``repro.apps.get_app("teastore")``)."""
