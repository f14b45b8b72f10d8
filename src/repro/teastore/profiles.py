"""User session profiles as Markov chains.

TeaStore's load driver walks stochastic user profiles; the study uses the
"browse" profile: users arrive at the home page, typically log in, browse
categories and product pages, occasionally add items to their cart, and
eventually log out.  The "buy" profile fills a cart and completes the
order, stressing the database's serialized fraction.  Both transition
matrices are session profiles of the bundled ``teastore.json`` spec
(reconstructions of the suite's LIMBO/Markov definitions — the exact
probabilities shape the request mix, not the paper's conclusions).
"""

from __future__ import annotations

from repro.apps.registry import load_bundled
from repro.workload.sessions import MarkovSessionProfile

__all__ = ["MarkovSessionProfile", "browse_profile", "buy_profile"]


def _spec_profile(name: str) -> MarkovSessionProfile:
    session = load_bundled("teastore").session(name)
    return MarkovSessionProfile(session.transitions, start=session.start,
                                service=session.service)


def browse_profile() -> MarkovSessionProfile:
    """The standard browse profile used throughout the experiments."""
    return _spec_profile("browse")


def buy_profile() -> MarkovSessionProfile:
    """The order-completing profile (checkout-heavy, DB-write-intensive)."""
    return _spec_profile("buy")
