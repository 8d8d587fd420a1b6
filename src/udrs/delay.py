"""Delayed argument-slot resolution (dref_res).

A verb cannot know which discourse referent fills an argument slot until the
argument NP is classified by the one constraint its determiner put between
its distinguished labels: identity means not scope bearing (take the referent
at l_max), strict means scope bearing (take the referent at the restrictor of
the quantifier labelled l_max), and weak means an underspecified plural, so
resolution gives the NP's PendingKey instead.

Linking binds the verb's argument Slot to the referent, or to the NP's
PendingKey; disambiguation later binds the key.  Both bindings live in the
UDRS value.  The key, the NP's two distinguished labels, is also the one
name of a plural NP: ``pl_dis_*`` and ``decide`` take it.  What a
derivation keeps is only the ordered log of the plural keys it met, which
is also what ``np<k>`` counts and ``Session.disambiguate`` indexes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .core import UDRS, DiscourseReferent, Label, Quantifier, UDRSError, identity, strict, weak


class MalformedNP(UDRSError):
    pass


class PendingKey(NamedTuple):
    np_l_max: Label
    np_l_min: Label

    def __repr__(self) -> str:
        return f"dref_res({self.np_l_max},{self.np_l_min})"


def dref_res(np_udrs: UDRS) -> Union[DiscourseReferent, PendingKey]:
    """Resolve an argument NP's UDRS to a referent, or to its PendingKey.

    Reads that one constraint, with no closure: a pattern that only other
    labels derive is MalformedNP.  The NP's own constraint set is one that
    later combination steps never touch, so the outcome is stable.
    """
    l_max, l_min = np_udrs.ls.l_max, np_udrs.ls.l_min
    if identity(l_max, l_min) in np_udrs.subord:
        # not scope bearing: referent introduced at the maximal label
        intro = np_udrs.find_intro(l_max)
        if intro is None:
            raise MalformedNP(f"no referent introduced at {l_max}")
        return intro.dref
    if strict(l_max, l_min) in np_udrs.subord:
        # scope bearing: referent sits in the quantifier's restrictor
        for cond in np_udrs.conds:
            if isinstance(cond, Quantifier) and cond.label == l_max:
                intro = np_udrs.find_intro(cond.res)
                if intro is not None:
                    return intro.dref
                raise MalformedNP(f"no referent at restrictor {cond.res}")
        raise MalformedNP(f"strict NP without duplex at {l_max}")
    if weak(l_max, l_min) in np_udrs.subord:
        return PendingKey(l_max, l_min)
    raise MalformedNP(f"no subordination pattern between {l_max} and {l_min}")


class PendingRegistry:
    """A derivation's plural keys in the order linking met them.

    Whether a key is resolved is read off a UDRS value, the discourse the
    derivation last sequenced or disambiguated: its bindings bind the key.
    """

    def __init__(self):
        self._order: list[PendingKey] = []
        self.discourse: Optional[UDRS] = None

    def register(self, key: PendingKey) -> None:
        if key not in self._order:
            self._order.append(key)

    def all_keys(self) -> list[PendingKey]:
        """Every key ever registered, in registration order."""
        return list(self._order)

    def unresolved(self) -> list[PendingKey]:
        """Keys the latest discourse does not bind, in registration order."""
        bound = self.discourse.bindings if self.discourse is not None else {}
        return [k for k in self._order if k not in bound]
