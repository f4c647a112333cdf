"""The platform side: page loads, click IDs, outbound-link decoration.

Every page load on the platform carries 50 fresh 61-character click IDs.
The feed derives a load's IDs on first read, through
:meth:`PlatformFeed.click_id`, so a load pays only for the slots its links
use.  Outbound links get one of those IDs appended, chosen by the link
element's class name: same class, same ID within a load.  Every issuance
is written to an append-only ledger, indexed by click-ID value, which is
the join key the tracker later uses to de-anonymize visitors.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from .cookies import CLICK_ID_ALPHABET, CLICK_ID_LENGTH, Fbclid, TrackedUrl

ARRAY_SIZE = 50

# Maps each digest byte to the alphabet character of its low six bits.
_CLICK_ID_TABLE = bytes(ord(CLICK_ID_ALPHABET[b & 63]) for b in range(256))


@dataclass(slots=True)
class PageLoad:
    account_id: str
    number: int  # the account's loads before this one
    tick: int
    # ARRAY_SIZE slots, each None until PlatformFeed.click_id first reads it.
    click_ids: list[Fbclid | None] = field(default_factory=lambda: [None] * ARRAY_SIZE)
    class_assignment: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ClickLedgerEntry:
    fbclid: Fbclid
    account_id: str
    element_class: str
    number: int  # the load's, as in PageLoad
    issued_at: int
    target_origin: str  # origin the decorated link pointed at


def _derive_click_id(seed: int, account_id: str, number: int, slot: int, nonce: int) -> Fbclid:
    key = f"{seed}:{account_id}:{number}:{slot}:{nonce}".encode()
    digest = hashlib.sha512(key).digest()
    return Fbclid(digest[:CLICK_ID_LENGTH].translate(_CLICK_ID_TABLE).decode("ascii"))


class PlatformFeed:
    """Issues click IDs and keeps the account-to-ID ledger."""

    def __init__(self, seed: int):
        self._seed = seed
        self._issued_values: set[str] = set()
        self.ledger: list[ClickLedgerEntry] = []
        self._entries_by_value: dict[str, list[ClickLedgerEntry]] = {}
        self.current_loads: dict[str, PageLoad] = {}

    def refresh_click_ids(self, account_id: str, tick: int) -> PageLoad:
        previous = self.current_loads.get(account_id)
        number = 0 if previous is None else previous.number + 1
        load = self.current_loads[account_id] = PageLoad(account_id, number, tick)
        return load

    def click_id(self, load: PageLoad, slot: int) -> Fbclid:
        """The ID in ``slot`` (0 to ARRAY_SIZE - 1) of ``load``.

        It is derived, checked for freshness and recorded as issued the
        first time it is read; later reads return the same object.
        """
        click_id = load.click_ids[slot]
        if click_id is None:
            # Cross-load freshness is enforced, not just assumed: regenerate
            # with the next nonce on the (practically impossible) digest collision.
            for nonce in itertools.count():
                click_id = _derive_click_id(self._seed, load.account_id, load.number, slot, nonce)
                if click_id.value not in self._issued_values:
                    break
            self._issued_values.add(click_id.value)
            load.click_ids[slot] = click_id
        return click_id

    def decorate_outbound(
        self, load: PageLoad, target_url: TrackedUrl, element_class: str
    ) -> tuple[TrackedUrl, ClickLedgerEntry]:
        """Append the class-assigned click ID to an outbound link.

        Indices are allocated first-seen, round-robin; past 50 distinct
        classes they wrap, so a 51st class shares the first slot's ID.
        """
        if element_class not in load.class_assignment:
            load.class_assignment[element_class] = len(load.class_assignment) % ARRAY_SIZE
        click_id = self.click_id(load, load.class_assignment[element_class])
        decorated = target_url.with_param("fbclid", click_id.value)
        entry = ClickLedgerEntry(
            fbclid=click_id,
            account_id=load.account_id,
            element_class=element_class,
            number=load.number,
            issued_at=load.tick,
            target_origin=target_url.origin,
        )
        self.ledger.append(entry)
        self._entries_by_value.setdefault(click_id.value, []).append(entry)
        return decorated, entry

    def entries_for(self, fbclid_value: str) -> list[ClickLedgerEntry]:
        """Ledger entries issuing ``fbclid_value``, in ledger order."""
        return list(self._entries_by_value.get(fbclid_value, ()))
