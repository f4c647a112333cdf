"""The platform side: page loads, click-ID arrays, outbound-link decoration.

Every page load on the platform carries an array of 50 fresh 61-character
click IDs, each derived on first access, so a load pays only for the
slots its links use.  Outbound links get one of those IDs appended, chosen
by the link element's class name: same class, same ID within a load.
Every issuance is written to an append-only ledger, indexed by click-ID
value, which is the join key the tracker later uses to de-anonymize
visitors.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field

from .cookies import CLICK_ID_ALPHABET, CLICK_ID_LENGTH, Fbclid, TrackedUrl

ARRAY_SIZE = 50

# Maps each digest byte to the alphabet character of its low six bits.
_CLICK_ID_TABLE = bytes(ord(CLICK_ID_ALPHABET[b & 63]) for b in range(256))


class ClickIdArray(Sequence[Fbclid]):
    """The ARRAY_SIZE click IDs of one page load.

    A slot's ID is derived, checked for freshness and recorded as issued
    the first time it is read; later reads return the same object.
    """

    __slots__ = ("_seed", "_issued", "_account_id", "_counter", "_ids")

    def __init__(self, seed: int, issued: set[str], account_id: str, counter: int):
        # Not the feed itself: it holds its current loads, so that would be a cycle.
        self._seed = seed
        self._issued = issued
        self._account_id = account_id
        self._counter = counter
        self._ids: list[Fbclid | None] = [None] * ARRAY_SIZE

    def __len__(self) -> int:
        return ARRAY_SIZE

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(ARRAY_SIZE)))
        click_id = self._ids[index]
        if click_id is None:
            slot = index % ARRAY_SIZE
            click_id = _issue(self._seed, self._issued, self._account_id, self._counter, slot)
            self._ids[slot] = click_id
        return click_id


@dataclass(slots=True)
class PageLoad:
    load_id: str
    account_id: str
    tick: int
    click_ids: ClickIdArray  # ARRAY_SIZE entries, each derived on first access
    class_assignment: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ClickLedgerEntry:
    fbclid: Fbclid
    account_id: str
    element_class: str
    load_id: str
    issued_at: int
    target_origin: str  # origin the decorated link pointed at


def _derive_click_id(seed: int, account_id: str, counter: int, slot: int, nonce: int) -> Fbclid:
    key = f"{seed}:{account_id}:{counter}:{slot}:{nonce}".encode()
    digest = hashlib.sha512(key).digest()
    return Fbclid(digest[:CLICK_ID_LENGTH].translate(_CLICK_ID_TABLE).decode("ascii"))


def _issue(seed: int, issued: set[str], account_id: str, counter: int, slot: int) -> Fbclid:
    nonce = 0
    click_id = _derive_click_id(seed, account_id, counter, slot, nonce)
    # Cross-load freshness is enforced, not just assumed: regenerate
    # on the (practically impossible) digest collision.
    while click_id.value in issued:
        nonce += 1
        click_id = _derive_click_id(seed, account_id, counter, slot, nonce)
    issued.add(click_id.value)
    return click_id


class PlatformFeed:
    """Issues click IDs and keeps the account-to-ID ledger."""

    def __init__(self, seed: int):
        self._seed = seed
        self._load_counters: dict[str, int] = {}
        self._issued_values: set[str] = set()
        self.ledger: list[ClickLedgerEntry] = []
        self._entries_by_value: dict[str, list[ClickLedgerEntry]] = {}
        self.current_loads: dict[str, PageLoad] = {}

    def refresh_click_ids(self, account_id: str, tick: int) -> PageLoad:
        counter = self._load_counters.get(account_id, 0)
        self._load_counters[account_id] = counter + 1
        load = PageLoad(
            load_id=f"{account_id}#{counter}",
            account_id=account_id,
            tick=tick,
            click_ids=ClickIdArray(self._seed, self._issued_values, account_id, counter),
        )
        self.current_loads[account_id] = load
        return load

    def decorate_outbound(
        self, load: PageLoad, target_url: TrackedUrl, element_class: str
    ) -> tuple[TrackedUrl, ClickLedgerEntry]:
        """Append the class-assigned click ID to an outbound link.

        Indices are allocated first-seen, round-robin; past 50 distinct
        classes they wrap, so a 51st class shares the first slot's ID.
        """
        if element_class not in load.class_assignment:
            load.class_assignment[element_class] = len(load.class_assignment) % ARRAY_SIZE
        click_id = load.click_ids[load.class_assignment[element_class]]
        decorated = target_url.with_param("fbclid", click_id.value)
        entry = ClickLedgerEntry(
            fbclid=click_id,
            account_id=load.account_id,
            element_class=element_class,
            load_id=load.load_id,
            issued_at=load.tick,
            target_origin=target_url.origin,
        )
        self.ledger.append(entry)
        self._entries_by_value.setdefault(click_id.value, []).append(entry)
        return decorated, entry

    def entries_for(self, fbclid_value: str) -> list[ClickLedgerEntry]:
        """Ledger entries issuing ``fbclid_value``, in ledger order."""
        return list(self._entries_by_value.get(fbclid_value, ()))

