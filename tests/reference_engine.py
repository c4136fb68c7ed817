"""A reference slot engine: the batched and deferred ops as the calls they stand for.

`SlotEngine` defines `add_many` as a fixed sequence of `add_ct` calls, and
`weighted_rotate_sum` as `mult_pt`, then `rotate_sum`'s `rotate`/`add_ct`
loop, then `mark_prepared`, which `SlotBackend` must equal bit for bit.
`ReferenceBackend` runs exactly those sequences, eagerly, so a run under it
and a run under `SlotBackend` must write the same report bytes, at any size.
`rotate_sum` states the loop that a deferred prepare's first read replays
on `SlotBackend`'s private engine; here it runs at the call, on the engine
itself.
Each backend counts its reference calls in `calls`, so a test can tell that
they ran.
"""

from collections import Counter

from consentry.he_slots import Ciphertext, SlotBackend, seeded_backend


def rotate_sum(engine: SlotBackend, a: Ciphertext) -> Ciphertext:
    """Sum every slot into every slot: `a = add_ct(a, rotate(a, 2**i))` for
    i from log2(capacity) - 1 down to 0 (OpenFHE's `EvalSum`)."""
    amount = engine.config.slot_capacity // 2
    while amount >= 1:
        a = engine.add_ct(a, engine.rotate(a, amount))
        amount //= 2
    return a


class ReferenceBackend(SlotBackend):

    def add_many(self, accs: tuple, rows) -> tuple:
        self.calls["add_many"] += 1
        accs = list(accs)
        for row in rows:
            for c, ct in enumerate(row):
                accs[c] = self.add_ct(accs[c], ct)
        return tuple(accs)

    def weighted_rotate_sum(self, a: Ciphertext, weights, length: int) -> Ciphertext:
        self.calls["weighted_rotate_sum"] += 1
        self._check_len(length)
        return self.mark_prepared(rotate_sum(self, self.mult_pt(a, weights())))


def seeded_reference_backend(slot_capacity: int, noise_epsilon: float,
                             seed: int) -> ReferenceBackend:
    """`seeded_backend`'s engine, with its config and seed, as a
    `ReferenceBackend`."""
    backend = seeded_backend(slot_capacity, noise_epsilon, seed)
    backend.__class__ = ReferenceBackend
    backend.calls = Counter()
    return backend
