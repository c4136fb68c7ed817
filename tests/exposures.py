"""Per-observer exposure views read from a run's recorded deliveries."""


def record_deliveries(setup):
    """The list a run of `setup` fills with its deliveries, in delivery order,
    as (time, sender, receiver, ProtocolMessage).  Call it before the run:
    it wraps each node's `on_deliver`, which records a receiver's batch
    before the node reads it."""
    log = []
    for pid, node in setup.nodes.items():
        def on_deliver(ctx, batch, pid=pid, deliver=node.on_deliver):
            now = ctx._sim._now
            log.extend([(now, frm, pid, msg) for frm, msg in batch])
            deliver(ctx, batch)
        node.on_deliver = on_deliver
    return log


def audit_view(trace, log, keys, observer):
    """Every ciphertext `observer` came to hold or decrypted in the run of
    `trace`, as (ciphertext or ledger event, taint mask, whether `observer`
    holds its key), with key holders read from the `KeyMaterial` in `keys`.

    Deliveries come from `log`, the run's `record_deliveries` list, in
    delivery order, then the decryptions of `trace.backend.events()`, in
    ledger order.  A log whose length is not `trace.deliveries` raises
    `ValueError`, so a view is never vacuously clean; an observer that
    received, decrypted and holds nothing raises `LookupError`.
    """
    if len(log) != trace.deliveries:
        raise ValueError(f"the log holds {len(log)} deliveries, the run made "
                         f"{trace.deliveries}; record them before the run")
    holders = {km.key_id: km.holder for km in keys}
    known = set(holders.values())
    out = []
    for _, _, dst, msg in log:
        known.add(dst)
        if dst == observer:
            out.extend((ct, ct.taint_mask, holders.get(ct.key_id) == observer)
                       for ct in msg.ciphertexts)
    for ev in trace.backend.events():
        known.add(ev.observer)
        if ev.kind == "decrypt" and ev.observer == observer:
            out.append((ev, ev.taint_mask, holders.get(ev.key_id) == observer))
    if observer not in known:
        raise LookupError(f"observer {observer!r} never seen")
    return out
