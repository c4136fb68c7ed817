"""Per-observer exposure views read from a run's trace."""


def audit_view(trace, keys, observer):
    """Every ciphertext `observer` came to hold or decrypted in the run of
    `trace`, as (ciphertext or ledger event, taint, whether `observer` holds
    its key), with key holders read from the `KeyMaterial` in `keys`.

    Deliveries come from `trace.messages`, in delivery order, then the
    decryptions of `trace.backend.events()`, in ledger order.  A trace with
    deliveries but no message log raises `ValueError`, so a view is never
    vacuously clean; an observer that received, decrypted and holds nothing
    raises `LookupError`.
    """
    if trace.deliveries and not trace.messages:
        raise ValueError("the run kept no message log; run the simulation "
                         "with keep_log=True to inspect exposures")
    holders = {km.key_id: km.holder for km in keys}
    known = set(holders.values())
    out = []
    for _, _, dst, msg in trace.messages:
        known.add(dst)
        if dst == observer:
            out.extend((ct, ct.taint, holders.get(ct.key_id) == observer)
                       for ct in msg.ciphertexts)
    for ev in trace.backend.events():
        known.add(ev.observer)
        if ev.kind == "decrypt" and ev.observer == observer:
            out.append((ev, ev.taint, holders.get(ev.key_id) == observer))
    if observer not in known:
        raise LookupError(f"observer {observer!r} never seen")
    return out
