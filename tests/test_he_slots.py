"""Backend contract tests: round trips, homomorphism, taint, access control."""

import ast
import random
from pathlib import Path

import numpy as np
import pytest

from consentry import avg_consensus, he_slots, leader_election, outlier_consensus
from consentry.avg_consensus import ConsensusState
from consentry.he_slots import (AccessDeniedError, BackendConfig, KeyMismatchError,
                                PublicPart, SlotBackend, SlotEngine, SlotVector,
                                slot_capacity_for)
from consentry.netsim import SimTrace

import reference_engine
from exposures import audit_view

#: owners "T", 0, 1 and "x"; the string tags are owned by their first letter
TAGS = [(0, "a"), (1, "a"), (0, "b"), ("T", "t"), ("x", "s"), (2, "c"),
        "xy", "Tz", (1, "d", "more")]


def make_backend(cap=4, eps=0.0, seed=11):
    return SlotBackend(BackendConfig(cap, eps), seed=seed)


def mask_of(b, tags):
    """The taint mask of the set `tags` in `b`'s tag table: its tags' bits
    are distinct powers of two, so their sum is their OR."""
    bits = b._tag_table.bits
    return sum(bits[tag] for tag in tags)


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(3)
    with pytest.raises(ValueError):
        BackendConfig(1)
    with pytest.raises(ValueError):
        BackendConfig(4, -0.1)
    assert slot_capacity_for(5) == 8
    assert slot_capacity_for(1) == 2
    assert slot_capacity_for(12) == 16


def test_noise_whose_range_overflows_is_rejected():
    # noise is drawn from [-eps, eps]: 2 * eps must be a finite float
    top = float(np.nextafter(he_slots.MAX_NOISE_EPSILON, np.inf))
    assert 2 * top == float("inf") > 2 * he_slots.MAX_NOISE_EPSILON
    for eps in (top, 1e308, float("inf"), float("nan"), 10 ** 400):
        with pytest.raises(ValueError, match="noise_epsilon"):
            BackendConfig(4, eps)
    b = make_backend(4, he_slots.MAX_NOISE_EPSILON)
    km = b.keygen("T")
    assert b.encrypt(km.public_part, SlotVector([1, 2, 3, 4]), ("p", "v")).noise_bound == \
        he_slots.MAX_NOISE_EPSILON


def test_keygen_contract():
    b = make_backend(8)
    km = b.keygen("T")
    assert km.holder == "T"
    assert km.secret_part.holder == "T"
    km2 = b.keygen("T")
    assert km.key_id != km2.key_id


def test_keygen_reproducible_under_seed():
    k1 = make_backend(seed=42).keygen("T").key_id
    k2 = make_backend(seed=42).keygen("T").key_id
    assert k1 == k2


def test_a_noise_free_backend_numbers_its_keys_and_builds_no_generator():
    b = make_backend(eps=0.0)
    keys = [b.keygen("T") for _ in range(3)]
    assert [km.key_id for km in keys] == ["key01", "key02", "key03"]
    ct = b.encrypt(keys[0].public_part, SlotVector([1, 2, 3, 4]), ("p", "v"))
    b.decrypt(keys[0].secret_part, b.weighted_rotate_sum(
        b.add_ct(ct, ct), lambda: SlotVector([0.5] * 4), 4), caller="T")
    assert "_rng" not in vars(b) and "_rng" not in vars(b._replayer)


@pytest.mark.parametrize("keys", [1, 2, 5])
def test_each_noisy_keygen_takes_one_draw_before_the_noise_stream(keys):
    # every noise stream begins after one integers(0, 2**32) draw per key,
    # which the noisy golden reports rest on
    b = make_backend(eps=1e-9, seed=11)
    assert [b.keygen("T").key_id for _ in range(keys)] == \
        [f"key{i:02d}" for i in range(1, keys + 1)]
    want = np.random.default_rng(11)
    for _ in range(keys):
        want.integers(0, 2**32)
    assert b._rng.bit_generator.state == want.bit_generator.state


def test_encrypt_decrypt_roundtrip():
    b = make_backend(4)
    km = b.keygen("T")
    ct = b.encrypt(km.public_part, SlotVector([0, 0, 0, 0]), ("T", "x"))
    assert b.decrypt(km.secret_part, ct).values.tolist() == [0, 0, 0, 0]
    ct5 = b.encrypt(km.public_part, SlotVector([5, 0, 0, 0]), ("T", "x"))
    assert b.decrypt(km.secret_part, ct5).values.tolist() == [5, 0, 0, 0]


def test_encrypt_taint_and_distinguishable_handles():
    b = make_backend(4)
    km = b.keygen("T")
    v = SlotVector([1, 2, 3, 4])
    c1 = b.encrypt(km.public_part, v, ("p", "t"))
    c2 = b.encrypt(km.public_part, v, ("p", "t"))
    assert b._tag_table.bits == {("p", "t"): 1}
    assert c1.taint_mask == c2.taint_mask == 1
    assert c1.handle != c2.handle


def test_encrypt_length_mismatch():
    b = make_backend(4)
    km = b.keygen("T")
    with pytest.raises(ValueError):
        b.encrypt(km.public_part, SlotVector([1, 2]), ("p", "t"))


def test_encrypt_under_a_key_the_backend_never_issued_raises():
    b = make_backend(4)
    own = b.keygen("T")
    stranger = make_backend(4, seed=12).keygen("U")
    # a backend of the same seed issues the same key id
    twin = make_backend(4).keygen("U")
    assert twin.key_id == own.key_id
    for public_part in (stranger.public_part, twin.public_part,
                        PublicPart("key01-never-issued"), PublicPart(own.key_id)):
        with pytest.raises(KeyMismatchError, match="unknown key"):
            b.encrypt(public_part, SlotVector([1, 2, 3, 4]), ("p", "t"))


def test_slot_vector_of_a_two_dimensional_array_raises():
    with pytest.raises(ValueError, match="one-dimensional"):
        SlotVector(np.zeros((2, 2)))


def test_decrypt_key_mismatch_is_access_denied():
    b = make_backend(4)
    ka = b.keygen("A")
    kb = b.keygen("B")
    ct = b.encrypt(kb.public_part, SlotVector([1, 2, 3, 4]), ("B", "x"))
    with pytest.raises(AccessDeniedError):
        b.decrypt(ka.secret_part, ct, caller="A")


def test_decrypt_with_a_same_seed_backends_secret_is_access_denied():
    b, twin = make_backend(4), make_backend(4)
    own, foreign = b.keygen("T"), twin.keygen("T")
    assert foreign.key_id == own.key_id
    ct = b.encrypt(own.public_part, SlotVector([1, 2, 3, 4]), ("T", "x"))
    with pytest.raises(AccessDeniedError):
        b.decrypt(foreign.secret_part, ct, caller="T")
    assert [(ev.kind, ev.observer, ev.handle) for ev in b.events()] == [
        ("decrypt-denied", "T", ct.handle)]
    assert b.violations() == []
    assert b.decrypt(own.secret_part, ct).values.tolist() == [1, 2, 3, 4]


def test_decrypt_of_a_same_seed_backends_ciphertext_is_access_denied():
    b, twin = make_backend(4), make_backend(4)
    own, foreign = b.keygen("T"), twin.keygen("T")
    assert foreign.key_id == own.key_id
    ct = twin.encrypt(foreign.public_part, SlotVector([1, 2, 3, 4]), ("U", "x"))
    with pytest.raises(AccessDeniedError, match="made by another backend"):
        b.decrypt(own.secret_part, ct, caller="T")
    assert [(ev.kind, ev.observer, ev.handle) for ev in b.events()] == [
        ("decrypt-denied", "T", ct.handle)]
    assert b.violations() == []
    assert twin.decrypt(foreign.secret_part, ct).values.tolist() == [1, 2, 3, 4]


def test_add_examples():
    b = make_backend(4)
    km = b.keygen("T")
    enc = lambda v: b.encrypt(km.public_part, SlotVector(v), ("p", "v"))
    dec = lambda ct: b.decrypt(km.secret_part, ct).values.tolist()
    assert dec(b.add_ct(enc([1, 2, 0, 0]), enc([0, 0, 0, 0]))) == [1, 2, 0, 0]
    assert dec(b.add_ct(enc([1, 2, 3, 4]), enc([4, 3, 2, 1]))) == [5, 5, 5, 5]
    with pytest.raises(KeyMismatchError):
        other = b.keygen("U")
        b.add_ct(enc([1, 2, 3, 4]),
                 b.encrypt(other.public_part, SlotVector([0, 0, 0, 0]), ("u", "v")))


def test_mult_examples():
    b = make_backend(4)
    km = b.keygen("T")
    enc = lambda v: b.encrypt(km.public_part, SlotVector(v), ("p", "v"))
    dec = lambda ct: b.decrypt(km.secret_part, ct).values.tolist()
    assert dec(b.mult_pt(enc([2, 4, 0, 0]), SlotVector([0.5, 0.25, 1, 1]))) == [1, 1, 0, 0]
    assert dec(b.mult_pt(enc([1, 2, 3, 4]), SlotVector(np.ones(4)))) == [1, 2, 3, 4]
    assert dec(b.mult_pt(enc([1, 2, 3, 4]), SlotVector(np.zeros(4)))) == [0, 0, 0, 0]
    assert dec(b.mult_ct(enc([2, 3, 0, 0]), enc([3, 2, 1, 1]))) == [6, 6, 0, 0]
    assert dec(b.mult_ct(enc([7, 7, 7, 7]), enc([7, 7, 7, 7]))) == [49] * 4
    assert dec(b.mult_ct(enc([1, 2, 3, 4]), enc([1, 1, 1, 1]))) == [1, 2, 3, 4]


def test_mult_depth_counting():
    b = make_backend(4)
    km = b.keygen("T")
    ct = b.encrypt(km.public_part, SlotVector([1, 2, 3, 4]), ("p", "v"))
    assert ct.depth == 0
    ct2 = b.mult_ct(ct, ct)
    assert ct2.depth == 1
    assert b.add_ct(ct2, ct).depth == 1
    assert b.mult_pt(ct2, SlotVector(np.ones(4))).depth == 2


def test_rotate_examples():
    b = make_backend(4)
    km = b.keygen("T")
    ct = b.encrypt(km.public_part, SlotVector([1, 2, 3, 4]), ("p", "v"))
    dec = lambda c: b.decrypt(km.secret_part, c).values.tolist()
    assert dec(b.rotate(ct, 0)) == [1, 2, 3, 4]
    assert dec(b.rotate(ct, 1)) == [2, 3, 4, 1]
    assert dec(b.rotate(ct, 2)) == [3, 4, 1, 2]
    assert dec(b.rotate(ct, -1)) == [4, 1, 2, 3]


def test_rotate_composition_property():
    b = make_backend(8)
    km = b.keygen("T")
    rng = random.Random(5)
    for _ in range(200):
        vals = [rng.uniform(-10, 10) for _ in range(8)]
        i, j = rng.randrange(-8, 8), rng.randrange(-8, 8)
        ct = b.encrypt(km.public_part, SlotVector(vals), ("p", "v"))
        twice = b.rotate(b.rotate(ct, i), j)
        once = b.rotate(ct, (i + j) % 8)
        assert b.decrypt(km.secret_part, twice).values.tolist() == \
            b.decrypt(km.secret_part, once).values.tolist()


def test_homomorphism_randomized():
    """Exact agreement with numpy reference over >= 1000 random op chains."""
    b = make_backend(8, seed=23)
    km = b.keygen("T")
    rng = random.Random(17)
    for _ in range(1100):
        x = np.array([rng.uniform(-50, 50) for _ in range(8)])
        y = np.array([rng.uniform(-50, 50) for _ in range(8)])
        cx = b.encrypt(km.public_part, SlotVector(x), ("p", "x"))
        cy = b.encrypt(km.public_part, SlotVector(y), ("q", "y"))
        op = rng.choice(["add", "mult_ct", "mult_pt", "rotate"])
        if op == "add":
            got, want = b.add_ct(cx, cy), x + y
        elif op == "mult_ct":
            got, want = b.mult_ct(cx, cy), x * y
        elif op == "mult_pt":
            got, want = b.mult_pt(cx, SlotVector(y)), x * y
        else:
            amt = rng.randrange(8)
            got, want = b.rotate(cx, amt), np.roll(x, -amt)
        assert np.array_equal(b.decrypt(km.secret_part, got).values, want)


def test_taint_monotonicity():
    b = make_backend(4)
    km = b.keygen("T")
    cx = b.encrypt(km.public_part, SlotVector([1, 0, 0, 0]), ("a", "x"))
    cy = b.encrypt(km.public_part, SlotVector([0, 1, 0, 0]), ("b", "y"))
    s = b.add_ct(cx, cy)
    assert s.taint_mask & cx.taint_mask == cx.taint_mask
    assert s.taint_mask & cy.taint_mask == cy.taint_mask
    m = b.mult_ct(s, cy)
    assert m.taint_mask == mask_of(b, {("a", "x"), ("b", "y")}) == 0b11
    assert b.mult_pt(s, SlotVector(np.ones(4))).taint_mask == s.taint_mask
    assert b.rotate(s, 1).taint_mask == s.taint_mask


def test_noise_bound_respected():
    """With eps > 0, decryption stays within the tracked bound and within the
    linear k*eps*(1+max|slot|) envelope for magnitude-<=1 multipliers."""
    eps = 1e-9
    exact = make_backend(8, 0.0, seed=3)
    noisy = make_backend(8, eps, seed=3)
    ke = exact.keygen("T")
    kn = noisy.keygen("T")
    rng = random.Random(9)
    for _ in range(100):
        vals = [rng.uniform(-100, 100) for _ in range(8)]
        ce = exact.encrypt(ke.public_part, SlotVector(vals), ("p", "v"))
        cn = noisy.encrypt(kn.public_part, SlotVector(vals), ("p", "v"))
        max_abs = max(abs(v) for v in vals)
        k_ops = 1
        for _ in range(rng.randrange(1, 12)):
            op = rng.choice(["add", "mult_pt", "rotate"])
            if op == "add":
                ce, cn = exact.add_ct(ce, ce), noisy.add_ct(cn, cn)
                k_ops = 2 * k_ops + 1
            elif op == "mult_pt":
                w = [rng.uniform(-1, 1) for _ in range(8)]
                ce, cn = exact.mult_pt(ce, SlotVector(w)), noisy.mult_pt(cn, SlotVector(w))
                k_ops += 1
            else:
                amt = rng.randrange(8)
                ce, cn = exact.rotate(ce, amt), noisy.rotate(cn, amt)
                k_ops += 1
            max_abs = max(max_abs, float(np.max(np.abs(ce._payload))))
        diff = np.abs(noisy.decrypt(kn.secret_part, cn).values
                      - exact.decrypt(ke.secret_part, ce).values)
        assert float(np.max(diff)) <= cn.noise_bound + 1e-18
        assert float(np.max(diff)) <= k_ops * eps * (1.0 + max_abs)


def test_exact_backend_has_zero_noise_bound():
    b = make_backend(4)
    km = b.keygen("T")
    ct = b.encrypt(km.public_part, SlotVector([1, 2, 3, 4]), ("p", "v"))
    assert b.add_ct(ct, ct).noise_bound == 0.0


def test_audit_view_possession_and_decryptability():
    b = make_backend(4)
    km = b.keygen("T")
    ct = b.encrypt(km.public_part, SlotVector([1, 0, 0, 0]), ("1", "v"))
    counts = np.array([1.0, 0.0, 0.0, 0.0])
    counts.setflags(write=False)
    msg = ConsensusState("avg", 4, (ct,), counts, support=0b1).snapshot()
    log = [(1, "1", "T", msg), (2, "T", "1", msg)]
    trace = SimTrace(b, [], deliveries=len(log))
    view1 = audit_view(trace, log, [km], "1")
    assert view1 and all(not decryptable for _, _, decryptable in view1)
    viewT = audit_view(trace, log, [km], "T")
    assert viewT and all(decryptable for _, _, decryptable in viewT)
    assert {mask for _, mask, _ in view1 + viewT} == {ct.taint_mask}
    with pytest.raises(LookupError):
        audit_view(trace, log, [km], "nobody")


def test_mark_prepared_sets_flag_only():
    b = make_backend(4)
    km = b.keygen("T")
    ct = b.encrypt(km.public_part, SlotVector([1, 2, 3, 4]), ("p", "v"))
    prepared = b.mark_prepared(ct)
    assert prepared.prepared and not ct.prepared
    assert b.decrypt(km.secret_part, prepared).values.tolist() == [1, 2, 3, 4]
    # derived ciphertexts do not inherit the flag
    assert not b.add_ct(prepared, prepared).prepared
    assert not b.mult_pt(prepared, SlotVector(np.ones(4))).prepared


def old_exposed(taint, prepared, holder):
    """The exposure rule as a loop over a frozenset of tags."""
    return not prepared and not all(tag[0] == holder for tag in taint)


@pytest.mark.parametrize("seed", range(6))
def test_taint_masks_match_the_frozenset_union_rule(seed):
    """Random op sequences: each taint mask is the mask of a frozenset kept
    by the union rule, each possession or decryption by a keyholder is
    flagged exactly when the loop rule says so, and its ledger entry reads
    the same mask."""
    rng = random.Random(seed)
    b = make_backend(8, eps=rng.choice([0.0, 1e-9]), seed=seed)
    keys = [b.keygen(h) for h in ("T", 0, 1, "x")]
    pools = {km.key_id: [] for km in keys}    # key id -> [(ct, reference taint)]
    for _ in range(300):
        km = rng.choice(keys)
        pool = pools[km.key_id]
        op = rng.choice(["encrypt"] * 2 + ["add_ct", "mult_ct", "mult_pt", "rotate",
                                           "mark_prepared", "observe"]) if pool else "encrypt"
        if op == "encrypt":
            tag = rng.choice(TAGS)
            vec = SlotVector([rng.uniform(-2, 2) for _ in range(8)])
            item = (b.encrypt(km.public_part, vec, tag), frozenset({tag}))
        elif op in ("add_ct", "mult_ct"):
            (x, tx), (y, ty) = rng.choice(pool), rng.choice(pool)
            item = (getattr(b, op)(x, y), tx | ty)
        elif op == "mult_pt":
            x, tx = rng.choice(pool)
            item = (b.mult_pt(x, SlotVector([rng.uniform(-1, 1) for _ in range(8)])), tx)
        elif op == "rotate":
            x, tx = rng.choice(pool)
            item = (b.rotate(x, rng.randrange(-8, 16)), tx)
        elif op == "mark_prepared":
            x, tx = rng.choice(pool)
            item = (b.mark_prepared(x), tx)
        else:
            x, tx = rng.choice(pool)
            before, logged = len(b.violations()), len(b.events())
            if rng.random() < 0.5:
                b.record_possession(km.holder, x)
                assert len(b.events()) == logged    # the simulator logs possession
            else:
                b.decrypt(km.secret_part, x)
                ev = b.events()[-1]
                assert ev.handle == x.handle and ev.taint_mask == mask_of(b, tx)
            assert len(b.violations()) - before == old_exposed(tx, x.prepared, km.holder)
            continue
        ct, taint = item
        assert ct.taint_mask == mask_of(b, taint)
        pool.append(item)


def test_exposure_rule_with_string_tags_and_other_owners():
    b = make_backend(4)
    kx = b.keygen("x")
    enc = lambda tag: b.encrypt(kx.public_part, SlotVector([1, 0, 0, 0]), tag)
    own = b.add_ct(enc("xy"), enc(("x", "s")))        # both owned by "x"
    mixed = b.add_ct(own, enc((0, "a")))               # process 0's input too
    own_tags, mixed_tags = {"xy", ("x", "s")}, {"xy", ("x", "s"), (0, "a")}
    for ct, tags, flagged in ((own, own_tags, False), (mixed, mixed_tags, True),
                              (b.mark_prepared(mixed), mixed_tags, False)):
        assert ct.taint_mask == mask_of(b, tags)
        assert old_exposed(tags, ct.prepared, "x") is flagged
        before = len(b.violations())
        b.record_possession("x", ct)
        assert len(b.violations()) - before == flagged


@pytest.mark.parametrize("cap", [2, 8, 16])
def test_rotate_equals_np_roll(cap):
    b = make_backend(cap)
    km = b.keygen("T")
    x = np.arange(cap, dtype=np.float64) * 1.5 - 3.0
    ct = b.encrypt(km.public_part, SlotVector(x), ("p", "v"))
    for amount in range(-cap, 2 * cap + 1):
        assert np.array_equal(b.rotate(ct, amount)._payload,
                              np.roll(x, -amount)), amount


def test_operands_from_two_backends_raise():
    b1, b2 = make_backend(seed=7), make_backend(seed=7)
    k1, k2 = b1.keygen("T"), b2.keygen("T")
    assert k1.key_id == k2.key_id                      # same seed, same key id
    c1 = b1.encrypt(k1.public_part, SlotVector([1, 2, 3, 4]), ("p", "v"))
    c2 = b2.encrypt(k2.public_part, SlotVector([1, 2, 3, 4]), ("p", "v"))
    for op in (b1.add_ct, b1.mult_ct):
        with pytest.raises(KeyMismatchError):
            op(c1, c2)
        with pytest.raises(KeyMismatchError):
            op(c2, c1)


# -- batched ops against the nested calls they replace ----------------------

def _random_cts(b, km, count, cap, rng, first=0):
    """`count` ciphertexts of random payloads, every fourth one at depth 1."""
    cts = []
    for i in range(first, first + count):
        ct = b.encrypt(km.public_part, SlotVector(rng.uniform(-100, 100, cap)),
                       (i % 3, f"t{i}"))
        if i % 4 == 1:
            ct = b.mult_pt(ct, SlotVector(rng.uniform(-2, 2, cap)))
        cts.append(ct)
    return cts


def _add_many_operands(b, width, k, cap=8):
    """A key, `width` accumulators and `k` rows of `width` ciphertexts."""
    rng = np.random.default_rng(5)
    km = b.keygen("T")
    accs = tuple(_random_cts(b, km, width, cap, rng))
    rows = [tuple(_random_cts(b, km, width, cap, rng, first=width * (r + 1)))
            for r in range(k)]
    return km, accs, rows


def _assert_same_ct(b1, x, b2, y):
    assert x._payload.tobytes() == y._payload.tobytes()
    assert (x.key_id, x.noise_bound, x.depth, x.taint_mask, x.prepared,
            x.handle) == (y.key_id, y.noise_bound, y.depth, y.taint_mask,
                          y.prepared, y.handle)
    assert b1._tag_table.bits == b2._tag_table.bits


def _assert_same_next(b1, km1, b2, km2, cap):
    """The next fresh ciphertexts agree: same handle and same noise draws."""
    x = b1.encrypt(km1.public_part, SlotVector(np.arange(cap, dtype=float)), ("p", "z"))
    y = b2.encrypt(km2.public_part, SlotVector(np.arange(cap, dtype=float)), ("p", "z"))
    _assert_same_ct(b1, x, b2, y)


@pytest.mark.parametrize("eps", [0.0, 1e-9])
@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 5, 6, 10, 11, 12, 40])
def test_add_many_equals_nested_add_ct(eps, width, k, monkeypatch):
    # each channel sums the accumulator and each row's payload (and noise):
    # at eps 0, k 10 is the last loop and 11 the first reduction; at 1e-9,
    # k 5 and 6
    terms = []
    monkeypatch.setattr(he_slots, "sum_in_order",
                        lambda arrays, f=he_slots.sum_in_order: terms.append(len(arrays))
                        or f(arrays))
    nested, batched = make_backend(8, eps, seed=3), make_backend(8, eps, seed=3)
    km1, accs1, rows1 = _add_many_operands(nested, width, k)
    km2, accs2, rows2 = _add_many_operands(batched, width, k)
    want = list(accs1)
    for row in rows1:
        for c, ct in enumerate(row):
            want[c] = nested.add_ct(want[c], ct)
    got = batched.add_many(accs2, rows2)
    assert terms == [1 + k * (2 if eps else 1)] * width
    assert len(got) == width
    for x, y in zip(want, got):
        _assert_same_ct(nested, x, batched, y)
    if eps:
        assert got[0].noise_bound > eps * k
    _assert_same_next(nested, km1, batched, km2, 8)


@pytest.mark.parametrize("cap", [2, 8, 128])
@pytest.mark.parametrize("count", [2, 3, he_slots.WIDE - 1, he_slots.WIDE,
                                   he_slots.WIDE + 1, 51])
def test_sum_in_order_adds_left_to_right(cap, count):
    # 1e16 + 1.0 rounds back to 1e16 and -1e16 then cancels it: a left-to-right
    # sum of (1e16, 1, -1e16, 1, ...) differs from a pairwise or reordered one
    pattern = [1e16, 1.0, -1e16, 1.0, 3.0, -1e16, 1e16, 0.5]
    rng = np.random.default_rng(cap * 1000 + count)
    rows = [np.full(cap, pattern[i % len(pattern)]) * rng.choice([1.0, 0.5], cap)
            for i in range(count)]
    want = np.zeros(cap)
    for j in range(cap):
        total = rows[0][j]
        for row in rows[1:]:
            total = total + row[j]
        want[j] = total
    got = he_slots.sum_in_order(rows)
    assert got.tobytes() == want.tobytes(), \
        f"numpy summed {count} rows of {cap} slots out of left-to-right order"
    assert all(not np.shares_memory(got, row) for row in rows)


def test_add_many_of_no_rows_returns_the_accumulators():
    b = make_backend(8)
    _, accs, _ = _add_many_operands(b, 2, 0)
    handle = b._handle_seq
    assert b.add_many(accs, []) == accs and b._handle_seq == handle


@pytest.mark.parametrize("eps", [0.0, 1e-9])
@pytest.mark.parametrize("cap", [2, 8, 16, 64])
def test_weighted_rotate_sum_equals_the_three_call_composition(eps, cap, monkeypatch):
    # `mark_prepared(rotate_sum(mult_pt(ct, weights())))`, run eagerly by the
    # reference engine: the op takes the composition's handles and moves the
    # stream past its draws at the call, and builds its weights, product and
    # sum, by those calls on its private engine, only when the payload or
    # the bound is first read
    built, sums, rotations = [], [], []
    weights = SlotVector(np.random.default_rng(4).uniform(0, 0.25, cap))
    composed = reference_engine.seeded_reference_backend(cap, eps, 8)
    deferred = he_slots.seeded_backend(cap, eps, 8)
    replayer = deferred._replayer
    replayer.mult_pt = lambda a, p, f=replayer.mult_pt: sums.append(1) or f(a, p)
    replayer.rotate = lambda a, k, f=replayer.rotate: rotations.append(k) or f(a, k)
    km1, km2 = composed.keygen("T"), deferred.keygen("T")
    x = _random_cts(composed, km1, 2, cap, np.random.default_rng(6))[1]     # depth 1
    y = _random_cts(deferred, km2, 2, cap, np.random.default_rng(6))[1]
    want = composed.mark_prepared(
        reference_engine.rotate_sum(composed, composed.mult_pt(x, weights)))
    got = deferred.weighted_rotate_sum(y, lambda: built.append(1) or weights, cap)
    assert _rng_state(composed) == _rng_state(deferred)
    assert composed._handle_seq == deferred._handle_seq == got.handle
    assert (got.depth, got.taint_mask, got.prepared) == (2, y.taint_mask, True)
    assert f"slots={cap}," in repr(got)
    # the call took its noise draws and handles: the next op's follow the
    # composition's before the payload is summed
    _assert_same_next(composed, km1, deferred, km2, cap)
    assert built == [] and sums == []
    # the bound is read first here, and builds the weights and the sum once
    assert got.noise_bound == want.noise_bound and (got.noise_bound > 0) == (eps > 0)
    assert built == [1] and sums == [1]
    assert rotations == [cap >> i for i in range(1, cap.bit_length())]
    _assert_same_ct(composed, want, deferred, got)
    if not eps:
        assert len(set(got._payload.tolist())) == 1
    opened = deferred.decrypt(km2.secret_part, got).values
    assert opened.tobytes() == want._payload.tobytes()
    assert built == [1] and sums == [1] and deferred.violations() == []
    # marking the result again reads it: the same bits, bound and handle
    _assert_same_ct(composed, want, deferred, deferred.mark_prepared(got))
    assert built == [1] and sums == [1]
    _assert_same_next(composed, km1, deferred, km2, cap)
    # a wrong length raises at the call, before anything is drawn or numbered
    state, handle = _rng_state(deferred), deferred._handle_seq
    for length in (cap // 2, 2 * cap):
        with pytest.raises(ValueError, match=f"^vector length {length} != slot capacity"):
            deferred.weighted_rotate_sum(y, lambda: built.append(1) or weights, length)
    assert _rng_state(deferred) == state and deferred._handle_seq == handle
    assert built == [1]


@pytest.mark.parametrize("keys", [1, 2], ids=["buffered-half", "no-buffered-half"])
def test_a_prepare_of_an_unread_prepare_replays_both(keys):
    # the outer read replays the unread source first, then its own calls
    # from its own state, on the one private engine; each call moves the
    # stream past its draws and keeps the 32-bit half the keys may buffer
    weights = SlotVector(np.random.default_rng(4).uniform(0, 0.25, 8))
    composed = reference_engine.seeded_reference_backend(8, 1e-9, 8)
    deferred = he_slots.seeded_backend(8, 1e-9, 8)
    results = []
    for b in (composed, deferred):
        km = [b.keygen(f"T{i}") for i in range(keys)][0]
        x = _random_cts(b, km, 1, 8, np.random.default_rng(6))[0]
        inner = b.weighted_rotate_sum(x, lambda: weights, 8)
        b.encrypt(km.public_part, weights, ("p", "between"))     # draws between the calls
        results.append((km, b.weighted_rotate_sum(inner, lambda: weights, 8), inner))
    assert _rng_state(composed) == _rng_state(deferred)
    assert _rng_state(deferred)["has_uint32"] == keys % 2
    (km1, want, want_inner), (km2, got, got_inner) = results
    _assert_same_ct(composed, want, deferred, got)
    _assert_same_ct(composed, want_inner, deferred, got_inner)
    _assert_same_next(composed, km1, deferred, km2, 8)


def test_batched_ops_raise_like_the_nested_calls():
    b1, b2 = make_backend(seed=7), make_backend(seed=7)
    k1, k2 = b1.keygen("T"), b2.keygen("T")
    c1 = b1.encrypt(k1.public_part, SlotVector([1, 2, 3, 4]), ("p", "v"))
    c2 = b2.encrypt(k2.public_part, SlotVector([1, 2, 3, 4]), ("p", "v"))
    other = b1.encrypt(b1.keygen("U").public_part, SlotVector([1, 2, 3, 4]), ("q", "v"))
    for bad in (c2, other):                 # another tag table, another key
        with pytest.raises(KeyMismatchError):
            b1.add_ct(c1, bad)
        handle = b1._handle_seq
        with pytest.raises(KeyMismatchError):
            b1.add_many((c1,), [(c1,), (bad,)])
        with pytest.raises(KeyMismatchError):
            b1.add_many((c1, c1), [(c1, bad)])
        assert b1._handle_seq == handle
    with pytest.raises(ValueError):
        b1.add_many((c1, c1), [(c1,)])


def _former_add_ct(b, x, y):
    """`add_ct` as it was composed: `_check_pair`, then `_fresh`."""
    b._check_pair(x, y, "add_ct")
    return b._fresh(x.key_id, x._payload + y._payload, x.taint_mask | y.taint_mask,
                    x.tag_table, depth=max(x.depth, y.depth),
                    noise_bound=x.noise_bound + y.noise_bound)


def _rng_state(b):
    return b._rng.bit_generator.state


@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_add_ct_equals_the_check_pair_fresh_composition(eps):
    former, inline = make_backend(8, eps, seed=6), make_backend(8, eps, seed=6)
    operands = []
    for b in (former, inline):
        km = b.keygen("T")
        d0, d1, d0b = _random_cts(b, km, 3, 8, np.random.default_rng(2))   # depths 0, 1, 0
        summed = b.weighted_rotate_sum(d0b, lambda: SlotVector(np.arange(1.0, 9.0)), 8)
        operands.append([(d0, d0b), (d1, d0), (d0, d1), (summed, d1), (d0, summed),
                         (d0, d0)])
    depths = []
    for (x1, y1), (x2, y2) in zip(*operands):
        want = _former_add_ct(former, x1, y1)
        got = inline.add_ct(x2, y2)
        _assert_same_ct(former, want, inline, got)
        assert _rng_state(former) == _rng_state(inline)
        assert former._handle_seq == inline._handle_seq
        assert (got.noise_bound > 0) == (eps > 0)
        depths.append(got.depth)
    assert depths == [0, 1, 1, 1, 1, 0]


@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_add_ct_mismatch_raises_before_drawing(eps):
    b1, b2 = make_backend(seed=7, eps=eps), make_backend(seed=7, eps=eps)
    c1 = b1.encrypt(b1.keygen("T").public_part, SlotVector([1, 2, 3, 4]), ("p", "v"))
    c2 = b2.encrypt(b2.keygen("T").public_part, SlotVector([1, 2, 3, 4]), ("p", "v"))
    other = b1.encrypt(b1.keygen("U").public_part, SlotVector([1, 2, 3, 4]), ("q", "v"))
    for x, y, why in ((c1, c2, "from different tag tables"),
                      (c2, c1, "from different tag tables"),
                      (c1, other, "under different keys"),
                      (other, c1, "under different keys")):
        state, handle = _rng_state(b1), b1._handle_seq
        with pytest.raises(KeyMismatchError) as raised:
            b1.add_ct(x, y)
        with pytest.raises(KeyMismatchError) as composed:
            b1._check_pair(x, y, "add_ct")
        assert str(raised.value) == str(composed.value) == f"add_ct operands {why}"
        assert _rng_state(b1) == state and b1._handle_seq == handle


@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_add_many_mismatch_raises_before_drawing(eps):
    b, foreign = make_backend(8, eps, seed=7), make_backend(8, eps, seed=7)
    _, accs, rows = _add_many_operands(b, 2, 3)
    other_key = b.encrypt(b.keygen("U").public_part, SlotVector(np.ones(8)), ("q", "v"))
    other_table = foreign.encrypt(foreign.keygen("T").public_part, SlotVector(np.ones(8)),
                                  ("p", "v"))
    for bad, why in ((other_key, "under different keys"),
                     (other_table, "from different tag tables")):
        state, handle = _rng_state(b), b._handle_seq
        # the last row of the second channel: every operand is checked
        with pytest.raises(KeyMismatchError, match=f"^add_many operands {why}$"):
            b.add_many(accs, rows[:2] + [(rows[2][0], bad)])
        # channel by channel: the first channel's fault is the one named
        other = other_table if bad is other_key else other_key
        with pytest.raises(KeyMismatchError, match=f"^add_many operands {why}$"):
            b.add_many(accs, [(rows[0][0], other), rows[1], (bad, rows[2][1])])
        # a ragged row raises first, though an earlier row holds a bad operand
        with pytest.raises(ValueError, match="^add_many rows must have 2 channel"):
            b.add_many(accs, [(rows[0][0], bad), rows[1], (rows[2][0],)])
        assert _rng_state(b) == state and b._handle_seq == handle
    assert len(b.add_many(accs, rows)) == 2 and b._handle_seq == handle + 6


@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_every_engine_result_payload_is_read_only(eps):
    b = make_backend(8, eps)
    km = b.keygen("T")
    x, y = _random_cts(b, km, 2, 8, np.random.default_rng(3))
    summed = b.weighted_rotate_sum(x, lambda: SlotVector(np.arange(8.0)), 8)
    results = [x, y, b.add_ct(x, y), b.mult_pt(x, SlotVector(np.arange(8.0))),
               b.mult_ct(x, y), b.rotate(x, 3), *b.add_many((x, y), [(y, x), (x, x)]),
               summed, b.mark_prepared(summed), b.mark_prepared(y)]
    for ct in results:
        payload = ct._payload
        assert not payload.flags.writeable, ct
        with pytest.raises(ValueError):
            payload[0] = 1.0


def engine_reads(source: str) -> dict:
    """Each attribute read on `backend` or `self.backend` in `source`,
    mapped to the first line that reads it."""
    reads = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if (isinstance(owner, ast.Name) and owner.id == "backend") or (
                isinstance(owner, ast.Attribute) and owner.attr == "backend"
                and isinstance(owner.value, ast.Name) and owner.value.id == "self"):
            reads.setdefault(node.attr, node.lineno)
    return reads


@pytest.mark.parametrize("module", [avg_consensus, outlier_consensus, leader_election],
                         ids=lambda m: m.__name__.rpartition(".")[2])
def test_protocol_code_uses_only_the_engine_seam(module):
    # protocol code makes no ledger calls: the simulator alone reports
    # possession, so a protocol cannot hide or forge an exposure
    seam = SlotEngine.__abstractmethods__ | {"config"}
    source = Path(module.__file__).read_text()
    reads = engine_reads(source)
    assert reads and {"encrypt", "config"} <= set(reads)
    assert {m: line for m, line in reads.items() if m not in seam} == {}
    for mutant in ("backend.record_possession(0, ct)",
                   "self.backend.record_possession(0, ct)"):
        assert "record_possession" in engine_reads(source + "\n" + mutant + "\n")
