"""Triple systems: constructions, verification, parallel classes, embeddings."""
from __future__ import annotations

import hashlib
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equiframes import designs
from equiframes.designs import (
    EmbeddingAssignment,
    SteinerTripleSystem,
    bose,
    find_parallel_class,
    is_parallel_class,
    load_parallel_class,
    load_sts,
    make_sts,
    skolem,
    standard_embedding,
    store_parallel_class,
    store_sts,
    verify_sts,
)
from helpers import reference_verify_sts, shared_block


def brute_pair_coverage(s: SteinerTripleSystem) -> bool:
    """Independent oracle: count coverage of every pair by exhaustion."""
    counts = {pair: 0 for pair in combinations(range(s.num_points), 2)}
    for blk in s.blocks:
        for pair in combinations(sorted(blk), 2):
            counts[pair] += 1
    return all(c == 1 for c in counts.values())


def test_bose_smallest():
    s = bose(3)
    assert s.blocks.tolist() == [[0, 1, 2]]
    assert s.replication == 1
    assert verify_sts(s).ok


def test_bose_nine():
    s = bose(9)
    assert s.block_count == 12
    assert s.replication == 4
    assert brute_pair_coverage(s)
    assert verify_sts(s).ok


def test_bose_39():
    s = bose(39)
    assert s.block_count == 247  # V(V-1)/6
    assert s.replication == 19
    assert verify_sts(s).ok


def test_bose_15():
    rep = verify_sts(bose(15))
    assert (rep.num_points, rep.block_count, rep.replication) == (15, 35, 7)
    assert rep.ok


def test_bose_rejects_wrong_congruence():
    for v in (5, 7, 12, 13):
        with pytest.raises(ValueError):
            bose(v)


def test_skolem_fano():
    s = skolem(7)
    assert s.block_count == 7
    assert s.replication == 3
    assert brute_pair_coverage(s)
    assert verify_sts(s).ok


def test_skolem_13():
    s = skolem(13)
    assert s.block_count == 26
    assert brute_pair_coverage(s)
    assert verify_sts(s).ok


def test_skolem_rejects_wrong_congruence():
    for v in (5, 9, 11):
        with pytest.raises(ValueError):
            skolem(v)
    with pytest.raises(ValueError, match="V >= 7, got 1"):
        skolem(1)


# Frozen at first build; the constructions are deterministic, so any change
# in block output is a regression even if verify_sts still passes.
SKOLEM_GOLDEN = {
    7: "23edc17f6cc195e0cf0a1132d3e2e3fb38e7f2c97aa51fd0b3ce7234eeee976b",
    13: "7cded9673cf0e5adb0782a734ccd25f15186901d5a0c4e2d2f217df6b11c5294",
    19: "d304cf34aea1b1c1eb0359a5503021e29f20fccaef3a9f66b117f38b978eee93",
}


def sts_digest(s: SteinerTripleSystem) -> str:
    text = ";".join(",".join(map(str, blk)) for blk in s.blocks.tolist())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("v", [7, 13, 19])
def test_skolem_golden_hashes(v):
    assert sts_digest(skolem(v)) == SKOLEM_GOLDEN[v]


# Frozen from the tuple-of-tuples constructions, before the blocks became one
# array: the array constructions must give the same blocks in the same order.
STS_GOLDEN = {
    (bose, 9): "36e29e78199604c7ddc4bf2a55f5ec59b99ea8953be6a6b2df0a79b5caf1fd03",
    (bose, 15): "2ffb2af1598d4bc4d142f7c0ac659bc5440db9a72c63553087715d19b07ff662",
    (bose, 21): "305e4f2d8d84b346d58fd727b11d840d4654fe75945b279d7a47c392f46ad4f7",
    (bose, 2001): "9612ba18a74b4d5c90965e8c22a70bd6a77a7f06cf7432d72d25684be560626d",
    (skolem, 2005): "f586c89beac4c88aae94fb8e609c4bdebc842807072eee240c9be4913e7c0913",
}


@pytest.mark.parametrize("build, v", list(STS_GOLDEN), ids=lambda x: getattr(x, "__name__", x))
def test_sts_golden_hashes(build, v):
    assert sts_digest(build(v)) == STS_GOLDEN[build, v]


def test_system_blocks_are_one_read_only_int32_array():
    """An owned int32 array is adopted as it is; other integer input is
    copied; anything but a (B, 3) array of int32 points is refused."""
    owned = np.array([[0, 1, 2]], dtype=np.int32)
    assert SteinerTripleSystem(3, owned).blocks is owned and not owned.flags.writeable
    copied = SteinerTripleSystem(3, ((0, 1, 2),)).blocks
    assert copied.dtype == np.int32 and not copied.flags.writeable
    for bad in ([0, 1, 2], [[0, 1]], [[0.0, 1.0, 2.0]], [[0, 1, 2 ** 31]], [[-2 ** 31 - 1, 0, 1]]):
        with pytest.raises(ValueError, match="int32 points"):
            SteinerTripleSystem(3, bad)


def lexsorted(blocks) -> np.ndarray:
    """The reference order: each row sorted, then the rows by np.lexsort."""
    rows = np.sort(np.asarray(blocks, dtype=np.int32).reshape(-1, 3), axis=1)
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("v", [7, 9, 13, 15, 2001])
def test_builders_and_shuffled_systems_sort_as_lexsort(v):
    """The one-key sort gives the builders' systems in lexsort's order, and
    sorts a copy with its rows and the points of each row shuffled back
    into the same array."""
    s = make_sts(v)
    assert np.array_equal(s.blocks, lexsorted(s.blocks))
    rng = np.random.default_rng(v)
    shuffled = rng.permuted(s.blocks[rng.permutation(s.block_count)], axis=1)
    assert np.array_equal(designs._sorted_system(v, shuffled).blocks, s.blocks)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 20), st.sampled_from([(-1, 9), (-5, 0), (0, 1), (3, 3),
                                            (-2 ** 31, 2 ** 31 - 1), (0, 2 ** 21)]),
       st.integers(0, 2 ** 32))
def test_one_key_and_lexsort_fallback_sort_alike(count, span, seed):
    """Points drawn from a range around [0, V) (-1 and V included, as a
    loaded system may hold) sort by the one int64 key; a range whose key
    could leave int64 falls back to np.lexsort.  Both give lexsort's order."""
    blocks = np.random.default_rng(seed).integers(*span, size=(count, 3),
                                                  endpoint=True).astype(np.int32)
    got = designs._sorted_system(9, blocks.copy())
    assert got.blocks.dtype == np.int32 and np.array_equal(got.blocks, lexsorted(blocks))


def test_loaded_systems_with_points_outside_sort_as_lexsort(tmp_path):
    path = tmp_path / "sts.txt"
    path.write_text("9 4\n9 0 1\n2 -1 3\n-1 9 4\n0 1 -1\n")
    assert load_sts(path).blocks.tolist() == [[-1, 0, 1], [-1, 2, 3], [-1, 4, 9], [0, 1, 9]]


def test_blocks_through_refuses_a_system_whose_points_miss_the_replication():
    assert bose(9).blocks_through.shape == (9, 4)
    with pytest.raises(ValueError, match="do not each lie in R=1 blocks"):
        SteinerTripleSystem(4, ((0, 1, 2), (0, 1, 3))).blocks_through


def test_all_admissible_orders_up_to_99():
    for v in range(3, 100):
        if v % 6 in (1, 3):
            assert verify_sts(make_sts(v)).ok, f"V={v}"


def test_verify_rejects_duplicated_pair():
    bad = SteinerTripleSystem(4, ((0, 1, 2), (0, 1, 3)))
    rep = verify_sts(bad)
    assert not rep.ok
    assert "(0,1)" in rep.failure


def test_parallel_class_bose9():
    s = bose(9)
    cls = find_parallel_class(s)
    assert cls is not None
    assert s.blocks[list(cls)].tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert is_parallel_class(s, cls)


def test_is_parallel_class_is_false_for_an_index_outside_the_blocks():
    """Indices are not wrapped: -12, -2 and -1 name no block of bose(9),
    though they would wrap onto its class (0, 10, 11)."""
    s = bose(9)
    assert find_parallel_class(s) == (0, 10, 11)
    assert not is_parallel_class(s, (-12, -2, -1))
    assert not is_parallel_class(s, (0, 1, 99))
    assert not is_parallel_class(s, (0, 10, 12))


def test_parallel_class_fano_is_none():
    assert find_parallel_class(skolem(7)) is None


def test_parallel_class_bose39():
    s = bose(39)
    cls = find_parallel_class(s)
    assert cls is not None and len(cls) == 13
    covered = sorted(p for bi in cls for p in s.blocks[bi])
    assert covered == list(range(39))


def test_parallel_class_backtracking_path():
    # relabel the points of bose(9) so the vertical fast path misses
    s = bose(9)
    perm = [8, 3, 5, 0, 7, 1, 6, 2, 4]
    blocks = tuple(sorted(tuple(sorted(perm[p] for p in blk)) for blk in s.blocks))
    shuffled = SteinerTripleSystem(9, blocks)
    assert verify_sts(shuffled).ok
    cls = find_parallel_class(shuffled)
    assert cls is not None
    assert is_parallel_class(shuffled, cls)


def test_standard_embedding_fano():
    s = skolem(7)
    emb = standard_embedding(s)
    for p in range(7):
        assert np.array_equal(emb.orders[p], s.blocks_through[p])
        assert len(emb.orders[p]) == 3


def test_standard_embedding_v3():
    s = bose(3)
    emb = standard_embedding(s)
    assert emb.orders.tolist() == [[0], [0], [0]]


def test_embedding_parallel_first():
    s = bose(9)
    cls = find_parallel_class(s)
    emb = standard_embedding(s, cls)
    in_class = set(cls)
    for p in range(9):
        assert emb.orders[p][0] in in_class
        assert sorted(emb.orders[p]) == list(s.blocks_through[p])


def test_embedding_rejects_bad_class():
    s = bose(9)
    with pytest.raises(ValueError):
        standard_embedding(s, (0, 1, 2))


def test_shared_block_positions():
    s = bose(9)
    emb = standard_embedding(s)
    for v, w in combinations(range(9), 2):
        blk, pos_v, pos_w = shared_block(emb, v, w)
        assert emb.orders[v][pos_v] == blk
        assert emb.orders[w][pos_w] == blk
        assert v in s.blocks[blk] and w in s.blocks[blk]


@pytest.mark.parametrize("v", [3, 7, 9, 13, 15, 19, 21, 25, 27, 31, 33, 37,
                               39, 43, 45, 49, 51, 55, 57, 61, 63])
def test_lemma_embedding_invariants(v):
    """Each block is hit K=3 times overall; lists have R distinct entries;
    distinct points share exactly one block."""
    s = make_sts(v)
    emb = standard_embedding(s)
    hits = [0] * s.block_count
    for p in range(v):
        row = emb.orders[p]
        assert len(set(row)) == len(row) == s.replication
        for bi in row:
            hits[bi] += 1
    assert all(h == 3 for h in hits)
    for p, q in combinations(range(v), 2):
        assert len(set(emb.orders[p]) & set(emb.orders[q])) == 1


def test_sts_file_roundtrip(tmp_path):
    s = bose(9)
    path = tmp_path / "sts.txt"
    store_sts(path, s)
    loaded = load_sts(path)
    assert loaded.num_points == s.num_points and np.array_equal(loaded.blocks, s.blocks)
    first_line = path.read_text().splitlines()[0]
    assert first_line == "9 12"


@pytest.mark.parametrize("chunk", [1, 7, designs._WRITE_LINES])
def test_sts_file_bytes_do_not_depend_on_the_write_chunk(tmp_path, chunk):
    """The writer formats a chunk of block lines per write; the file is the
    header and one line per block whatever the chunk."""
    s = make_sts(19)
    want = "".join(f"{line}\n" for line in [f"19 {s.block_count}",
                                            *(" ".join(map(str, blk)) for blk in s.blocks)])
    path = tmp_path / "sts.txt"
    with mock.patch.object(designs, "_WRITE_LINES", chunk):
        store_sts(path, s)
    assert path.read_text() == want


@pytest.mark.parametrize("chunk", [1, 2, designs._WRITE_LINES])
@pytest.mark.parametrize("text", [
    "9 3\n-1 0 1\n2 3 9\n4 5 8\n",  # -1 and V: no wrap to the label of V - 1
    "3 2\n-5 -4 3\n0 1 2\n",
    "0 1\n0 1 2\n",  # no point inside [0, V): an empty label table
    "-1 1\n-2 0 7\n",
])
def test_a_loaded_system_with_points_outside_is_written_as_loaded(tmp_path, chunk, text):
    """The label table holds the points 0 .. V - 1 only; a loaded system's
    point outside them is written as itself, never as a wrapped table entry."""
    path = tmp_path / "in.txt"
    path.write_text(text)
    s = load_sts(path)
    with mock.patch.object(designs, "_WRITE_LINES", chunk):
        store_sts(tmp_path / "out.txt", s)
    assert (tmp_path / "out.txt").read_text() == text


@pytest.mark.parametrize("v", [2001, 2005])
def test_make_sts_steps_stay_within_the_peak_of_making_the_system(tmp_path, v):
    """make sts builds, verifies and writes the system: verify_sts and
    store_sts keep the tracemalloc peak within 5 % of make_sts's own (it
    was 304 against 164 bytes per block when the writer joined every line
    into one string and the replication check built blocks_through)."""
    tracemalloc.start()
    try:
        s = make_sts(v)
        _, made = tracemalloc.get_traced_memory()
        assert verify_sts(s).ok
        store_sts(tmp_path / "sts.txt", s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * made, (peak / s.block_count, made / s.block_count)


@st.composite
def corrupted_systems(draw):
    """A system of V in {7, 9, 13, 15} with up to three edits: a point set to
    any of -1..V, a row's points or two rows swapped, a block dropped or one
    duplicated."""
    v = draw(st.sampled_from([7, 9, 13, 15]))
    blocks = make_sts(v).blocks.tolist()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(blocks) - 1))
        j = draw(st.integers(0, len(blocks) - 1))
        edit = draw(st.sampled_from(["point", "row", "swap", "drop", "duplicate"]))
        if edit == "point":
            blocks[i][draw(st.integers(0, 2))] = draw(st.integers(-1, v))
        elif edit == "row":
            blocks[i] = draw(st.permutations(blocks[i]))
        elif edit == "swap":
            blocks[i], blocks[j] = blocks[j], blocks[i]
        elif edit == "drop" and len(blocks) > 1:
            del blocks[i]
        elif edit == "duplicate":
            blocks.insert(j, list(blocks[i]))
    return SteinerTripleSystem(v, np.array(blocks, dtype=np.int32))


@pytest.mark.parametrize("chunk", [1, 7, designs._VERIFY_BLOCKS])
@settings(max_examples=150, deadline=None)
@given(s=corrupted_systems())
def test_chunked_verify_names_what_the_one_block_walk_names(s, chunk):
    """The chunked walk returns the reference's report, witness included,
    on sorted or unsorted systems with edited, dropped or repeated blocks."""
    with mock.patch.object(designs, "_VERIFY_BLOCKS", chunk):
        assert verify_sts(s) == reference_verify_sts(s)


def test_load_sts_refuses_a_point_past_int32_and_keeps_one_out_of_range(tmp_path):
    """A point past the block dtype is refused naming the file; one that fits
    but is not a point of the system loads, and verify_sts names its block."""
    path = tmp_path / "sts.txt"
    path.write_bytes(b"9 1\n0 1 99999999999\n")
    with pytest.raises(ValueError, match="out of bounds for int32") as info:
        load_sts(path)
    assert type(info.value) is ValueError and str(info.value).startswith(f"{path}: ")
    path.write_bytes(b"9 1\n2 99 0\n")
    s = load_sts(path)
    assert s.blocks.tolist() == [[0, 2, 99]]
    assert verify_sts(s).failure == "malformed block (0, 2, 99)"


def test_parallel_class_file_roundtrip(tmp_path):
    s = bose(9)
    cls = find_parallel_class(s)
    path = tmp_path / "pc.txt"
    store_parallel_class(path, cls)
    assert load_parallel_class(path) == cls


_LOADERS = {"sts": load_sts, "class": load_parallel_class}
_STS_V9 = b"9 12\n" + b"".join(f"{a} {b} {c}\n".encode() for a, b, c in bose(9).blocks)


@pytest.mark.parametrize("loader", sorted(_LOADERS))
@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe9 12\n", "can't decode"),  # not UTF-8
    (b"9 x\n", "non-integer field"),
    (b"9 12\n0 1 2.5\n", "non-integer field"),
])
def test_sts_and_class_loaders_name_the_file(tmp_path, loader, data, message):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=message) as info:
        _LOADERS[loader](path)
    assert type(info.value) is ValueError and str(info.value).startswith(f"{path}: ")


@settings(max_examples=200, deadline=None)
@example(loader="sts", data=b"\x80")
@example(loader="class", data=b"0 3 \xc3")
@example(loader="sts", data=b"9 1\n0 1 99999999999\n")
@given(
    loader=st.sampled_from(sorted(_LOADERS)),
    data=st.one_of(
        st.binary(max_size=40),
        st.text(alphabet="0123456789- \n\tx.", max_size=40).map(str.encode),
        st.binary(max_size=8).map(lambda tail: _STS_V9 + tail),
        st.tuples(st.integers(0, len(_STS_V9)), st.sampled_from([b"x", b"-", b"1.5", b"\xff", b""]))
        .map(lambda cut: _STS_V9[:cut[0]] + cut[1] + _STS_V9[cut[0] + 1:]),
    ),
)
def test_sts_and_class_loaders_load_or_raise_naming_the_file(tmp_path_factory, loader, data):
    """Any bytes at all: the loader returns, or raises a plain ValueError
    whose message starts with the path."""
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_bytes(data)
    try:
        _LOADERS[loader](path)
    except ValueError as exc:
        assert type(exc) is ValueError and str(exc).startswith(f"{path}: "), exc
