"""Direct unit tests of the NIC TLB (Section 4.2): translation,
page-boundary command splitting, capacity and driver-path validation."""

import pytest

from repro.config import NIC_10G
from repro.nic.tlb import Tlb, TlbMissError
from repro.roce.packetizer import segment_read_response, segment_write


def make_tlb():
    config = NIC_10G
    return Tlb(config), config


def test_translate_hit_and_offset():
    tlb, config = make_tlb()
    page = config.page_bytes
    tlb.populate(3, 7 * page)
    assert tlb.translate(3 * page) == 7 * page
    assert tlb.translate(3 * page + 12345) == 7 * page + 12345
    assert tlb.lookups == 2


def test_translate_miss_raises():
    tlb, config = make_tlb()
    tlb.populate(0, 0)
    with pytest.raises(TlbMissError):
        tlb.translate(config.page_bytes)  # vpn 1 never pinned
    assert tlb.lookups == 1


def test_populate_validation():
    tlb, config = make_tlb()
    with pytest.raises(ValueError):
        tlb.populate(0, config.page_bytes // 2)  # unaligned base
    with pytest.raises(ValueError):
        tlb.populate(0, 1 << 48)  # beyond 48-bit physical space


def test_capacity_full_rejects_new_vpn_but_allows_update():
    tlb, config = make_tlb()
    page = config.page_bytes
    for vpn in range(tlb.capacity):
        tlb.populate(vpn, vpn * page)
    with pytest.raises(ValueError):
        tlb.populate(tlb.capacity, 0)
    # Re-mapping an existing vpn is not a capacity violation.
    tlb.populate(0, 5 * page)
    assert tlb.translate(0) == 5 * page


def test_addressable_bytes_tracks_entries():
    tlb, config = make_tlb()
    page = config.page_bytes
    assert tlb.addressable_bytes == 0
    tlb.populate_from({0: 0, 1: page, 2: 2 * page})
    assert len(tlb) == 3
    assert tlb.addressable_bytes == 3 * page


def test_split_command_within_one_page_never_splits():
    tlb, config = make_tlb()
    page = config.page_bytes
    tlb.populate(0, 4 * page)
    pieces = list(tlb.split_command(64, 4096))
    assert pieces == [(4 * page + 64, 4096)]
    assert tlb.splits == 0


def test_split_command_straddles_page_boundaries():
    """A command crossing N boundaries yields N+1 pieces, none of which
    crosses a page, and physically discontiguous pages stay split."""
    tlb, config = make_tlb()
    page = config.page_bytes
    # Virtually contiguous, physically scattered pages.
    tlb.populate_from({0: 10 * page, 1: 3 * page, 2: 8 * page})
    start = page - 100
    pieces = list(tlb.split_command(start, 100 + page + 50))
    assert pieces == [
        (10 * page + start, 100),
        (3 * page, page),
        (8 * page, 50),
    ]
    assert sum(length for _, length in pieces) == 100 + page + 50
    assert tlb.splits == 2


def test_split_command_rejects_empty_dma():
    tlb, _ = make_tlb()
    with pytest.raises(ValueError):
        list(tlb.split_command(0, 0))


def test_split_command_miss_mid_stream():
    """A split reaching an unpinned page raises on that piece."""
    tlb, config = make_tlb()
    page = config.page_bytes
    tlb.populate(0, 0)  # page 1 missing
    pieces = tlb.split_command(page - 64, 128)
    assert next(pieces) == (page - 64, 64)
    with pytest.raises(TlbMissError):
        next(pieces)


def test_last_translation_cache_hit_miss_invalidate():
    """The one-entry cache hits on same-page repeats, misses across
    pages, and is invalidated when the driver remaps a page."""
    tlb, config = make_tlb()
    page = config.page_bytes
    tlb.populate_from({0: 4 * page, 1: 9 * page})

    assert tlb.translate(10) == 4 * page + 10
    assert tlb.cache_hits == 0  # cold: table probe filled the cache
    assert tlb.translate(20) == 4 * page + 20
    assert tlb.translate(page - 1) == 5 * page - 1
    assert tlb.cache_hits == 2  # same-page repeats hit

    assert tlb.translate(page + 5) == 9 * page + 5
    assert tlb.cache_hits == 2  # page change: table probe again
    assert tlb.translate(page + 6) == 9 * page + 6
    assert tlb.cache_hits == 3

    # Remap the cached page: the stale base must never be served.
    tlb.populate(1, 2 * page)
    assert tlb.translate(page + 7) == 2 * page + 7
    assert tlb.cache_hits == 3
    assert tlb.lookups == 6


def test_last_translation_cache_does_not_mask_misses():
    tlb, config = make_tlb()
    page = config.page_bytes
    tlb.populate(0, 0)
    assert tlb.translate(0) == 0
    with pytest.raises(TlbMissError):
        tlb.translate(page)  # unpinned page after a cached hit
    assert tlb.translate(1) == 1  # cache still valid for page 0


def _counters(tlb):
    return tlb.lookups, tlb.cache_hits, tlb.splits, tlb._last_vpn


def _per_chunk(tlb, vaddr, lengths):
    out = []
    for n in lengths:
        out.append(list(tlb.split_command(vaddr, n)))
        vaddr += n
    return out


@pytest.mark.parametrize("start_offset, lengths, warm_vpn", [
    (0, [1456] * 8, None),                  # inside one page, cold cache
    (0, [1456] * 8, 0),                     # ... warm: first piece hits
    (-3000, [1456] * 5, 1),                 # one chunk straddles
    (-2912, [1456] * 4, 0),                 # boundary on a chunk edge
    (-100, [100, 2 * 2 ** 21 + 5, 7], 2),   # a chunk spanning pages
    (-1, [1, 1, 1], None),                  # one-byte chunks
    (-5, [2 ** 21 + 9, 1456, 1456], 0),     # a chunk larger than a page
])
def test_split_run_matches_per_chunk_split_command(start_offset, lengths,
                                                   warm_vpn):
    """One Tlb.chunk_run pass over a run of chunks (a split run) gives
    the pieces and the counter and cache state the per-chunk
    split_command calls would have."""
    config = NIC_10G
    page = config.page_bytes
    scattered = {0: 10 * page, 1: 3 * page, 2: 8 * page, 3: 5 * page}
    vaddr = page + start_offset
    expected_tlb, run_tlb = Tlb(config), Tlb(config)
    for tlb in (expected_tlb, run_tlb):
        tlb.populate_from(scattered)
        if warm_vpn is not None:
            tlb.translate(warm_vpn * page)
    expected = _per_chunk(expected_tlb, vaddr, lengths)
    run = run_tlb.chunk_run(vaddr, lengths)
    assert list(run) == expected
    assert [run[i] for i in range(-len(lengths), 0)] == expected
    assert all(run.piece_count(j, k) == sum(map(len, expected[j:k]))
               for j in range(len(lengths))
               for k in range(j, len(lengths) + 1))
    # Explicit piece lists exist for exactly the straddling chunks.
    assert sorted(run.straddles) == [i for i, pieces in enumerate(expected)
                                     if len(pieces) > 1]
    assert _counters(run_tlb) == _counters(expected_tlb)


@pytest.mark.parametrize("segmenter", [segment_write,
                                       segment_read_response])
@pytest.mark.parametrize("start_offset, length", [
    (0, 100),                          # one chunk inside a page
    (-40, 100),                        # one chunk straddling
    (-2000, 256 * 1024),               # the first chunk straddles
    (-(128 * 1024) - 3, 256 * 1024),   # a middle chunk straddles
    (-9, 3 * 2 ** 21 + 5),             # four pages, three boundaries
])
def test_segments_run_matches_listed_lengths(segmenter, start_offset,
                                             length):
    """A run over a message's closed-form Segments (offsets and the chunk
    at each page boundary by arithmetic) equals the run over its listed
    chunk lengths, and charges the TLB the same."""
    config = NIC_10G
    page = config.page_bytes
    scattered = {vpn: (9 - vpn) * page for vpn in range(6)}
    vaddr = page + start_offset
    segments = segmenter(length)
    listed_tlb, closed_tlb = Tlb(config), Tlb(config)
    for tlb in (listed_tlb, closed_tlb):
        tlb.populate_from(scattered)
    listed = listed_tlb.chunk_run(vaddr, segments.lengths())
    closed = closed_tlb.chunk_run(vaddr, segments)
    n = len(segments)
    assert list(closed) == list(listed)
    assert closed.straddles == listed.straddles
    assert closed.total == listed.total == length
    assert closed.pieces == listed.pieces
    span_tlb = Tlb(config)
    span_tlb.populate_from(scattered)
    assert closed.span() == listed.span() == \
        _per_chunk(span_tlb, vaddr, [length])[0]
    assert [closed.piece_count(j, n) for j in range(n)] == \
        [listed.piece_count(j, n) for j in range(n)]
    assert _counters(closed_tlb) == _counters(listed_tlb)


def test_split_run_pure_lookup_then_charge_run():
    """charge=False leaves counters and cache alone; charge_run later
    adds exactly what the per-chunk calls would have."""
    config = NIC_10G
    page = config.page_bytes
    expected_tlb, run_tlb = Tlb(config), Tlb(config)
    for tlb in (expected_tlb, run_tlb):
        tlb.populate_from({0: 4 * page, 1: 9 * page})
        tlb.translate(0)
    lengths = [1456] * 10
    vaddr = page - 4000
    before = _counters(run_tlb)
    run = run_tlb.chunk_run(vaddr, lengths, charge=False)
    assert _counters(run_tlb) == before
    expected = _per_chunk(expected_tlb, vaddr, lengths)
    assert list(run) == expected
    run_tlb.charge_run(vaddr, sum(lengths), len(lengths),
                       run.piece_count(0, len(lengths)))
    assert _counters(run_tlb) == _counters(expected_tlb)


def test_split_run_rejects_empty_chunk_and_misses():
    tlb, config = make_tlb()
    page = config.page_bytes
    tlb.populate(0, 0)
    tlb.translate(0)
    before = _counters(tlb)
    with pytest.raises(ValueError):
        tlb.chunk_run(0, [64, 0])
    with pytest.raises(TlbMissError):
        tlb.chunk_run(page - 64, [64, 64])  # page 1 never pinned
    # A miss raises before anything is charged.
    assert _counters(tlb) == before


def test_pending_charge_settles_before_a_translation():
    tlb, config = make_tlb()
    tlb.populate(0, 0)
    order = []
    tlb.pending_charge = lambda: order.append("settle")
    tlb.translate(0)
    tlb.chunk_run(0, [64])
    tlb.chunk_run(0, [64], charge=False)  # pure: nothing to order
    assert order == ["settle", "settle"]
