import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsent import compressor
from epsent.compressor import (
    ALGORITHMS,
    HEADER_BITS,
    MAX_ALPHABET,
    MAX_SYMBOLS,
    DecodeError,
    _earlier_siblings,
    _pack_fields,
    _pack_header,
    _ranked_symbols,
    _unpack_header,
    castore_encode,
    decode,
    lz78_encode,
)
from epsent.partition import SymbolicSequence


class BitReader:
    """Reads fields back one at a time, the reference for :func:`_pack_fields`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read(self, nbits: int) -> int:
        end = self._pos + nbits
        assert end <= 8 * len(self._data), "read past the end"
        value = int.from_bytes(self._data, "big") >> (8 * len(self._data) - end)
        self._pos = end
        return value & ((1 << nbits) - 1)

    def padding_is_clean(self) -> bool:
        """True iff only zero bits remain, all in the final byte."""
        rest = 8 * len(self._data) - self._pos
        return rest < 8 and not (rest and self._data[-1] & ((1 << rest) - 1))


def pack(fields) -> bytes:
    """The (value, width) pairs in order, as the encoders pack their records."""
    return _pack_fields(
        np.array([value for value, _ in fields], dtype=np.uint64),
        np.array([width for _, width in fields], dtype=np.int64),
    )


def phase_in_bits(x: int, n: int) -> int:
    """Length of value x in the phase-in (truncated binary) code over n values.

    With b = floor(log2 n), the first 2**(b+1) - n values take b bits and the
    rest take b + 1.
    """
    b = n.bit_length() - 1
    return b if x < 2 ** (b + 1) - n else b + 1


def phase_in_code(x: int, n: int) -> tuple[int, int]:
    """(code, bit count) of value x in the phase-in code over n values."""
    b = n.bit_length() - 1
    u = 2 ** (b + 1) - n
    return (x, b) if x < u else (x + u, b + 1)


def reference_lz78_stream(symbols, alphabet_size: int) -> bytes:
    """The lz78 stream, coded phrase by phrase as the parse closes each one.

    A per-phrase bitmask holds the symbols the phrase has been extended by:
    the new symbol's rank is its count of unused symbols below it, over the
    parent's unused symbols.  This is the format's definition, written as a
    per-phrase loop; ``lz78_encode`` must give the same bytes.
    """
    fields = []
    trie: dict[tuple[int, int], int] = {}
    used = [0]  # per phrase: bitmask of the symbols it has been extended by
    node = 0
    for s in symbols:
        child = trie.get((node, s))
        if child is not None:
            node = child
            continue
        phrase = len(used)  # also the number of possible parents
        mask = used[node]
        fields.append(phase_in_code(node, phrase))
        rank = s - (mask & ((1 << s) - 1)).bit_count()
        fields.append(phase_in_code(rank, alphabet_size - mask.bit_count()))
        used[node] = mask | (1 << s)
        used.append(0)
        trie[node, s] = phrase
        node = 0
    if node:
        fields.append(phase_in_code(node, len(used)))
    return _pack_header(alphabet_size, len(symbols), "lz78") + pack(fields)


def reference_castore_stream(symbols, alphabet_size: int) -> bytes:
    """The castore stream, coded pair by pair as the parse finds each one.

    Trie nodes carry the index of the word ending there (0 where none does);
    each step walks u and v from the root and inserts u+v from u's node.
    This is the format's definition, written as a per-phrase loop;
    ``castore_encode`` must give the same bytes.
    """
    fields = []
    syms = list(symbols)
    nsym = alphabet_size
    trie = {(0, s): s + 1 for s in range(nsym)}
    node_word = list(range(nsym + 1))
    dict_size = nsym
    pos = 0
    n = len(syms)

    def longest_word(start):
        """(word index, its node, its end) of the longest word at start."""
        word = word_node = 0
        node = 0
        j = end = start
        while j < n and (node, syms[j]) in trie:
            node = trie[node, syms[j]]
            j += 1
            if node_word[node]:
                word, word_node, end = node_word[node], node, j
        return word, word_node, end

    while pos < n:
        width = dict_size.bit_length()  # indices 0..dict_size
        u, node, end = longest_word(pos)
        if end == n:
            fields += [(u, width), (0, width)]
            break
        v, _, v_end = longest_word(end)
        fields += [(u, width), (v, width)]
        for j in range(end, v_end):
            if (node, syms[j]) not in trie:
                trie[node, syms[j]] = len(node_word)
                node_word.append(0)
            node = trie[node, syms[j]]
        dict_size += 1
        node_word[node] = dict_size
        pos = v_end
    return _pack_header(alphabet_size, n, "castore") + pack(fields)


def constant_parse_oracle(n: int, alphabet_size: int) -> tuple[int, int]:
    """Closed-form phrase count and bit length for a constant input.

    The parse is 'a', 'aa', 'aaa', ...; phrase k extends phrase k - 1, whose
    index is phase-in coded over k values.  Phrase k - 1 has no child yet, so
    the symbol is rank 0 of all N symbols, phase-in coded over N values.  A
    partial remainder of length r is one more parent index, r, over m + 1
    values.
    """
    m = 0
    consumed = 0
    while consumed + m + 1 <= n:
        m += 1
        consumed += m
    bits = HEADER_BITS + sum(
        phase_in_bits(k - 1, k) + phase_in_bits(0, alphabet_size) for k in range(1, m + 1)
    )
    phrases = m
    if consumed < n:
        bits += phase_in_bits(n - consumed, m + 1)
        phrases += 1
    return phrases, bits


class TestLz78HandParses:
    def test_constant_four(self):
        _, rep = lz78_encode([0, 0, 0, 0], alphabet_size=2)
        # phrases "0", "00", remainder "0"; each record is parent + symbol:
        # "0"  parent 0 of 1 (0 bits), rank 0 of 2 unused (1 bit)
        # "00" parent 1 of 2 (1 bit), rank 0 of 2 unused (1 bit)
        # "0"  parent 1 of 3 (2 bits: 1 is past the single 1-bit value)
        assert rep.phrase_count == 3
        assert rep.encoded_bits == HEADER_BITS + (0 + 1) + (1 + 1) + 2

    def test_alternating_eight(self):
        _, rep = lz78_encode([0, 1, 0, 1, 0, 1, 0, 1], alphabet_size=2)
        # phrases "0", "1", "01", "010", remainder "1":
        # "0"   parent 0 of 1 (0 bits), rank 0 of 2 unused (1 bit)
        # "1"   parent 0 of 2 (1 bit), root has 1 unused symbol (0 bits)
        # "01"  parent 1 of 3 (2 bits), rank 1 of 2 unused (1 bit)
        # "010" parent 3 of 4 (2 bits), rank 0 of 2 unused (1 bit)
        # "1"   parent 2 of 5 (2 bits: 2 is among the three 2-bit values)
        assert rep.phrase_count == 5
        assert rep.encoded_bits == HEADER_BITS + (0 + 1) + (1 + 0) + (2 + 1) + (2 + 1) + 2

    def test_empty_input(self):
        stream, rep = lz78_encode([], alphabet_size=2)
        assert rep.phrase_count == 0
        assert rep.encoded_bits == HEADER_BITS
        assert rep.rate == 0.0
        assert len(decode(stream)[0]) == 0

    def test_constant_closed_form(self):
        for n, alphabet in ((1, 2), (10, 2), (4096, 3), (1_000_000, 2)):
            symbols = np.zeros(n, dtype=np.int32)
            _, rep = lz78_encode(symbols, alphabet_size=alphabet)
            phrases, bits = constant_parse_oracle(n, alphabet)
            assert rep.phrase_count == phrases
            assert rep.encoded_bits == bits

    def test_constant_megasymbol_rate(self):
        _, rep = lz78_encode(np.zeros(1_000_000, dtype=np.int32), alphabet_size=2)
        assert rep.rate < 0.02


def pinned_inputs() -> dict[str, tuple[np.ndarray, int]]:
    """Fixed seeded inputs: iid at N = 2, 16, 250, 1000 and 65535, a constant run, nothing."""
    rng = np.random.default_rng(20240618)
    cases = {f"iid{n}": (rng.integers(0, n, size=20_000, dtype=np.int32), n) for n in (2, 16, 250)}
    # wide alphabets draw from their own generator, so the inputs above stay put
    wide = np.random.default_rng(20240619)
    for n in (1000, 65535):
        cases[f"iid{n}"] = (wide.integers(0, n, size=20_000, dtype=np.int32), n)
    cases["constant"] = (np.full(20_000, 3, dtype=np.int32), 5)
    cases["empty"] = (np.zeros(0, dtype=np.int32), 2)
    return cases


# (input, coder) -> (stream sha256, encoded_bits, phrase_count); the stream
# format is fixed, so a faster encoder must reproduce these exactly
PINNED_STREAMS = {
    ("iid2", "lz78"): ("1966861f3d9335d41281a8e302dc0e0b4db2a9583384fc0d4f640f74d3351ecd", 22466, 2141),
    ("iid2", "castore"): ("f58953ef0c87e2ac0e362bf0933cc4bc2fc646600bdbd2ac8f09dd803833fb21", 28658, 1481),
    ("iid16", "lz78"): ("37c8db44dabd43b2f259e5b9753f65e68f04fa998780b9c29884188ccaff1c3f", 85608, 5878),
    ("iid16", "castore"): ("30484a99b004a9e805dc35c95ea9eaa209525edce1c235cc468d0d0e1b5fd0f9", 112114, 4925),
    ("iid250", "lz78"): ("55ed17f4c0466de7b63d3bbe018e9525c8d6af7dfebb8efa5d5f039547f8d117", 189441, 9796),
    ("iid250", "castore"): ("9136145a0d8373fcb0953177c442635fed881094fc18085d590af5a6a4eaccb5", 233372, 9375),
    ("iid1000", "lz78"): ("4a4e18ebe59c6fdfb429e4dd6e06ffce233049d16224b90f76347703aecf5437", 225525, 10481),
    ("iid65535", "lz78"): ("d91dfda2f55e0de8bae2231c9028473136ebe978f0c00383d4c7ae028fbb6b31", 498303, 17732),
    ("constant", "lz78"): ("cc547f54283390303baf079383f4e0a7a6a012789cc7e3ff19762d0b25a8bc76", 2070, 200),
    ("constant", "castore"): ("531fd068049e3966839a11a48bae04a368803f2dd4baa142ba248567f832c620", 260, 16),
    ("empty", "lz78"): ("2d6fdc3599ab30fdd6e51b3f7c322ca24e86a213207c8d997de1a19bc15e4ba8", 128, 0),
    ("empty", "castore"): ("daf96ab729d9754eaf26257ceddd616c9fb009d81b4b830a1ab272f19a73576c", 128, 0),
}


class TestPinnedStreams:
    @pytest.mark.parametrize("case, algorithm", sorted(PINNED_STREAMS))
    def test_stream_bytes_and_report(self, case, algorithm):
        symbols, n = pinned_inputs()[case]
        encoder = lz78_encode if algorithm == "lz78" else castore_encode
        stream, rep = encoder(symbols, alphabet_size=n)
        digest, bits, phrases = PINNED_STREAMS[case, algorithm]
        assert hashlib.sha256(stream).hexdigest() == digest
        assert rep.encoded_bits == bits
        assert rep.phrase_count == phrases
        assert len(stream) == (bits + 7) // 8


@st.composite
def coder_inputs(draw):
    """(N, symbols) with N in 2..300 and at most 2000 symbols.

    Runs over a few letters give deep phrases, constant runs and inputs that
    stop inside a phrase; plain draws over all N symbols give wide sibling
    groups.
    """
    n = draw(st.integers(2, 300))
    if draw(st.booleans()):
        return n, draw(st.lists(st.integers(0, n - 1), max_size=2000))
    letters = st.sampled_from(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6)))
    runs = draw(st.lists(st.tuples(letters, st.integers(1, 80)), max_size=80))
    return n, [a for a, length in runs for _ in range(length)][:2000]


class TestReferenceEncoder:
    @settings(max_examples=200, deadline=None)
    @given(coder_inputs())
    @example((2, []))
    @example((2, [0] * 11))  # phrases 0, 00, 000, 0000, then 0 mid-phrase
    @example((3, [2] * 2000))
    @example((300, list(range(300)) * 6 + [7, 8]))
    def test_property_matches_reference(self, case):
        n, symbols = case
        stream, _ = lz78_encode(symbols, alphabet_size=n)
        assert stream == reference_lz78_stream(symbols, n)

    @pytest.mark.parametrize("n", [257, 1000, 65535])
    def test_seeded_fuzz_wide_alphabets(self, n):
        rng = np.random.default_rng(n)
        for _ in range(12):
            letters = rng.choice(n, size=int(rng.integers(2, min(n, 4000) + 1)), replace=False)
            symbols = letters[rng.integers(0, letters.size, size=int(rng.integers(0, 6000)))]
            stream, rep = lz78_encode(symbols.astype(np.int32), alphabet_size=n)
            assert stream == reference_lz78_stream(symbols.tolist(), n)
            assert np.array_equal(decode(stream)[0].symbols, symbols)
            assert rep.phrase_count <= symbols.size


class TestCastoreReference:
    @settings(max_examples=200, deadline=None)
    @given(coder_inputs())
    @example((2, []))
    @example((2, [0]))  # a lone u and nothing else
    @example((2, [0, 0, 0]))  # "0" + "0", then a final lone u
    @example((2, [0, 0]))  # the v-walk reaches the end of the input
    # the last u-walk follows "10", an inner node, to the end of the input;
    # v = "0" stops there, so u+v = "10" is made a word in place
    @example((2, [0, 0, 1, 0, 0, 1, 0]))
    # as above, but the u-walk stops at "101" inside the input, and a lone
    # "1" follows
    @example((2, [0, 0, 1, 0, 0, 1, 0, 1]))
    @example((3, [2] * 2000))
    @example((300, list(range(300)) * 6 + [7, 8]))
    def test_property_matches_reference(self, case):
        n, symbols = case
        stream, rep = castore_encode(symbols, alphabet_size=n)
        assert stream == reference_castore_stream(symbols, n)
        assert rep.encoded_bits <= 8 * len(stream) < rep.encoded_bits + 8

    @pytest.mark.parametrize("n", [2, 16, 257, 1000, 65535])
    def test_seeded_fuzz(self, n):
        rng = np.random.default_rng(n + 1)
        for _ in range(12):
            letters = rng.choice(n, size=int(rng.integers(1, min(n, 4000) + 1)), replace=False)
            symbols = letters[rng.integers(0, letters.size, size=int(rng.integers(0, 6000)))]
            stream, rep = castore_encode(symbols.astype(np.int32), alphabet_size=n)
            assert stream == reference_castore_stream(symbols.tolist(), n)
            assert np.array_equal(decode(stream)[0].symbols, symbols)
            assert rep.phrase_count <= symbols.size


def seeded_round_trips() -> None:
    """Both coders' streams of 200 seeded inputs decode to their input."""
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        length = int(rng.integers(0, 600))
        symbols = rng.integers(0, n, size=length, dtype=np.int32)
        for enc in (lz78_encode, castore_encode):
            stream, rep = enc(symbols, alphabet_size=n)
            out, _ = decode(stream)
            assert np.array_equal(out.symbols, symbols)
            assert rep.input_len == length


@st.composite
def sibling_picks(draw):
    """(N, parents, symbols): phrases naming random parents, each parent
    extended by distinct symbols, as the lz78 parse extends a phrase."""
    n = draw(st.integers(2, 40))
    groups = draw(st.lists(st.permutations(range(n)).flatmap(
        lambda order: st.integers(0, n).map(lambda m: order[:m])), min_size=1, max_size=6))
    # the groups' phrases in a drawn interleaving that keeps each group's order
    slots = [g for g, picks in enumerate(groups) for _ in picks]
    slots = draw(st.permutations(slots))
    taken = [0] * len(groups)
    parents, symbols = [], []
    for g in slots:
        parents.append(g)
        symbols.append(groups[g][taken[g]])
        taken[g] += 1
    return n, np.array(parents, dtype=np.int32), np.array(symbols, dtype=np.int32)


class TestRankedSymbols:
    @settings(max_examples=300, deadline=None)
    @given(sibling_picks())
    @example((4, np.array([0, 0, 0], dtype=np.int32), np.array([2, 0, 3], dtype=np.int32)))
    @example((3, np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)))
    def test_inverts_earlier_siblings(self, case):
        n, parents, symbols = case
        _, smaller = _earlier_siblings(parents, symbols, n)
        ranks = symbols - smaller
        assert np.array_equal(_ranked_symbols(parents, ranks, n), symbols)

    def test_full_groups_in_either_order(self):
        # every parent takes all 1000 symbols, ascending, descending or shuffled
        n = 1000
        orders = [np.arange(n), np.arange(n)[::-1], np.random.default_rng(3).permutation(n)]
        parents = np.repeat(np.arange(3, dtype=np.int32), n)
        symbols = np.concatenate(orders).astype(np.int32)
        _, smaller = _earlier_siblings(parents, symbols, n)
        assert np.array_equal(_ranked_symbols(parents, symbols - smaller, n), symbols)


class TestRoundTrips:
    def test_simple(self):
        stream, _ = lz78_encode([0, 1, 1, 0], alphabet_size=2)
        out, algorithm = decode(stream)
        assert algorithm == "lz78"
        assert out.symbols.tolist() == [0, 1, 1, 0]
        assert out.symbols.dtype == np.int32

    def test_large_alphabet(self):
        rng = np.random.default_rng(0)
        symbols = rng.integers(0, 16, size=100_000, dtype=np.int32)
        stream, rep = lz78_encode(symbols, alphabet_size=16)
        out, algorithm = decode(stream)
        assert algorithm == "lz78"
        assert np.array_equal(out.symbols, symbols)
        assert rep.input_len == symbols.size

    def test_seeded_fuzz_both_algorithms(self):
        seeded_round_trips()

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_seeded_fuzz_in_small_decode_steps(self, monkeypatch, chunk):
        # castore records unpacked, and lz78 stream bytes windowed, per step
        monkeypatch.setattr(compressor, "_RECORD_CHUNK", chunk)
        monkeypatch.setattr(compressor, "_WINDOW_BYTES", chunk)
        seeded_round_trips()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=250))
        )
    )
    def test_property_round_trip(self, case):
        n, symbols = case
        for enc in (lz78_encode, castore_encode):
            stream, _ = enc(symbols, alphabet_size=n)
            out, _ = decode(stream)
            assert out.symbols.tolist() == symbols

    @pytest.mark.parametrize("n", [16_000, 65_535])
    def test_ascending_alphabet(self, n):
        # every phrase extends the root by the smallest symbol it has not
        # used: a decoder that steps through the used symbols is cubic here.
        # Reversed, each phrase takes the largest: a decoder that keeps each
        # parent's children in a sorted list moves them all on every insert
        for symbols in np.arange(n, dtype=np.int32), np.arange(n, dtype=np.int32)[::-1]:
            stream, _ = lz78_encode(symbols, alphabet_size=n)
            assert np.array_equal(decode(stream)[0].symbols, symbols)

    def test_ascending_children_below_the_root(self):
        # 0, 1 | 0, 2 | 0, 3 | ...: phrase "0" is extended by 2, 3, 4, ... in order
        n = 16_000
        symbols = np.zeros(2 * (n - 1), dtype=np.int32)
        symbols[1::2] = np.arange(1, n)
        stream, _ = lz78_encode(symbols, alphabet_size=n)
        assert stream == reference_lz78_stream(symbols.tolist(), n)
        assert np.array_equal(decode(stream)[0].symbols, symbols)

    def test_algorithm_specific_decoders(self):
        stream, _ = castore_encode([0, 1, 0], alphabet_size=2)
        out, algorithm = decode(stream)
        assert algorithm == "castore"
        assert out.symbols.tolist() == [0, 1, 0]
        assert out.symbols.dtype == np.int32
        # the same records read by the lz78 decoder (algorithm id at byte 15)
        relabelled = stream[:15] + bytes([ALGORITHMS.index("lz78")]) + stream[16:]
        with pytest.raises(DecodeError):
            decode(relabelled)


@st.composite
def damaged_streams(draw):
    """A valid stream of either coder, bit-flipped and/or truncated."""
    encoder = draw(st.sampled_from([lz78_encode, castore_encode]))
    n = draw(st.integers(2, 6))
    symbols = draw(st.lists(st.integers(0, n - 1), max_size=200))
    stream = bytearray(encoder(symbols, alphabet_size=n)[0])
    # bits 40..127 are the header's alphabet size, symbol count and algorithm id
    anywhere = st.integers(0, 8 * len(stream) - 1)
    for bit in draw(st.lists(st.one_of(st.integers(40, 127), anywhere), max_size=4)):
        stream[bit >> 3] ^= 0x80 >> (bit & 7)
    return bytes(stream[: draw(st.integers(0, len(stream)))])


def self_pairing_stream(doublings: int, last: tuple[int, int], declared: int) -> bytes:
    """Castore stream over {0, 1} whose records pair the newest word with itself.

    Word 1 is "0"; record i (u, u) emits and adds a word of 2**i zeros, so the
    records emit 2**(doublings + 1) - 2 symbols before the record ``last``.
    """
    fields = []
    size, word = 2, 1
    for _ in range(doublings):
        # an index field holds 0..size: ceil(log2(size + 1)) bits
        fields += [(word, size.bit_length())] * 2
        size += 1
        word = size
    fields += [(index, size.bit_length()) for index in last]
    return _pack_header(2, declared, "castore") + pack(fields)


class TestOutputLimit:
    def test_self_pairing_bomb_rejected_by_header(self):
        # 40 doublings and a closing "00": 2**41 symbols from 65 bytes
        stream = self_pairing_stream(40, (3, 0), 2**41)
        assert len(stream) == 65
        # the header alone refuses it, so no record is ever expanded
        with pytest.raises(DecodeError, match="exceeds the limit"):
            _unpack_header(stream)
        with pytest.raises(DecodeError, match="exceeds the limit"):
            decode(stream)

    def test_one_past_the_limit_rejected(self):
        # 23 doublings give 2**24 - 2 zeros, then "0" + "00" adds 3
        stream = self_pairing_stream(23, (1, 3), MAX_SYMBOLS + 1)
        with pytest.raises(DecodeError, match="exceeds the limit"):
            _unpack_header(stream)

    def test_stream_at_the_limit_decodes(self):
        # 23 doublings give 2**24 - 2 zeros and a closing "00" ends the stream
        assert MAX_SYMBOLS == 2**24
        seq, algorithm = decode(self_pairing_stream(23, (3, 0), MAX_SYMBOLS))
        assert algorithm == "castore"
        assert seq.symbols.size == MAX_SYMBOLS
        assert not seq.symbols.any()

    @pytest.mark.parametrize("encoder", [lz78_encode, castore_encode])
    def test_encoders_refuse_what_decode_would(self, encoder):
        with pytest.raises(ValueError, match="stream limit"):
            encoder(np.zeros(MAX_SYMBOLS + 1, dtype=np.int32), alphabet_size=2)

    @pytest.mark.parametrize("encoder", [lz78_encode, castore_encode])
    def test_encoders_refuse_wide_symbols_before_narrowing_them(self, encoder):
        # 2**32 + 1 would read as 1 after a cast to int32
        for seq in ([0, 1, 2**32 + 1, 3], np.array([0, 1, 2**32 + 1, 3])):
            with pytest.raises(ValueError, match="out of alphabet range"):
                encoder(seq, alphabet_size=4)
        # and 1 - 2**32 as 1
        with pytest.raises(ValueError, match="negative symbol"):
            encoder(np.array([0, 1 - 2**32]), alphabet_size=4)

    @pytest.mark.parametrize("encoder", [lz78_encode, castore_encode])
    def test_encoders_refuse_float_symbols(self, encoder):
        with pytest.raises(ValueError, match="integer dtype"):
            encoder(np.array([0.5, 1.7, 2.2]), alphabet_size=4)
        with pytest.raises(ValueError, match="integer dtype"):
            encoder([0.0, 1.0], alphabet_size=2)
        # an empty input carries no symbols to narrow
        assert encoder([], alphabet_size=4)[1].input_len == 0

    @pytest.mark.parametrize("encoder", [lz78_encode, castore_encode])
    def test_raw_symbols_need_an_alphabet_size(self, encoder):
        # no alphabet is inferred from the largest symbol
        for symbols in ([0, 1, 1], np.array([0, 1, 1], dtype=np.int32), []):
            with pytest.raises(ValueError, match="^raw symbols need an alphabet_size$"):
                encoder(symbols)

    @pytest.mark.parametrize("encoder", [lz78_encode, castore_encode])
    def test_encoders_take_a_checked_symbolic_sequence(self, encoder):
        seq = SymbolicSequence(np.array([3, 0, 3, 3], dtype=np.int64), 4)
        assert seq.symbols.dtype == np.int32
        stream, rep = encoder(seq)
        assert decode(stream)[0].symbols.tolist() == [3, 0, 3, 3]
        assert rep.input_len == 4

    @pytest.mark.parametrize("encoder", [lz78_encode, castore_encode])
    @pytest.mark.parametrize("alphabet_size", [1, 0, MAX_ALPHABET + 1, 70_000])
    def test_encoders_refuse_an_alphabet_the_header_cannot_hold(self, encoder, alphabet_size):
        # the header's u16 field holds [2, 65535]; refused before the parse
        with pytest.raises(ValueError, match=f"outside \\[2, {MAX_ALPHABET}\\]"):
            encoder(np.zeros(300_000, dtype=np.int32), alphabet_size=alphabet_size)


def decode_outcome(stream: bytes):
    """decode's symbols and coder, or the message of its DecodeError."""
    try:
        seq, algorithm = decode(stream)
    except DecodeError as exc:
        return str(exc)
    return seq.symbols.tolist(), algorithm


class TestMalformedStreams:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.binary(max_size=64), damaged_streams()))
    def test_decode_returns_or_raises_decode_error(self, stream):
        try:
            decode(stream)
        except DecodeError:
            pass

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    @settings(max_examples=150, deadline=None)
    @given(stream=st.one_of(st.binary(max_size=64), damaged_streams()))
    def test_small_decode_steps_change_nothing(self, chunk, stream):
        # the same symbols or the same error, however the records are batched
        whole = decode_outcome(stream)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(compressor, "_RECORD_CHUNK", chunk)
            patch.setattr(compressor, "_WINDOW_BYTES", chunk)
            assert decode_outcome(stream) == whole

    @pytest.mark.parametrize("algorithm", ["lz78", "castore"])
    @pytest.mark.parametrize("count", [2**40, 2**64 - 1])
    def test_forged_symbol_count(self, algorithm, count):
        stream = _pack_header(2, count, algorithm) + b"\x55" * 8
        with pytest.raises(DecodeError):
            decode(stream)

    @pytest.mark.parametrize(
        "encoder, bytes_named",
        [(lz78_encode, [16, 16, 18, 18]), (castore_encode, [16, 16, 18, 18, 20, 21])],
    )
    def test_every_cut_names_the_field_it_cuts(self, encoder, bytes_named):
        # the stream cut after 16, 17, ... bytes names the byte where the
        # first field that no longer fits begins
        stream, _ = encoder([0, 1, 2, 0, 0, 1, 1, 2, 2, 0, 1, 0, 2, 1, 0, 0, 0, 1], alphabet_size=3)
        for cut, byte in zip(range(16, len(stream)), bytes_named, strict=True):
            with pytest.raises(DecodeError, match=f"^stream truncated at byte {byte}$"):
                decode(stream[:cut])

    def test_truncated(self):
        stream, _ = lz78_encode(list(range(8)) * 40, alphabet_size=8)
        with pytest.raises(DecodeError):
            decode(stream[:-2])

    def test_bad_magic(self):
        stream, _ = lz78_encode([0, 1], alphabet_size=2)
        with pytest.raises(DecodeError, match="magic"):
            decode(b"XXXX" + stream[4:])

    def test_bad_version(self):
        stream, _ = lz78_encode([0, 1], alphabet_size=2)
        broken = stream[:4] + bytes([9]) + stream[5:]
        with pytest.raises(DecodeError, match="version"):
            decode(broken)

    def test_version_one_rejected(self):
        stream, _ = lz78_encode([0, 1], alphabet_size=2)
        old = stream[:4] + bytes([1]) + stream[5:]
        with pytest.raises(DecodeError, match="version 1"):
            decode(old)

    def test_bad_algorithm_id(self):
        stream, _ = lz78_encode([0, 1], alphabet_size=2)
        broken = stream[:15] + bytes([7]) + stream[16:]
        with pytest.raises(DecodeError, match="algorithm"):
            decode(broken)

    def test_trailing_garbage(self):
        stream, _ = lz78_encode([0, 1, 0, 0], alphabet_size=2)
        with pytest.raises(DecodeError, match="trailing"):
            decode(stream + b"\xff")

    @pytest.mark.parametrize("encoder, padding", [(lz78_encode, 6), (castore_encode, 2)])
    def test_set_padding_bit(self, encoder, padding):
        stream, report = encoder([0, 1, 0, 0, 1, 1, 0], alphabet_size=2)
        assert 8 * len(stream) - report.encoded_bits == padding
        decode(stream)
        for bit in range(padding):
            broken = stream[:-1] + bytes([stream[-1] | 1 << bit])
            with pytest.raises(DecodeError, match="trailing"):
                decode(broken)

    def test_unknown_parent_index(self):
        # phrases "0" and "1" use up both children of the root; a third
        # phrase that extends the root again names a parent with no unused
        # symbol left (a parent index >= k cannot be written in v2)
        fields = [
            (0, 1),  # phrase 1: parent 0 of 1 (0 bits), rank 0 of 2
            (0, 1),  # phrase 2: parent 0 of 2, symbol forced (0 bits)
            (0, 1),  # phrase 3: parent 0 of 3
        ]
        stream = _pack_header(2, 10, "lz78") + pack(fields)
        with pytest.raises(DecodeError, match="parent"):
            decode(stream)

    def test_castore_zero_first_index(self):
        # u = 0 is reserved
        stream = _pack_header(2, 4, "castore") + pack([(0, 2), (1, 2)])
        with pytest.raises(DecodeError, match="index"):
            decode(stream)

    def test_header_too_short(self):
        with pytest.raises(DecodeError):
            decode(b"EPSC\x01")

    @pytest.mark.parametrize(
        "stream, message",
        [
            pytest.param(_pack_header(1, 0, "lz78"), "alphabet size 1 invalid at byte 5", id="alphabet"),
            # phrases "0" and "00", then a bare parent 2 ("00") past the 4 declared
            pytest.param(
                _pack_header(2, 4, "lz78") + pack([(0, 0), (0, 1), (1, 1), (0, 1), (3, 2)]),
                "final phrase overruns declared length 4",
                id="lz78_final_overrun",
            ),
            # at N = 16 an index takes 5 bits, so one byte holds a first
            # field but not a whole record
            pytest.param(
                _pack_header(16, 4, "castore") + pack([(17, 5)]),
                "word index 17 outside dictionary of 16",
                id="castore_cut_short_u",
            ),
            pytest.param(
                _pack_header(2, 4, "castore") + pack([(1, 2), (3, 2)]),
                "word index 3 outside dictionary of 2",
                id="castore_v",
            ),
            pytest.param(
                _pack_header(2, 4, "castore") + pack([(1, 2), (0, 2)]),
                "final phrase does not close the declared length",
                id="castore_final_short",
            ),
            pytest.param(
                _pack_header(2, 1, "castore") + pack([(1, 2), (2, 2)]),
                "phrase overruns declared length 1",
                id="castore_overrun",
            ),
        ],
    )
    def test_framing_and_record_errors_name_what_is_wrong(self, stream, message):
        with pytest.raises(DecodeError, match=f"^{re.escape(message)}$"):
            decode(stream)


# (value, width) fields of every width from 0 to 64
bit_fields = st.lists(
    st.one_of(st.sampled_from([0, 1, 63, 64]), st.integers(0, 64)).flatmap(
        lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))
    ),
    max_size=80,
)


class TestBitIO:
    def test_write_read_cycle(self):
        fields = [(5, 3), (0, 1), (1023, 10), (1, 1), (77, 7)]
        reader = BitReader(pack(fields))
        for value, nbits in fields:
            assert reader.read(nbits) == value
        assert reader.padding_is_clean()

    def test_value_too_wide(self):
        with pytest.raises(ValueError):
            pack([(4, 2)])
        with pytest.raises(ValueError):
            pack([(1, 65)])

    def test_extend_rejects_width_65(self):
        with pytest.raises(ValueError, match="width 65"):
            _pack_fields(np.array([1, 1]), np.array([3, 65]))
        with pytest.raises(ValueError, match="width -1"):
            _pack_fields(np.array([0]), np.array([-1]))

    def test_extend_rejects_value_too_wide(self):
        with pytest.raises(ValueError, match="value 4 does not fit in 2 bits"):
            _pack_fields(np.array([3, 4], dtype=np.uint64), np.array([2, 2]))
        with pytest.raises(ValueError, match="value -1 does not fit in 64 bits"):
            _pack_fields(np.array([-1]), np.array([64]))
        with pytest.raises(ValueError, match="2 values for 1 widths"):
            _pack_fields(np.array([1, 2]), np.array([2]))

    @settings(max_examples=300, deadline=None)
    @given(bit_fields)
    @example([])
    @example([(1, 1)] * 63 + [((1 << 64) - 1, 64), (0, 0), (5, 3)])
    def test_packed_fields_match_a_bit_string(self, fields):
        bits = "".join(format(value, f"0{nbits}b") for value, nbits in fields if nbits)
        bits += "0" * (-len(bits) % 8)
        expected = bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))
        assert pack(fields) == expected
        reader = BitReader(expected)
        for value, nbits in fields:
            assert reader.read(nbits) == value
        assert reader.padding_is_clean()


class TestCastoreStructure:
    @pytest.mark.parametrize("k", [4, 6, 10])
    def test_repeated_symbol_logarithmic_phrases(self, k):
        _, rep = castore_encode([0] * (2**k - 1), alphabet_size=2)
        assert rep.phrase_count <= 2 * k

    def test_pair_dictionary_grows_phrases_multiplicatively(self):
        _, rep = castore_encode([0] * 62, alphabet_size=2)
        # words 00, 0000, 00000000, ... consume 2+4+8+16+32 = 62 exactly
        assert rep.phrase_count == 5


class TestDeskScaleRates:
    def test_lz78_iid_band(self):
        rng = np.random.default_rng(4)
        for n_sym, entropy in ((2, 1.0), (16, 4.0)):
            symbols = rng.integers(0, n_sym, size=200_000, dtype=np.int32)
            _, rep = lz78_encode(symbols, alphabet_size=n_sym)
            assert 0.95 * entropy <= rep.rate <= 1.3 * entropy

    def test_lz78_rate_cap(self):
        rng = np.random.default_rng(5)
        for n_sym in (2, 16):
            symbols = rng.integers(0, n_sym, size=100_000, dtype=np.int32)
            _, rep = lz78_encode(symbols, alphabet_size=n_sym)
            assert rep.rate <= math.log2(n_sym) + 0.5

    def test_castore_iid_bits_envelope(self):
        # the pair-concatenation dictionary is not prefix closed, so its
        # matches run shorter than the trie depth; measured redundancy on
        # fair bits at this scale sits near 42%
        rng = np.random.default_rng(6)
        symbols = rng.integers(0, 2, size=1_000_000, dtype=np.int32)
        _, rep = castore_encode(symbols, alphabet_size=2)
        assert 1.25 <= rep.rate <= 1.55

