"""Self-contained dictionary compressors used as entropy-rate estimators.

Two reversible coders over an alphabet {0..N-1} share one stream format:

* ``lz78``  - incremental parsing.  Phrase k extends a previous phrase (its
  parent, one of the k phrases 0..k-1, 0 being the empty phrase) by one
  symbol.  The parent index is written in a phase-in (truncated binary) code
  over its k possible values.  The parse never extends a parent by a symbol
  it has already been extended by, so the extension symbol is written as its
  rank among the parent's m unused symbols, phase-in coded over m values:
  0 bits once only one symbol is left.  A final partial phrase is emitted as
  a bare parent index; the decoder recognizes it because the header carries
  the symbol count.

  The encoder works in two passes.  The parse grows the trie and nothing
  else; phrase k's trie edge is the k-th key inserted, so the edges give
  every phrase's (parent, symbol) pair in order.  The fields are then coded
  in numpy.  The parent's unused symbols at phrase k are all symbols but
  those of the earlier phrases with the same parent, so the symbol's rank
  among them is s - smaller[k] over N - older[k] values, where older[k]
  counts those earlier siblings and smaller[k] the ones with a symbol below
  s.  Neither needs the parse's state: a stable sort by parent gives older,
  and a merge sort of each sibling group by symbol gives smaller.

  The decoder works in two passes too.  The first reads the records; the
  width of a rank needs only the parent's child count so far.  The second
  turns ranks into symbols for all sibling groups at once, by the same
  merge levels run backwards, and then the phrases are copied out.

* ``castore`` - pair concatenation.  The dictionary is seeded with the N
  single symbols; each step greedily matches the longest dictionary word u,
  then the longest dictionary word v of the remainder, emits the two indices
  and adds u+v as a new word.  Index fields are ceil(log2(D+1)) bits for the
  current dictionary size D; index 0 is reserved to mark a final phrase with
  no second component.

  The encoder works in two passes as well.  The parse walks and grows the
  trie and records, per phrase, the nodes of u, v and the new word u+v.
  The u-walk runs on past u to where the trie ends, which is as far into v
  as u+v already exists, so the insert only adds nodes from there.  A
  word's index is the order in which its node became a word, so the
  indices and the records' widths, ceil(log2(N+k+1)) bits for phrase k,
  are then computed in numpy.  Since every width is known in advance, the
  decoder unpacks the fields of many records at once in numpy and then
  checks and copies out the words record by record.

A phase-in code over n values with b = floor(log2 n) and u = 2**(b+1) - n
writes a value x < u in b bits and any other x as x + u in b + 1 bits.

Both encoders hand their records to :func:`_pack_fields` as (value, width)
arrays, which packs them all at once.

Stream layout: 16-byte little-endian header (magic ``EPSC``, version byte 2,
alphabet size as u16, symbol count as u64, algorithm id byte), then the
phrase records, then zero padding to a byte boundary.  Reported
``encoded_bits`` include the header.  These are estimators, not archivers:
there is no entropy-coding stage, by design.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .partition import SymbolicSequence

MAGIC = b"EPSC"
VERSION = 2
HEADER_BYTES = 16
HEADER_BITS = HEADER_BYTES * 8
MAX_ALPHABET = 0xFFFF  # the header stores the alphabet size as u16
# longest sequence a stream may hold: a castore record can double the output,
# so a short forged stream would otherwise declare and expand to any length.
# It also bounds both dictionaries: each lz78 phrase and each new castore trie
# node consumes an input symbol, so neither holds more than n + N entries.
MAX_SYMBOLS = 1 << 24
# castore's walks read one symbol past the input; no trie key is negative
_SENTINEL = -(1 << 62)
# stream bytes per step of the lz78 decoder's bit windows, and castore
# records unpacked per step at most
_WINDOW_BYTES = 1 << 12
_RECORD_CHUNK = 1 << 16


class DecodeError(ValueError):
    """Malformed or truncated compressed stream."""


@dataclass(frozen=True)
class CompressionReport:
    """Summary of one encode: sizes and rate."""

    input_len: int
    phrase_count: int
    encoded_bits: int
    rate: float
    algorithm: str


def _pack_fields(values: np.ndarray, widths: np.ndarray) -> bytes:
    """The fields (values[i], widths[i]) of 0 to 64 bits each, big-endian in
    order, zero-padded to a byte boundary."""
    values = np.asarray(values)
    widths = np.asarray(widths, dtype=np.int64)
    if values.shape != widths.shape:
        raise ValueError(f"{values.size} values for {widths.size} widths")
    bad = (widths < 0) | (widths > 64)
    if bad.any():
        raise ValueError(f"field width {widths[bad][0]} outside [0, 64]")
    wide = values.astype(np.uint64)
    shift = np.minimum(widths, 63).astype(np.uint64)
    bad = (values < 0) | ((wide >> shift != 0) & (widths < 64))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"value {values[i]} does not fit in {widths[i]} bits")
    ends = np.cumsum(widths)
    total = int(ends[-1]) if ends.size else 0
    # words[k] holds stream bits 64(k-1) .. 64k-1, big-endian; words[0] is
    # spare, for the 0 of a zero-width field at bit 0.  A field's last bit
    # lands in words[word], `shift` bits above its least significant bit
    shift = -ends & 63
    word = (ends + shift) >> 6
    words = np.zeros(((total + 63) >> 6) + 1, dtype=np.uint64)
    np.add.at(words, word, wide << shift.astype(np.uint64))
    # the high bits of a field that starts in the word before
    spill = widths > 64 - shift
    np.add.at(words, word[spill] - 1, wide[spill] >> (64 - shift[spill]).astype(np.uint64))
    return words[1:].astype(">u8").tobytes()[: (total + 7) >> 3]


def _pack_header(alphabet_size: int, input_len: int, algorithm: str) -> bytes:
    return struct.pack(
        "<4sBHQB", MAGIC, VERSION, alphabet_size, input_len, ALGORITHMS.index(algorithm)
    )


def _unpack_header(data: bytes) -> tuple[int, int, str]:
    if len(data) < HEADER_BYTES:
        raise DecodeError(f"stream shorter than the {HEADER_BYTES}-byte header")
    magic, version, alphabet_size, input_len, algo_id = struct.unpack(
        "<4sBHQB", data[:HEADER_BYTES]
    )
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r} at byte 0")
    if version != VERSION:
        raise DecodeError(
            f"unsupported version {version} at byte 4 (this decoder reads version {VERSION})"
        )
    if alphabet_size < 2:
        raise DecodeError(f"alphabet size {alphabet_size} invalid at byte 5")
    if input_len > MAX_SYMBOLS:
        raise DecodeError(f"symbol count {input_len} at byte 7 exceeds the limit of {MAX_SYMBOLS}")
    if algo_id >= len(ALGORITHMS):
        raise DecodeError(f"unknown algorithm id {algo_id} at byte 15")
    return alphabet_size, input_len, ALGORITHMS[algo_id]


def _as_symbols(seq: SymbolicSequence) -> tuple[np.ndarray, int]:
    """An encoder's input as int32 symbols and an alphabet size the stream can hold.

    The sizes are checked here; the symbols' dtype and range are checked by
    :class:`SymbolicSequence`.
    """
    if not isinstance(seq, SymbolicSequence):
        raise TypeError(f"the coders take a SymbolicSequence, not {type(seq).__name__}")
    if not 2 <= seq.alphabet_size <= MAX_ALPHABET:
        raise ValueError(f"alphabet size {seq.alphabet_size} outside [2, {MAX_ALPHABET}]")
    if len(seq) > MAX_SYMBOLS:
        raise ValueError(f"{len(seq)} symbols exceed the stream limit of {MAX_SYMBOLS}")
    return seq.symbols, seq.alphabet_size


def _finish(
    values: np.ndarray, widths: np.ndarray, nsym: int, symbols: np.ndarray, algorithm: str
) -> tuple[bytes, CompressionReport]:
    """The stream (header + one record per phrase) and the report of one encode."""
    stream = _pack_header(nsym, symbols.size, algorithm) + _pack_fields(values, widths)
    encoded_bits = HEADER_BITS + int(widths.sum())
    report = CompressionReport(
        input_len=int(symbols.size),
        phrase_count=int(values.size),
        encoded_bits=encoded_bits,
        rate=encoded_bits / symbols.size if symbols.size else 0.0,
        algorithm=algorithm,
    )
    return stream, report


def _phase_in(x: np.ndarray | int, n: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """(code, bit count) of x in the phase-in code over n values, elementwise."""
    b = np.frexp(n)[1] - 1
    u = (2 << b) - n
    long = x >= u
    return x + u * long, b + long


def _sibling_order(parents: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grouped, older, group): the phrases grouped by parent in phrase order,
    each phrase's place in its sibling group, and the size of its group."""
    count = parents.size
    sizes = np.bincount(parents)
    # the stable order by parent; unique keys let the faster unstable sort do it
    grouped = np.argsort(parents.astype(np.int64) << 32 | np.arange(count))
    older = np.empty(count, dtype=np.int32)
    older[grouped] = np.arange(count) - (np.cumsum(sizes) - sizes)[parents[grouped]]
    return grouped, older, sizes[parents]


def _earlier_siblings(parents: np.ndarray, syms: np.ndarray, nsym: int) -> tuple[np.ndarray, np.ndarray]:
    """Per phrase k: (older[k], smaller[k]) over the earlier phrases with k's parent.

    older counts them all, smaller those with a smaller extension symbol.
    Grouped by parent in phrase order, older is k's position in its sibling
    group.  smaller is summed level by level, as in a bottom-up merge sort
    of each group by symbol over blocks of B = 1, 2, 4, ... phrases: a phrase
    in the right half of a 2B-block has as many left-half siblings with a
    smaller symbol as its symbol rank rises from its B-block to its
    2B-block.  One argsort per level ranks all 2B-blocks at once.  Only
    groups larger than B stay live at level B; a group holds at most nsym
    phrases, so there are at most ceil(log2 nsym) levels.
    """
    grouped, older, group = _sibling_order(parents)
    smaller = np.zeros(parents.size, dtype=np.int32)
    live = grouped[group[grouped] > 1]
    rank = np.zeros(live.size, dtype=np.int64)  # by symbol within the B-block
    block = 1
    while live.size:
        pos = older[live]
        at = np.arange(live.size)
        # a live phrase's 2B-block starts `offset` places before it in `live`;
        # sorting by (block start, symbol) keeps every block in its places
        offset = pos & (2 * block - 1)
        new_rank = np.empty_like(at)
        new_rank[np.argsort((at - offset) * nsym + syms[live])] = at
        new_rank += offset - at
        right = (pos & block) != 0
        smaller[live[right]] += (new_rank - rank)[right]
        block *= 2
        keep = group[live] > block
        live, rank = live[keep], new_rank[keep]
    return older, smaller


def _ranked_symbols(parents: np.ndarray, ranks: np.ndarray, nsym: int) -> np.ndarray:
    """Per phrase k, the symbol s with s - smaller[k] == ranks[k]: the inverse
    of :func:`_earlier_siblings`.

    The merge runs over the same blocks of B = 1, 2, 4, ... siblings.  At
    level B, x[k] is k's rank among the symbols that no sibling before k's
    B-block took: the rank read from the stream at B = 1, the symbol once the
    block holds the whole group.  Joining two B-blocks leaves the left half's
    x as it is.  A right-half x counts free symbols, so it moves up by the
    left-half picks at or below the one it names.  The l-th smallest left
    pick y has y - l free symbols below it, so it is one of them when
    y - l <= x.  One sort orders every block's left picks, and one
    searchsorted counts them for every right half.
    """
    grouped, older, group = _sibling_order(parents)
    x = ranks.astype(np.int64)
    live = grouped[group[grouped] > 1]
    block = 1
    while live.size:
        place = older[live] & (2 * block - 1)  # in the 2B-block
        # sorting by (block start in `live`, value) keeps each block's left
        # picks in the places its left phrases hold, so a sorted pick's
        # `place` is its index l among them
        start = (np.arange(live.size) - place) * nsym
        left = place < block
        picks = np.sort(start[left] + x[live[left]]) - place[left]
        right = ~left
        # a right half's block has a full left half, so `block` of the left
        # phrases before it are its own
        before = np.cumsum(left)[right] - block
        moved = live[right]
        x[moved] += np.searchsorted(picks, start[right] + x[moved], "right") - before
        block *= 2
        live = live[group[live] > block]
    return x


def lz78_encode(seq: SymbolicSequence) -> tuple[bytes, CompressionReport]:
    """Incremental-parse encode; returns the bitstream and its report."""
    symbols, nsym = _as_symbols(seq)
    # pass 1, the parse: edge (phrase, symbol s) is keyed phrase * nsym + s
    # and maps to the child's own base key, child phrase * nsym
    trie: dict[int, int] = {}
    get = trie.get
    node = 0
    base = nsym  # base key of the next new phrase
    for s in memoryview(symbols):
        key = node + s
        node = get(key, 0)
        if not node:  # a new phrase; the next one starts at the root, key 0
            trie[key] = base
            base += nsym
    # phrase k's edge is the k-th key inserted
    edges = np.fromiter(trie, dtype=np.int64, count=len(trie))
    del trie, get
    parents, syms = (part.astype(np.int32) for part in np.divmod(edges, nsym))
    del edges

    # pass 2, the fields: phrase k's parent over k values, then its symbol's
    # rank among the parent's unused symbols
    older, smaller = _earlier_siblings(parents, syms, nsym)
    code, width = _phase_in(parents, np.arange(1, parents.size + 1, dtype=np.int32))
    rank, rank_width = _phase_in(syms - smaller, nsym - older)
    del older, smaller, parents, syms
    values = code.astype(np.uint64) << rank_width.astype(np.uint64) | rank.astype(np.uint64)
    widths = width + rank_width
    if node:  # a final partial phrase: its parent index alone
        last, last_width = _phase_in(node // nsym, base // nsym)
        values = np.append(values, np.uint64(last))
        widths = np.append(widths, last_width)
    return _finish(values, widths, nsym, symbols, "lz78")


def _windows(octets: np.ndarray, at: np.ndarray, size: int) -> np.ndarray:
    """Per byte offset in `at`, the `size` <= 7 bytes of octets from there on
    as one big-endian int."""
    window = np.zeros(at.size, dtype=np.int64)
    for j in range(size):
        window = window << 8 | octets[at + j]
    return window


def _lz78_decode_body(octets: np.ndarray, total: int, nsym: int, input_len: int) -> tuple[np.ndarray, int]:
    """The symbols of an lz78 stream body and the bit its last record ends at."""
    pos = HEADER_BITS
    # pass 1, the records: per phrase its parent and its symbol's rank.  The
    # rank is phase-in coded over the nsym - c symbols its parent has not
    # been extended by, c being the parent's children so far
    parents = array("i")
    ranks = array("i")
    lengths = [0]  # per phrase; 0 is the empty phrase
    children = [0]  # per phrase, its children so far
    # (b, u) of the phase-in code over n values (see module doc): the rank's
    # per child count, and the parent's over k = 1, 2, ... values
    n = np.arange(nsym, 0, -1)
    rank_b = np.frexp(n)[1] - 1
    rank_code = list(zip(rank_b.tolist(), ((2 << rank_b) - n).tolist()))
    b, u, mask = 0, 1, 1
    k = 1
    decoded = 0
    final = 0  # the parent of a final partial phrase
    first = stop = 0
    windows: list[int] = []
    while decoded < input_len:
        byte = pos >> 3
        if byte >= stop:
            first, stop = byte, byte + _WINDOW_BYTES
            windows = _windows(octets, np.arange(first, min(stop, (total >> 3) + 1)), 7).tolist()
        # a record's two fields span at most 25 + 16 bits from bit 0..7 of
        # its first byte, so that byte's 56-bit window holds the whole record
        window = windows[byte - first]
        at = pos & 7  # bits into the window
        x = window >> 55 - at - b & mask
        if x >> 1 < u:
            parent = x >> 1
            at += b
        else:
            parent = x - u
            at += b + 1
        if 8 * byte + at > total:
            raise DecodeError(f"stream truncated at byte {byte}")
        length = lengths[parent]
        if decoded + length >= input_len:
            if decoded + length > input_len:
                raise DecodeError(f"final phrase overruns declared length {input_len}")
            final = parent
            pos = 8 * byte + at
            break
        c = children[parent]
        if c == nsym:
            raise DecodeError(f"phrase {k} extends parent {parent}, which has no unused symbol")
        rb, ru = rank_code[c]
        x = window >> 55 - at - rb & (2 << rb) - 1
        if x >> 1 < ru:
            ranks.append(x >> 1)
            pos = 8 * byte + at + rb
        else:
            ranks.append(x - ru)
            pos = 8 * byte + at + rb + 1
        if pos > total:
            raise DecodeError(f"stream truncated at byte {(8 * byte + at) >> 3}")
        parents.append(parent)
        children[parent] = c + 1
        children.append(0)
        lengths.append(length + 1)
        decoded += length + 1
        k += 1
        u -= 1
        if not u:  # k reached 2^(b+1)
            b += 1
            u = k
            mask = (2 << b) - 1
    del children, windows

    # pass 2, the symbols, offline per sibling group; then the phrases, each
    # its parent's phrase and its symbol
    syms = _ranked_symbols(np.frombuffer(parents, dtype=np.int32), np.frombuffer(ranks, dtype=np.int32), nsym)
    out = array("i")
    # per phrase, where it begins in out
    starts = [0, *accumulate(lengths[1:-1], initial=0)]
    for parent, s in zip(parents, syms.tolist()):
        start = starts[parent]
        out += out[start : start + lengths[parent]]
        out.append(s)
    if final:
        start = starts[final]
        out += out[start : start + lengths[final]]
    return np.frombuffer(out, dtype=np.int32), pos


def castore_encode(seq: SymbolicSequence) -> tuple[bytes, CompressionReport]:
    """Pair-concatenation encode; returns the bitstream and its report."""
    symbols, nsym = _as_symbols(seq)
    n = symbols.size
    # a sentinel past the end forms no key, so the walks need no bounds test
    syms = symbols.tolist()
    syms.append(_SENTINEL)
    # pass 1, the parse: edge (node, symbol s) is keyed node * nsym + s and
    # maps to the child's base key, child node * nsym, negated when the child
    # ends a dictionary word.  Nodes 1..nsym are the single symbols.
    trie = {s: -(s + 1) * nsym for s in range(nsym)}
    get = trie.get
    next_base = (nsym + 1) * nsym
    # per phrase, the base keys of u's node, v's node and the new word's node;
    # a final phrase with no v gives u's and 0
    nodes = array("q")
    put = nodes.append
    pos = 0
    while pos < n:
        # u: the longest word at pos; the walk goes on to where the trie ends
        base = 0
        j = pos
        while True:
            child = get(base + syms[j])
            if child is None:
                break
            j += 1
            if child < 0:
                base = u = -child
                u_end = j
            else:
                base = child
        if u_end == n:
            put(u)
            put(0)
            break
        stop, stop_base = j, base
        # v: the longest word after u
        base = 0
        j = u_end
        while True:
            child = get(base + syms[j])
            if child is None:
                break
            j += 1
            if child < 0:
                base = v = -child
                end = j
            else:
                base = child
        # insert u+v.  The u-walk already followed it up to `stop`, where the
        # trie ends, so past `stop` every node is new
        if end > stop:
            base = stop_base
            for j in range(stop, end - 1):
                trie[base + syms[j]] = next_base
                base = next_base
                next_base += nsym
            trie[base + syms[end - 1]] = -next_base
            word = next_base
            next_base += nsym
        else:  # u+v is an inner node: walk to it from u and make it a word
            # (no node between u and u+v is a word, or u would be longer)
            base = u
            for j in range(u_end, end - 1):
                base = trie[base + syms[j]]
            key = base + syms[end - 1]
            word = trie[key]
            trie[key] = -word
        put(u)
        put(v)
        put(word)
        pos = end
    del trie, get, syms

    # pass 2, the fields: a word's index is the order in which its node
    # became a word, and phrase k's two fields take (nsym + k).bit_length() bits
    nodes = np.frombuffer(nodes, dtype=np.int64) // nsym
    u, v, new = nodes[0::3], nodes[1::3], nodes[2::3]
    index = np.zeros(next_base // nsym, dtype=np.int64)
    index[1 : nsym + 1] = np.arange(1, nsym + 1)
    index[new] = np.arange(nsym + 1, nsym + 1 + new.size)
    width = np.frexp(np.arange(nsym, nsym + u.size, dtype=np.int64))[1]
    return _finish(index[u] << width | index[v], 2 * width, nsym, symbols, "castore")


def _fields(octets: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The big-endian fields of widths[i] <= 25 bits from bit starts[i] of octets."""
    return _windows(octets, starts >> 3, 4) >> 32 - (starts & 7) - widths & (1 << widths) - 1


def _castore_decode_body(octets: np.ndarray, total: int, nsym: int, input_len: int) -> tuple[np.ndarray, int]:
    """The symbols of a castore stream body and the bit its last record ends at."""
    # grown as the records arrive: the declared length is not trusted
    out = array("i")
    # words 1..N are the single symbols; word w > N was emitted as
    # out[starts[w] : starts[w] + lengths[w]]; a final record's v = 0 is empty
    starts = [0] * (nsym + 1)
    lengths = [0] + [1] * nsym
    size = nsym  # words in the dictionary
    decoded = 0
    pos = HEADER_BITS
    while decoded < input_len:
        # record k's two index fields hold 0..nsym + k, so every field's place
        # is known before any is read.  Unpack no more records than the bits
        # left hold, nor than the symbols left need: each record but a final
        # one emits two or more
        width = size.bit_length()
        count = min(_RECORD_CHUNK, (total - pos) // (2 * width), (input_len - decoded + 1) // 2)
        if not count:  # the next record is cut short
            if pos + width <= total:
                u = int(_fields(octets, np.array([pos]), np.array([width]))[0])
                if not 1 <= u <= size:
                    raise DecodeError(f"word index {u} outside dictionary of {size}")
                pos += width
            raise DecodeError(f"stream truncated at byte {pos >> 3}")
        widths = np.frexp(np.arange(size, size + count, dtype=np.int64))[1].astype(np.int64)
        ends = pos + 2 * np.cumsum(widths)
        count = int(np.searchsorted(ends, total, "right"))  # the records that fit
        widths, ends = widths[:count], ends[:count]
        at = ends - 2 * widths
        fields = _fields(octets, np.column_stack([at, at + widths]).ravel(), np.repeat(widths, 2))
        first = size
        for u, v in zip(fields[0::2].tolist(), fields[1::2].tolist()):
            if not 1 <= u <= size:
                raise DecodeError(f"word index {u} outside dictionary of {size}")
            if v > size:
                raise DecodeError(f"word index {v} outside dictionary of {size}")
            n = lengths[u] + lengths[v]
            if not v and decoded + n != input_len:
                raise DecodeError("final phrase does not close the declared length")
            if decoded + n > input_len:
                raise DecodeError(f"phrase overruns declared length {input_len}")
            for word in u, v:
                if word > nsym:
                    start = starts[word]
                    out += out[start : start + lengths[word]]
                elif word:
                    out.append(word - 1)
            if not v:
                return np.frombuffer(out, dtype=np.int32), int(ends[size - first])
            starts.append(decoded)
            lengths.append(n)
            decoded += n
            size += 1
            if decoded == input_len:
                break
        pos = int(ends[size - first - 1])
    return np.frombuffer(out, dtype=np.int32), pos


# each coder's encoder, by the name a caller looks up at call time, so a name
# rebound after import (a tracing wrapper, say) is the one that runs, and the
# decoder of its stream body
CODERS = {
    "lz78": ("lz78_encode", _lz78_decode_body),
    "castore": ("castore_encode", _castore_decode_body),
}
# the header's algorithm id is the index into this tuple
ALGORITHMS = tuple(CODERS)


def decode(stream: bytes) -> tuple[SymbolicSequence, str]:
    """Decode either algorithm's stream; returns (sequence, algorithm name)."""
    alphabet_size, input_len, algorithm = _unpack_header(stream)
    total = 8 * len(stream)
    octets = np.frombuffer(stream + bytes(7), dtype=np.uint8)  # bits past the end read 0
    symbols, end = CODERS[algorithm][1](octets, total, alphabet_size, input_len)
    # only zero bits may follow the last record, and only in its final byte
    rest = total - end
    if rest >= 8 or rest and stream[-1] & (1 << rest) - 1:
        raise DecodeError("trailing data after final phrase")
    return SymbolicSequence(symbols=symbols, alphabet_size=alphabet_size), algorithm
