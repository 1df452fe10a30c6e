// Lossless section codec for fused training frames (ReducePartial).
//
// Training ships a child's *entire* per-phase contribution — every class
// (and batch) accumulator — as the sections of one frame. Owning
// the whole contribution is what unlocks bytes the per-message path cannot
// reach: the per-message codec (envelope.cpp write_accum) must size every
// lane to the worst-case magnitude of its one accumulator, while this codec
// re-encodes all sections as a unit and picks, per message, the cheaper of
// two lossless representations:
//
//  * frame of reference (FOR): per section, values travel as fixed-width
//    offsets (v - vmin) / step with step = 2 when every value shares one
//    parity. Leaf bundles always do — a bundle of n bipolar samples has
//    every lane congruent to n mod 2 — which recovers a full bit per lane.
//  * canonical Huffman: values zigzag to symbols and one code-length table,
//    amortized over all sections of the message, prices each symbol by its
//    actual frequency. Internal-node accumulators (bell-shaped after the
//    aggregator's rescale) compress well below their fixed-width cost.
//
// The mode is the deterministic argmin of encoded size (ties resolve to
// FOR), so encoding is a pure function of the section values — the same
// contribution always costs the same bytes. Both modes are exactly
// invertible: decode(encode(x)) == x bit for bit, so fusing a contribution
// never changes the models it trains (pinned by tests/test_collective.cpp).
//
// Only section *bodies* live here (mode byte, side information, packed
// bits). Counts and dimensions are structural framing written by the
// envelope codec, mirroring how write_accum's dim/width prefix is excluded
// from the canonical wire_size accounting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hdc/hypervector.hpp"
#include "wire_format.hpp"

namespace edgehd::proto {

/// How the sections of one frame are entropy-coded (the first body byte).
enum class SectionMode : std::uint8_t {
  kFrameOfReference = 0,
  kHuffman = 1,
};

/// Huffman symbol-space cap: zigzag symbols at or beyond this fall back to
/// FOR (the table is a dense length array; an unbounded alphabet would let
/// one outlier lane buy a 4-billion-entry table).
inline constexpr std::size_t kMaxHuffSymbols = 4096;

/// Longest admissible canonical code (decoder rejects longer).
inline constexpr std::uint32_t kMaxHuffCodeLen = 32;

/// Appends the encoded section bodies to `w`: one mode byte, then the
/// mode-specific side information and packed bits (each section's bit run
/// is zero-padded to a byte boundary). Deterministic: parameters and mode
/// are the argmin of encoded size. Returns the bytes appended, which equal
/// sections_wire_size(sections) (one plan serves both).
std::uint64_t write_sections(ByteWriter& w,
                             std::span<const hdc::AccumHV> sections);

/// Strict inverse of write_sections. `dims[i]` is section i's expected
/// dimensionality (framed by the caller). Returns false on any structural
/// violation — unknown mode, out-of-range parameters, an incomplete Huffman
/// table, a decoded value outside int32, nonzero pad bits, or truncation —
/// and never reads past `r` or allocates beyond the framed dimensions.
bool read_sections(ByteReader& r, std::span<const std::uint32_t> dims,
                   std::vector<hdc::AccumHV>& out);

/// Exact byte count write_sections will produce for `sections` — the
/// canonical wire_size of a ReducePartial message.
std::uint64_t sections_wire_size(
    std::span<const hdc::AccumHV> sections) noexcept;

}  // namespace edgehd::proto
