// Packed-word hypervector representations for the popcount compute path.
//
// Three packed forms, all sharing the wire.cpp bit layout (component i ->
// bit i % 64 of word i / 64, little-endian bytes on the wire):
//
//   * PackedHV     — one bit per component of a strictly bipolar
//                    hypervector (+1 -> 1, -1 -> 0). XOR+popcount gives
//                    hamming/dot (SHEARer-style binary inference).
//   * PackedQuery  — two masks (pos / neg) so the tri-state "silence"
//                    convention of degraded operation (zero components from
//                    crashed subtrees, Figure-12 erasures) is representable:
//                    a zero component sets neither bit and contributes
//                    nothing to any dot product, exactly like the scalar
//                    multiply-accumulate.
//   * PackedPlanes — an int32 class accumulator decomposed into
//                    two's-complement bit planes; sum_i a_i * c_i collapses
//                    to one AND+popcount pass per plane per mask, which is
//                    what makes classifier predict popcount-bound.
//
// All conversions are deterministic and exact; dot products computed on the
// packed forms equal the scalar int64 reference bit-for-bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "../hypervector.hpp"
#include "kernels.hpp"

namespace edgehd::hdc::kernels {

/// A strictly bipolar hypervector at 1 bit per component.
struct PackedHV {
  std::size_t dim = 0;
  std::vector<std::uint64_t> words;
};

/// A possibly tri-state query: pos/neg sign masks (zero components set
/// neither bit).
struct PackedQuery {
  std::size_t dim = 0;
  std::vector<std::uint64_t> pos;
  std::vector<std::uint64_t> neg;
};

/// Most planes an int32 accumulator needs: INT32_MIN has magnitude 2^31, so
/// the wire width rule (sign bit + magnitude bits) gives 33.
inline constexpr std::size_t kMaxPlanes = 33;

/// An int32 accumulator as `nplanes` two's-complement bit planes
/// (plane-major: plane b occupies words [b * packed_words(dim), ...)).
/// Any nplanes in [2, kMaxPlanes] wide enough for every value is a valid
/// decomposition: planes above the narrowest fitting width are copies of the
/// sign plane, and planes_dot / update_plane_columns read them as such.
struct PackedPlanes {
  std::size_t dim = 0;
  std::size_t nplanes = 0;
  std::vector<std::uint64_t> planes;
};

/// Packs a bipolar hypervector (components > 0 set the bit; zeros and
/// negatives clear it — callers needing zeros preserved use pack_query).
PackedHV pack_hv(std::span<const std::int8_t> hv);

/// Inverse of pack_hv: set bit -> +1, clear bit -> -1.
BipolarHV unpack_hv(const PackedHV& p);

/// Packs a tri-state query into pos/neg sign masks.
PackedQuery pack_query(std::span<const std::int8_t> hv);

/// Dot product of two packed strictly-bipolar hypervectors:
/// dim - 2 * popcount(a XOR b). Equals hdc::dot on the unpacked vectors.
std::int64_t packed_dot(const PackedHV& a, const PackedHV& b);

/// Normalized hamming distance in [0, 1]; 0 for empty vectors.
double packed_hamming(const PackedHV& a, const PackedHV& b);

/// Decomposes an int32 accumulator into bit planes. The plane count is
/// wire.cpp's bits_for_magnitude(max |acc_i|) — the same width the wire
/// codec would ship the accumulator at.
PackedPlanes build_planes(std::span<const std::int32_t> acc);

/// sum_i q_i * acc_i as exact int64 (the classifier's similarity numerator).
std::int64_t planes_dot(const PackedQuery& q, const PackedPlanes& p);

/// In-place bundling: adds sign * q_i (sign = +1 or -1) to every component
/// of the packed accumulator, where q is the tri-state query with sign masks
/// pos / neg (packed_words(p.dim) words each, as in PackedQuery) — the
/// perceptron update C += H / C -= H — without rebuilding the planes. A
/// word-wise ripple carry (pos mask) and borrow (neg mask) runs through the
/// two's-complement planes,
/// stopping once neither propagates, so the cost is O(words × nplanes) at
/// worst and usually a few planes per word. When a component leaves the
/// current width (it was 2^(nplanes-1) - 1 and gained 1, or -2^(nplanes-1)
/// and lost 1) the planes grow by one sign-extension plane, so the result
/// is always exactly the updated accumulator; starting from int32 values
/// the planes never grow past kMaxPlanes. Throws std::invalid_argument on a
/// mask length mismatch or a sign other than ±1.
void planes_add(PackedPlanes& p, std::span<const std::uint64_t> pos,
                std::span<const std::uint64_t> neg, int sign);

/// In-place column update: sets component dims[j] of the packed accumulator
/// to vals[j] without rebuilding the planes (a DimensionPatch touches k << D
/// columns). All-or-nothing: returns false — leaving `p` untouched — when
/// any value does not fit `p.nplanes`-bit two's complement, in which case
/// the caller must rebuild via build_planes (the plane count can only be
/// chosen from the full accumulator).
bool update_plane_columns(PackedPlanes& p, std::span<const std::uint32_t> dims,
                          std::span<const std::int32_t> vals);

/// Serializes packed words to the wire byte layout (little-endian words,
/// identical bytes to wire.cpp's pack_bipolar). `out` must hold
/// (dim + 7) / 8 bytes.
void packed_to_bytes(const PackedHV& p, std::uint8_t* out);

/// Rebuilds a PackedHV from wire bytes (inverse of packed_to_bytes; padding
/// bits in the final word are zeroed).
PackedHV packed_from_bytes(std::span<const std::uint8_t> bytes,
                           std::size_t dim);

}  // namespace edgehd::hdc::kernels
