// Versioned, length-prefixed wire envelopes for proto messages.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       2     magic "EP"
//   2       1     version (kProtoVersion)
//   3       1     message type (MsgType)
//   4       4     source node id
//   8       4     destination node id
//   12      4     payload length in bytes
//   16      ...   payload (type-specific, see messages.hpp)
//
// Payload encodings reuse the hdc wire conventions: bipolar hypervectors are
// bit-packed at 1 bit/dimension (hdc::pack_bipolar), single integer
// accumulators are bit-packed two's-complement at bits_for_magnitude()
// width, and class sets (ReducePartial, StateSync) are section-coded as a
// unit (section_codec.hpp) — so an encoded payload is exactly wire_size(msg)
// bytes plus small fixed framing (counts, dimensions, widths).
//
// decode() is total: any truncated, corrupt or version-mismatched buffer
// yields a typed DecodeError (never UB, never an unbounded allocation). The
// corpus sweep in tests/test_proto.cpp pins this.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "messages.hpp"
#include "net/topology.hpp"

namespace edgehd::proto {

/// Current envelope version; decoding any other value is a typed error
/// (kBadVersion), which is how incompatible deployments fail closed.
inline constexpr std::uint8_t kProtoVersion = 1;

/// Fixed envelope header size in bytes.
inline constexpr std::size_t kHeaderSize = 16;

/// Dimensionality cap enforced during decode: a corrupt length field may
/// not drive an unbounded allocation.
inline constexpr std::size_t kMaxWireDim = std::size_t{1} << 24;

/// One addressed, typed message.
struct Envelope {
  std::uint8_t version = kProtoVersion;
  net::NodeId src = net::kNoNode;
  net::NodeId dst = net::kNoNode;
  Message msg;
};

/// Why a decode failed. kNone means success.
enum class DecodeError : std::uint8_t {
  kNone = 0,
  kTruncatedHeader,   ///< fewer than kHeaderSize bytes
  kBadMagic,          ///< first two bytes are not "EP"
  kBadVersion,        ///< version byte != kProtoVersion
  kBadType,           ///< type byte is not a known MsgType
  kLengthMismatch,    ///< header claims less payload than the buffer holds
  kTruncatedPayload,  ///< header claims more payload than the buffer holds
  kCorruptPayload,    ///< payload structure invalid (bad width, short body,
                      ///< out-of-range values, trailing bytes)
};

const char* to_string(DecodeError err) noexcept;

/// Result of a decode attempt; `envelope` is meaningful only when ok().
struct DecodeResult {
  Envelope envelope;
  DecodeError error = DecodeError::kNone;

  bool ok() const noexcept { return error == DecodeError::kNone; }
};

/// Serializes an envelope (header + typed payload). When `wire` is
/// non-null it also receives wire_size(env.msg), taken from the section plan
/// the payload was written with, so a sender that both encodes and charges
/// a class set plans it once.
std::vector<std::uint8_t> encode(const Envelope& env,
                                 std::uint64_t* wire = nullptr);

/// Parses an envelope with strict bounds checking. Every failure mode maps
/// to a DecodeError; the function never throws on malformed input and never
/// reads outside `buf`.
DecodeResult decode(std::span<const std::uint8_t> buf);

}  // namespace edgehd::proto
