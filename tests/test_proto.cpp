// Unit tests for the protocol layer (src/proto): typed messages, versioned
// envelopes with strict bounds-checked decode, canonical byte accounting,
// the delivery buses, and the NodeRuntime phase state machine.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "hdc/random.hpp"
#include "hdc/wire.hpp"
#include "hier/hier_encoder.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "proto/bus.hpp"
#include "proto/envelope.hpp"
#include "proto/messages.hpp"
#include "proto/node_runtime.hpp"
#include "proto/section_codec.hpp"
#include "proto/sessions.hpp"
#include "proto/types.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace edgehd;
using proto::DecodeError;
using proto::Envelope;
using proto::Message;
using proto::MsgType;

hdc::AccumHV random_accum(std::size_t dim, std::int32_t magnitude,
                          std::uint64_t seed) {
  hdc::Rng rng(seed);
  hdc::AccumHV acc(dim);
  // 64-bit range arithmetic: magnitudes reach INT32_MAX - 1.
  const auto span = 2 * static_cast<std::size_t>(magnitude) + 1;
  for (auto& v : acc) {
    v = static_cast<std::int32_t>(static_cast<std::int64_t>(rng.index(span)) -
                                  magnitude);
  }
  return acc;
}

hdc::BipolarHV random_bipolar(std::size_t dim, std::uint64_t seed) {
  hdc::Rng rng(seed);
  hdc::BipolarHV hv(dim);
  for (auto& v : hv) v = rng.bernoulli(0.5) ? 1 : -1;
  return hv;
}

/// Accumulator with every lane congruent to `count` mod 2 — the invariant a
/// leaf bundle of `count` bipolar samples satisfies (and the case the fused
/// codec's frame-of-reference step-2 mode exploits).
hdc::AccumHV parity_accum(std::size_t dim, std::int32_t count,
                          std::uint64_t seed) {
  hdc::Rng rng(seed);
  hdc::AccumHV acc(dim);
  for (auto& v : acc) {
    v = count -
        2 * static_cast<std::int32_t>(
                rng.index(static_cast<std::size_t>(count) + 1));
  }
  return acc;
}

/// Heavily skewed accumulator (mostly zeros, rare large outliers): the case
/// where the canonical-Huffman mode beats frame of reference.
hdc::AccumHV skewed_accum(std::size_t dim, std::uint64_t seed) {
  hdc::Rng rng(seed);
  hdc::AccumHV acc(dim);
  for (auto& v : acc) {
    v = rng.bernoulli(0.95) ? 0
                            : static_cast<std::int32_t>(rng.index(201)) - 100;
  }
  return acc;
}

/// One representative envelope per message type, with payload sizes that do
/// not divide evenly into bytes (to exercise the bit-packing tails).
std::vector<Envelope> corpus() {
  std::vector<Envelope> out;
  out.push_back({proto::kProtoVersion, 4, 2,
                 proto::BatchUpdate{1, 7, random_accum(67, 32, 12)}});
  out.push_back({proto::kProtoVersion, 1, 0,
                 proto::QueryEscalate{42, 2, random_bipolar(203, 14)}});
  out.push_back({proto::kProtoVersion, 0, 6,
                 proto::QueryReply{42, 3, 0.875, 0, 3, 1}});
  out.push_back({proto::kProtoVersion, 2, 0,
                 proto::HealthProbe{0xdeadbeef, 17, 3, 0b10110}});
  out.push_back({proto::kProtoVersion, 6, 2, proto::NodeJoin{4}});
  out.push_back({proto::kProtoVersion, 6, 2, proto::NodeLeave{4, 1}});
  out.push_back({proto::kProtoVersion, 6, 2,
                 proto::StateSync{4,
                                  {random_accum(93, 12, 15),
                                   parity_accum(93, 5, 24),
                                   skewed_accum(93, 25)}}});
  // Fused training frames: one FOR-shaped (leaf-bundle parity), one
  // Huffman-shaped (skewed internal sections), one single-section edge case.
  out.push_back({proto::kProtoVersion, 7, 2,
                 proto::ReducePartial{
                     proto::kReduceInitial, 7,
                     {parity_accum(101, 9, 16), parity_accum(67, 9, 17)}}});
  out.push_back({proto::kProtoVersion, 4, 1,
                 proto::ReducePartial{
                     proto::kReduceBatch, 4,
                     {skewed_accum(203, 18), random_accum(33, 4, 19)}}});
  out.push_back({proto::kProtoVersion, 2, 5,
                 proto::ReducePartial{proto::kReduceInitial, 2,
                                      {random_accum(1, 1, 20)}}});
  // The same framing carries residual bundles and reintegration deltas.
  out.push_back({proto::kProtoVersion, 5, 2,
                 proto::ReducePartial{
                     proto::kReduceResidual, 5,
                     {random_accum(129, 3, 13), skewed_accum(129, 26)}}});
  out.push_back({proto::kProtoVersion, 3, 1,
                 proto::ReducePartial{
                     proto::kReduceReintegration, 3,
                     {random_accum(101, 500, 11), random_accum(101, 2, 27)}}});
  // Dimension-regeneration frames: the parent -> child request form (dims
  // only) and the child -> parent patch form (per-class delta columns with
  // generation counters), at sizes that exercise the packed tails.
  out.push_back({proto::kProtoVersion, 6, 2,
                 proto::DimensionPatch{3, {0, 7, 31, 100}, {}, {}}});
  out.push_back({proto::kProtoVersion, 2, 6,
                 proto::DimensionPatch{4,
                                       {1, 8, 9, 63, 64},
                                       {1, 1, 2, 1, 7},
                                       {random_accum(5, 40, 21),
                                        random_accum(5, 3, 22),
                                        skewed_accum(5, 23)}}});
  return out;
}

// ---- CommStats -------------------------------------------------------------

TEST(CommStats, PlusEqualsAccumulatesBothFields) {
  proto::CommStats a{100, 3};
  const proto::CommStats b{23, 2};
  a += b;
  EXPECT_EQ(a.bytes, 123u);
  EXPECT_EQ(a.messages, 5u);
  a += proto::CommStats{};
  EXPECT_EQ(a, (proto::CommStats{123, 5}));
  EXPECT_EQ(b + b, (proto::CommStats{46, 4}));
}

// ---- canonical byte accounting ---------------------------------------------

TEST(ProtoWireSize, ModelMessagesChargeAccumBytes) {
  const auto acc = random_accum(100, 75, 1);
  EXPECT_EQ(proto::wire_size(proto::BatchUpdate{0, 0, acc}),
            hdc::wire_bytes_accum(acc));
}

TEST(ProtoWireSize, QueryMessagesChargeBipolarAndFixedReply) {
  EXPECT_EQ(proto::wire_size(proto::QueryEscalate{0, 0, random_bipolar(777, 2)}),
            hdc::wire_bytes_bipolar(777));
  // query id + label + confidence + serving node + level + degraded flag.
  EXPECT_EQ(proto::wire_size(proto::QueryReply{}), 8u + 4 + 8 + 8 + 4 + 1);
}

TEST(ProtoWireSize, MembershipMessagesChargeControlFrames) {
  // nonce + timestamp + incarnation + suspicion bitmask.
  EXPECT_EQ(proto::wire_size(proto::HealthProbe{}), 32u);
  EXPECT_EQ(proto::wire_size(proto::NodeJoin{}), 8u);
  EXPECT_EQ(proto::wire_size(proto::NodeLeave{}), 9u);
  // StateSync is the 8-byte incarnation tag plus section-coded bodies,
  // framed like ReducePartial.
  const std::vector<hdc::AccumHV> sections{random_accum(100, 75, 1),
                                           parity_accum(100, 7, 2)};
  const proto::StateSync sync{1, sections};
  EXPECT_EQ(proto::wire_size(sync), 8u + proto::sections_wire_size(sections));
  const auto buf = proto::encode(Envelope{proto::kProtoVersion, 3, 1, sync});
  const std::uint64_t framing = 4 + 4 * sections.size();  // count + dims
  EXPECT_EQ(proto::wire_size(sync), buf.size() - proto::kHeaderSize - framing);
}

TEST(ProtoWireSize, ReducePartialChargesEntropyCodedBodiesOnly) {
  // Canonical accounting for a fused frame is exactly the entropy-coded
  // section bodies; phase/origin/count/dims are structural framing excluded
  // from wire_size, mirroring write_accum's dim/width prefix.
  const proto::ReducePartial rp{
      proto::kReduceInitial, 3,
      {parity_accum(101, 6, 41), random_accum(67, 9, 42)}};
  const auto buf =
      proto::encode(Envelope{proto::kProtoVersion, 3, 1, rp});
  const std::uint64_t framing = 1 + 4 + 4 + 4 * rp.sections.size();
  EXPECT_EQ(proto::wire_size(rp),
            proto::sections_wire_size(rp.sections));
  EXPECT_EQ(proto::wire_size(rp), buf.size() - proto::kHeaderSize - framing);
}

TEST(ProtoWireSize, ParityLeafFramesBeatPerAccumPacking) {
  // A leaf's fused batch frame: every lane ≡ n (mod 2), so FOR's step-2 mode
  // recovers a bit per lane and the fused frame undercuts the per-accum
  // packing the point-to-point schedule would be charged.
  std::vector<hdc::AccumHV> sections;
  std::uint64_t per_accum = 0;
  for (int c = 0; c < 4; ++c) {
    sections.push_back(parity_accum(500, 9, 50 + static_cast<std::uint64_t>(c)));
    per_accum += hdc::wire_bytes_accum(sections.back());
  }
  EXPECT_LT(proto::sections_wire_size(sections), per_accum);
}

TEST(ProtoWireSize, SkewedFramesCompressViaHuffman) {
  // Mostly-zero sections with rare outliers: FOR must width every lane for
  // the outlier, Huffman prices by frequency. The fused frame wins big.
  std::vector<hdc::AccumHV> sections{skewed_accum(1000, 60),
                                     skewed_accum(1000, 61)};
  std::uint64_t per_accum = 0;
  for (const auto& s : sections) per_accum += hdc::wire_bytes_accum(s);
  EXPECT_LT(proto::sections_wire_size(sections), per_accum / 2);
}

TEST(ProtoWireSize, CompressedQueryMatchesPaperFormula) {
  // m <= 1: plain packed bits.
  EXPECT_EQ(proto::compressed_query_wire_size(4000, 0),
            hdc::wire_bytes_bipolar(4000));
  EXPECT_EQ(proto::compressed_query_wire_size(4000, 1),
            hdc::wire_bytes_bipolar(4000));
  // m-to-1 bundling: entries grow to |v| <= m, bytes amortize over m members.
  for (const std::size_t m : {2u, 8u, 32u}) {
    const auto bits = hdc::bits_for_magnitude(static_cast<std::int64_t>(m));
    const auto expect = (hdc::wire_bytes_accum(4000, bits) + m - 1) / m;
    EXPECT_EQ(proto::compressed_query_wire_size(4000, m), expect);
  }
  // The formula's crossover: 2-to-1 bundling costs *more* than separate
  // packed queries (3-bit entries amortized over 2), break-even at m = 4,
  // and a win beyond — matching the paper's preference for larger m.
  EXPECT_GT(proto::compressed_query_wire_size(4000, 2),
            hdc::wire_bytes_bipolar(4000));
  EXPECT_EQ(proto::compressed_query_wire_size(4000, 4),
            hdc::wire_bytes_bipolar(4000));
  for (std::size_t m = 8; m <= 64; m *= 2) {
    EXPECT_LT(proto::compressed_query_wire_size(4000, m),
              hdc::wire_bytes_bipolar(4000));
  }
}

TEST(ProtoMessages, TypeNamesAreStable) {
  EXPECT_STREQ(proto::to_string(MsgType::kBatchUpdate), "batch_update");
  EXPECT_STREQ(proto::to_string(MsgType::kQueryEscalate), "query_escalate");
  EXPECT_STREQ(proto::to_string(MsgType::kQueryReply), "query_reply");
  EXPECT_STREQ(proto::to_string(MsgType::kHealthProbe), "health_probe");
  EXPECT_STREQ(proto::to_string(MsgType::kNodeJoin), "node_join");
  EXPECT_STREQ(proto::to_string(MsgType::kNodeLeave), "node_leave");
  EXPECT_STREQ(proto::to_string(MsgType::kStateSync), "state_sync");
  EXPECT_STREQ(proto::to_string(MsgType::kReducePartial), "reduce_partial");
  EXPECT_STREQ(proto::to_string(MsgType::kDimensionPatch), "dimension_patch");
}

TEST(ProtoWireSize, DimensionPatchChargesDimsGensAndColumns) {
  // Request form: 4 bytes per requested dim, nothing else (round is framing).
  EXPECT_EQ(proto::wire_size(proto::DimensionPatch{1, {3, 9, 12}, {}, {}}),
            3u * 4);
  // Patch form adds 2 bytes per generation counter plus the packed columns.
  const auto col0 = random_accum(4, 20, 70);
  const auto col1 = random_accum(4, 6, 71);
  const proto::DimensionPatch p{2, {0, 2, 5, 7}, {1, 1, 3, 1}, {col0, col1}};
  EXPECT_EQ(proto::wire_size(p), 4u * 4 + 4 * 2 +
                                     hdc::wire_bytes_accum(col0) +
                                     hdc::wire_bytes_accum(col1));
}

// ---- envelope round trips --------------------------------------------------

TEST(Envelope, EveryMessageTypeRoundTrips) {
  for (const Envelope& env : corpus()) {
    const auto buf = proto::encode(env);
    ASSERT_GE(buf.size(), proto::kHeaderSize);
    EXPECT_EQ(buf[0], 'E');
    EXPECT_EQ(buf[1], 'P');
    const auto decoded = proto::decode(buf);
    ASSERT_TRUE(decoded.ok())
        << proto::to_string(decoded.error) << " for type "
        << proto::to_string(proto::type_of(env.msg));
    EXPECT_EQ(decoded.envelope.version, env.version);
    EXPECT_EQ(decoded.envelope.src, env.src);
    EXPECT_EQ(decoded.envelope.dst, env.dst);
    EXPECT_EQ(decoded.envelope.msg, env.msg);
  }
}

TEST(Envelope, TrainingFramesAreByteStable) {
  // FNV-1a over the corpus's encoded training frames (FOR-shaped,
  // Huffman-shaped and single-section): pins the section codec's output
  // byte for byte, so a codec rewrite must reproduce it exactly.
  std::uint64_t h = 14695981039346656037ULL;
  std::size_t frames = 0;
  std::size_t huffman = 0;
  for (const Envelope& env : corpus()) {
    const auto* rp = std::get_if<proto::ReducePartial>(&env.msg);
    if (rp == nullptr || (rp->phase != proto::kReduceInitial &&
                          rp->phase != proto::kReduceBatch)) {
      continue;
    }
    const auto buf = proto::encode(env);
    // The mode byte follows phase, origin, count and one dim per section.
    const std::size_t mode_at =
        proto::kHeaderSize + 1 + 4 + 4 + 4 * rp->sections.size();
    const auto huff = static_cast<std::uint8_t>(proto::SectionMode::kHuffman);
    if (buf[mode_at] == huff) ++huffman;
    for (const std::uint8_t b : buf) {
      h ^= b;
      h *= 1099511628211ULL;
    }
    ++frames;
  }
  EXPECT_EQ(frames, 3u);
  EXPECT_EQ(huffman, 1u);
  EXPECT_EQ(h, 0x86524a480066aae6ULL);
}

TEST(Envelope, AccumRoundTripsAcrossMagnitudesAndOddDims) {
  // Property sweep: width selection (2..33 bits), sign extension, and the
  // packed tail must all be exact for any dim/magnitude combination.
  for (const std::size_t dim : {1u, 7u, 8u, 63u, 200u}) {
    for (const std::int32_t mag :
         {1, 2, 3, 200, 100'000, std::numeric_limits<std::int32_t>::max() - 1}) {
      const Envelope env{proto::kProtoVersion, 1, 0,
                         proto::BatchUpdate{
                             0, 0, random_accum(dim, mag, 31 * dim + mag)}};
      const auto decoded = proto::decode(proto::encode(env));
      ASSERT_TRUE(decoded.ok()) << "dim=" << dim << " mag=" << mag;
      EXPECT_EQ(decoded.envelope.msg, env.msg);
    }
  }
}

TEST(Envelope, BipolarRoundTripsAtOddDims) {
  for (const std::size_t dim : {1u, 8u, 9u, 127u, 4000u}) {
    const Envelope env{proto::kProtoVersion, 2, 0,
                       proto::QueryEscalate{9, 1, random_bipolar(dim, dim)}};
    const auto decoded = proto::decode(proto::encode(env));
    ASSERT_TRUE(decoded.ok()) << "dim=" << dim;
    EXPECT_EQ(decoded.envelope.msg, env.msg);
  }
}

// ---- typed rejections ------------------------------------------------------

TEST(EnvelopeReject, TruncatedHeader) {
  const auto buf = proto::encode(corpus().front());
  for (std::size_t len = 0; len < proto::kHeaderSize; ++len) {
    const auto r = proto::decode(std::span(buf.data(), len));
    EXPECT_EQ(r.error, DecodeError::kTruncatedHeader) << "len=" << len;
  }
}

TEST(EnvelopeReject, BadMagic) {
  auto buf = proto::encode(corpus().front());
  buf[1] = 'Q';
  EXPECT_EQ(proto::decode(buf).error, DecodeError::kBadMagic);
}

TEST(EnvelopeReject, UnknownVersionFailsClosed) {
  // Every type — including the fused frames — bounces off the version
  // gate before any payload parsing.
  for (const Envelope& env : corpus()) {
    auto buf = proto::encode(env);
    buf[2] = proto::kProtoVersion + 1;
    EXPECT_EQ(proto::decode(buf).error, DecodeError::kBadVersion)
        << proto::to_string(proto::type_of(env.msg));
    buf[2] = 0;
    EXPECT_EQ(proto::decode(buf).error, DecodeError::kBadVersion)
        << proto::to_string(proto::type_of(env.msg));
  }
}

TEST(EnvelopeReject, UnknownTypeByte) {
  auto buf = proto::encode(corpus().front());
  buf[3] = 0;
  EXPECT_EQ(proto::decode(buf).error, DecodeError::kBadType);
  // 1 and 3 (retired per-class model and residual frames) and 11 (a
  // retired schedule announcement) are unassigned inside the range.
  for (const std::uint8_t retired : {1, 3, 11}) {
    buf[3] = retired;
    EXPECT_EQ(proto::decode(buf).error, DecodeError::kBadType) << int{retired};
  }
  // 13 is the first unassigned type byte (12 = dimension_patch is valid).
  buf[3] = 13;
  EXPECT_EQ(proto::decode(buf).error, DecodeError::kBadType);
  buf[3] = 255;
  EXPECT_EQ(proto::decode(buf).error, DecodeError::kBadType);
}

TEST(EnvelopeReject, PayloadLengthMismatch) {
  // Header claims more payload than the buffer carries: truncated.
  auto buf = proto::encode(corpus().front());
  buf.resize(buf.size() - 1);
  EXPECT_EQ(proto::decode(buf).error, DecodeError::kTruncatedPayload);
  // Buffer carries more than the header claims: length mismatch.
  auto padded = proto::encode(corpus().front());
  padded.push_back(0);
  EXPECT_EQ(proto::decode(padded).error, DecodeError::kLengthMismatch);
}

TEST(EnvelopeReject, CorruptAccumWidth) {
  // BatchUpdate payload: u32 class_id, u32 batch_id, then u32 dim + u8 bits.
  // Forcing the width byte outside [2, 33] must fail as corrupt, not crash.
  auto buf = proto::encode(corpus().front());
  ASSERT_EQ(buf[3], static_cast<std::uint8_t>(MsgType::kBatchUpdate));
  const std::size_t bits_at = proto::kHeaderSize + 4 + 4 + 4;
  for (const std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{1},
                                 std::uint8_t{34}, std::uint8_t{255}}) {
    buf[bits_at] = bad;
    EXPECT_EQ(proto::decode(buf).error, DecodeError::kCorruptPayload);
  }
}

TEST(EnvelopeReject, HugeDimCannotDriveAllocation) {
  // A corrupt dim field far beyond kMaxWireDim must be rejected before any
  // allocation is sized from it.
  auto buf = proto::encode(corpus().front());
  ASSERT_EQ(buf[3], static_cast<std::uint8_t>(MsgType::kBatchUpdate));
  const std::size_t dim_at = proto::kHeaderSize + 4 + 4;
  for (int i = 0; i < 4; ++i) buf[dim_at + i] = 0xFF;
  EXPECT_EQ(proto::decode(buf).error, DecodeError::kCorruptPayload);
}

TEST(EnvelopeReject, NonCanonicalPadBits) {
  // The final byte's pad bits must be zero; flip one and the strict decoder
  // refuses (canonical form keeps encode(decode(x)) == x).
  const Envelope env{proto::kProtoVersion, 1, 0,
                     proto::BatchUpdate{0, 0, random_accum(3, 2, 5)}};
  auto buf = proto::encode(env);
  buf.back() |= 0x80;
  EXPECT_EQ(proto::decode(buf).error, DecodeError::kCorruptPayload);
}

TEST(EnvelopeReject, ReducePartialBadSectionModeOrHugeDims) {
  const proto::ReducePartial rp{
      proto::kReduceInitial, 7,
      {parity_accum(101, 9, 16), parity_accum(67, 9, 17)}};
  const auto clean =
      proto::encode(Envelope{proto::kProtoVersion, 7, 2, rp});
  // Payload: u8 phase, u32 origin, u32 count, u32 dim per section, then the
  // section bodies opening with the mode byte. Modes >= 2 are unassigned.
  const std::size_t mode_at = proto::kHeaderSize + 1 + 4 + 4 + 4 * 2;
  for (const std::uint8_t bad : {std::uint8_t{2}, std::uint8_t{255}}) {
    auto buf = clean;
    buf[mode_at] = bad;
    EXPECT_EQ(proto::decode(buf).error, DecodeError::kCorruptPayload);
  }
  // A corrupt section count far beyond kMaxWireDim must be rejected before
  // it can size an allocation.
  auto buf = clean;
  const std::size_t count_at = proto::kHeaderSize + 1 + 4;
  for (int i = 0; i < 4; ++i) buf[count_at + static_cast<std::size_t>(i)] = 0xFF;
  EXPECT_EQ(proto::decode(buf).error, DecodeError::kCorruptPayload);
  // Same for one section's dim field.
  buf = clean;
  const std::size_t dim_at = count_at + 4;
  for (int i = 0; i < 4; ++i) buf[dim_at + static_cast<std::size_t>(i)] = 0xFF;
  EXPECT_EQ(proto::decode(buf).error, DecodeError::kCorruptPayload);
}

TEST(EnvelopeReject, ReducePartialUnknownPhase) {
  // The phase byte opens the payload; 2 and 3 are unassigned (retired
  // schedules) and 255 was never assigned. Decode refuses them typed.
  const auto clean = proto::encode(
      Envelope{proto::kProtoVersion, 7, 2,
               proto::ReducePartial{proto::kReduceInitial, 7,
                                    {parity_accum(101, 9, 16)}}});
  for (const std::uint8_t bad : {2, 3, 255}) {
    auto buf = clean;
    buf[proto::kHeaderSize] = bad;
    EXPECT_EQ(proto::decode(buf).error, DecodeError::kCorruptPayload)
        << int{bad};
  }
  for (const std::uint8_t good :
       {proto::kReduceInitial, proto::kReduceBatch, proto::kReduceResidual,
        proto::kReduceReintegration}) {
    auto buf = clean;
    buf[proto::kHeaderSize] = good;
    EXPECT_TRUE(proto::decode(buf).ok()) << int{good};
  }
}

TEST(EnvelopeReject, DimensionPatchNonCanonicalShapes) {
  // Payload: u32 round, u32 ndims, u32 ngens, u32 ncols, dims (u32 each),
  // gens (u16 each), packed columns. Canonical form demands strictly
  // ascending dims, ngens == ndims exactly when columns are present, and one
  // ndims-sized column per class.
  const proto::DimensionPatch p{1,
                                {2, 5, 9},
                                {1, 1, 1},
                                {random_accum(3, 9, 80), random_accum(3, 9, 81)}};
  const auto clean = proto::encode(Envelope{proto::kProtoVersion, 2, 6, p});
  const std::size_t dims_at = proto::kHeaderSize + 4 * 4;

  // Duplicate dim (5, 5): not strictly ascending.
  auto buf = clean;
  buf[dims_at + 4] = 9;
  EXPECT_EQ(proto::decode(buf).error, DecodeError::kCorruptPayload);
  // Descending pair (9, 5) after corrupting the first dim upward.
  buf = clean;
  buf[dims_at] = 200;
  EXPECT_EQ(proto::decode(buf).error, DecodeError::kCorruptPayload);

  // A request must carry zero generation counters; a patch exactly ndims.
  const proto::DimensionPatch req{1, {2, 5, 9}, {}, {}};
  auto rbuf = proto::encode(Envelope{proto::kProtoVersion, 6, 2, req});
  rbuf[proto::kHeaderSize + 8] = 3;  // ngens = 3 with no columns
  EXPECT_EQ(proto::decode(rbuf).error, DecodeError::kCorruptPayload);
  buf = clean;
  buf[proto::kHeaderSize + 8] = 2;  // ngens != ndims on a patch
  EXPECT_EQ(proto::decode(buf).error, DecodeError::kCorruptPayload);

  // Dim-count fields far beyond kMaxWireDim cannot size an allocation.
  for (const std::size_t at : {proto::kHeaderSize + 4, proto::kHeaderSize + 12}) {
    buf = clean;
    for (std::size_t i = 0; i < 4; ++i) buf[at + i] = 0xFF;
    EXPECT_EQ(proto::decode(buf).error, DecodeError::kCorruptPayload);
  }
}

// ---- corpus-driven corruption sweep ----------------------------------------

TEST(EnvelopeSweep, EncodeReportsTheCanonicalWireSize) {
  // The bus charges the size encode() reports, taken from the section plan
  // the frame was written with; it is wire_size() for every message type.
  for (const Envelope& env : corpus()) {
    std::uint64_t wire = 0;
    const auto buf = proto::encode(env, &wire);
    EXPECT_EQ(wire, proto::wire_size(env.msg))
        << proto::to_string(proto::type_of(env.msg));
    EXPECT_EQ(buf, proto::encode(env));
  }
}

TEST(EnvelopeSweep, EveryTruncationFailsTyped) {
  for (const Envelope& env : corpus()) {
    const auto buf = proto::encode(env);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      const auto r = proto::decode(std::span(buf.data(), len));
      EXPECT_NE(r.error, DecodeError::kNone)
          << proto::to_string(proto::type_of(env.msg)) << " len=" << len;
    }
  }
}

TEST(EnvelopeSweep, SingleByteFlipsNeverCrash) {
  // Flipping any single bit anywhere must yield either a typed error or a
  // well-formed envelope (payload bytes carry no checksum, so some flips
  // decode to different-but-valid values; re-encoding may then pick a
  // narrower canonical width) — never UB or an unbounded allocation.
  // ASan/UBSan builds make this a memory-safety proof.
  for (const Envelope& env : corpus()) {
    const auto clean = proto::encode(env);
    for (std::size_t at = 0; at < clean.size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        auto buf = clean;
        buf[at] ^= static_cast<std::uint8_t>(1u << bit);
        const auto r = proto::decode(buf);
        if (r.ok()) {
          // Whatever decoded must re-encode to a decodable canonical frame.
          EXPECT_TRUE(proto::decode(proto::encode(r.envelope)).ok());
        }
      }
    }
  }
}

TEST(EnvelopeSweep, RandomGarbageNeverCrashes) {
  hdc::Rng rng(2026);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> buf(rng.index(96));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.index(256));
    // Bias some rounds toward a valid prefix so decode reaches the payload
    // parsers instead of bouncing off the magic check.
    if (buf.size() >= 4 && round % 2 == 0) {
      buf[0] = 'E';
      buf[1] = 'P';
      buf[2] = proto::kProtoVersion;
      buf[3] = static_cast<std::uint8_t>(1 + round % 12);
    }
    const auto r = proto::decode(buf);
    if (r.ok()) {
      EXPECT_TRUE(proto::decode(proto::encode(r.envelope)).ok());
    }
  }
}

// ---- buses -----------------------------------------------------------------

TEST(LocalBus, DeliversThroughRealCodecAndChargesWireSize) {
  proto::LocalBus bus(4, proto::LocalBus::Codec::kEncoded);
  std::vector<Envelope> seen;
  bus.subscribe(2, [&](const Envelope& env) { seen.push_back(env); });

  proto::CommStats stats;
  bus.set_charge(&stats);
  const Envelope env{proto::kProtoVersion, 0, 2,
                     proto::BatchUpdate{1, 0, random_accum(50, 20, 3)}};
  bus.post(env);
  bus.set_charge(nullptr);

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].msg, env.msg);  // survived the encode/decode round trip
  EXPECT_EQ(seen[0].src, 0u);
  EXPECT_EQ(bus.delivered(), 1u);
  // The sink is charged the canonical payload accounting, not the framed
  // envelope bytes.
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, proto::wire_size(env.msg));

  // Uncharged post still delivers but leaves the detached sink alone.
  bus.post(env);
  EXPECT_EQ(bus.delivered(), 2u);
  EXPECT_EQ(stats.messages, 1u);
}

// ---- NodeRuntime state machine ---------------------------------------------

using Phase = proto::NodeRuntime::Phase;

enum class Frame {
  kInitial,
  kBatch,
  kResidual,
  kReintegration,
  kStateSync,
  kBatchUpdate,
  kDimensionPatch,
};

constexpr Phase kPhases[] = {Phase::kIdle,
                             Phase::kInitialTraining,
                             Phase::kBatchRetraining,
                             Phase::kResidualPropagation,
                             Phase::kReintegration,
                             Phase::kDimensionRegen};

constexpr Frame kFrames[] = {Frame::kInitial,       Frame::kBatch,
                             Frame::kResidual,      Frame::kReintegration,
                             Frame::kStateSync,     Frame::kBatchUpdate,
                             Frame::kDimensionPatch};

/// The phase whose session posts `frame`; kIdle for BatchUpdate, which no
/// session posts.
Phase accepting_phase(Frame frame) {
  switch (frame) {
    case Frame::kInitial:
    case Frame::kStateSync:
      return Phase::kInitialTraining;
    case Frame::kBatch:
      return Phase::kBatchRetraining;
    case Frame::kResidual:
      return Phase::kResidualPropagation;
    case Frame::kReintegration:
      return Phase::kReintegration;
    case Frame::kDimensionPatch:
      return Phase::kDimensionRegen;
    case Frame::kBatchUpdate:
      break;
  }
  return Phase::kIdle;
}

/// A gateway of the paper tree with an aggregator, armed for `phase`.
/// Class 0 has one retraining batch and class 1 two, so a batch frame
/// carries three sections.
struct Gateway {
  static constexpr std::size_t kDim = 16;
  static constexpr std::size_t kClasses = 2;

  net::Topology topo = net::Topology::paper_tree(4);
  net::NodeId id = topo.parent(topo.leaves().front());
  net::NodeId child = topo.children(id).front();
  proto::ClassBatches batches{{{0}}, {{1}, {2}}};
  runtime::ThreadPool pool{1};
  proto::NodeRuntime rt;

  explicit Gateway(Phase phase) {
    rt.init(id, topo, kDim, kClasses);
    rt.install_aggregator(std::make_unique<hier::HierEncoder>(
        std::vector<std::size_t>(topo.children(id).size(), kDim), kDim, 99));
    switch (phase) {
      case Phase::kIdle:
        break;
      case Phase::kInitialTraining:
        rt.begin_initial_training();
        break;
      case Phase::kBatchRetraining:
        rt.begin_batch_retraining(batches);
        break;
      case Phase::kResidualPropagation:
        rt.begin_residual_propagation();
        break;
      case Phase::kReintegration:
        rt.begin_reintegration();
        break;
      case Phase::kDimensionRegen:
        rt.begin_dimension_regen(1);
        break;
    }
  }

  /// What `child`'s aggregation alone contributes to each section: the
  /// aggregator applied to that section in the child's slot, zeros in
  /// every other slot.
  std::vector<hdc::AccumHV> lifted(
      const std::vector<hdc::AccumHV>& sections) const {
    const auto kids = topo.children(id);
    std::vector<hdc::AccumHV> out;
    for (const auto& s : sections) {
      std::vector<hdc::AccumHV> slots(kids.size(), hdc::AccumHV(kDim, 0));
      slots[0] = s;
      out.push_back(rt.aggregator().aggregate_accum(slots));
    }
    return out;
  }
};

std::vector<hdc::AccumHV> class_set(std::size_t sections, std::uint64_t seed) {
  std::vector<hdc::AccumHV> out;
  for (std::size_t s = 0; s < sections; ++s) {
    out.push_back(random_accum(Gateway::kDim, 20, seed + s));
  }
  return out;
}

Message make_frame(Frame frame, net::NodeId src, std::size_t sections) {
  const auto origin = static_cast<std::uint32_t>(src);
  switch (frame) {
    case Frame::kInitial:
      return proto::ReducePartial{proto::kReduceInitial, origin,
                                  class_set(sections, 300)};
    case Frame::kBatch:
      return proto::ReducePartial{proto::kReduceBatch, origin,
                                  class_set(sections, 310)};
    case Frame::kResidual:
      return proto::ReducePartial{proto::kReduceResidual, origin,
                                  class_set(sections, 320)};
    case Frame::kReintegration:
      return proto::ReducePartial{proto::kReduceReintegration, origin,
                                  class_set(sections, 330)};
    case Frame::kStateSync:
      return proto::StateSync{0, class_set(sections, 340)};
    case Frame::kBatchUpdate:
      return proto::BatchUpdate{0, 0, random_accum(Gateway::kDim, 20, 350)};
    case Frame::kDimensionPatch:
      return proto::DimensionPatch{
          1, {3, 7}, {1, 1},
          {random_accum(2, 9, 360), random_accum(2, 9, 361)}};
  }
  return {};
}

/// Sections a well-formed `frame` carries for Gateway (k, or the batch
/// count for a batch frame).
std::size_t well_formed_sections(Frame frame) {
  return frame == Frame::kBatch ? 3 : Gateway::kClasses;
}

/// The class-set sections of a StateSync or ReducePartial (const or not).
template <typename Msg>
auto& sections_of(Msg& msg) {
  if (auto* sync = std::get_if<proto::StateSync>(&msg)) {
    return sync->sections;
  }
  return std::get<proto::ReducePartial>(msg).sections;
}

TEST(NodeRuntime, ModelBearingMessagesRequireTheirPhase) {
  const auto topo = net::Topology::paper_tree(4);
  const net::NodeId gw = topo.parent(topo.leaves().front());
  proto::NodeRuntime rt;
  rt.init(gw, topo, /*dim=*/32, /*num_classes=*/2);
  // The aggregator supplies the child dimension every section is checked
  // against.
  rt.install_aggregator(std::make_unique<hier::HierEncoder>(
      std::vector<std::size_t>(topo.children(gw).size(), 32), 32, 99));
  EXPECT_EQ(rt.role(), proto::NodeRuntime::Role::kGateway);
  EXPECT_EQ(rt.phase(), proto::NodeRuntime::Phase::kIdle);

  const net::NodeId child = topo.children(gw).front();
  const Envelope update{
      proto::kProtoVersion, child, gw,
      proto::ReducePartial{proto::kReduceInitial,
                           static_cast<std::uint32_t>(child),
                           {hdc::AccumHV(32, 1), hdc::AccumHV(32, -1)}}};
  // Outside its phase: protocol violation.
  EXPECT_THROW(rt.on_envelope(update), std::logic_error);

  rt.begin_initial_training();
  EXPECT_EQ(rt.phase(), proto::NodeRuntime::Phase::kInitialTraining);
  EXPECT_NO_THROW(rt.on_envelope(update));
  // Wrong phase for a batch message even while training.
  const Envelope batch{proto::kProtoVersion, child, gw,
                       proto::BatchUpdate{0, 0, hdc::AccumHV(32, 1)}};
  EXPECT_THROW(rt.on_envelope(batch), std::logic_error);
}

TEST(NodeRuntime, RejectsNonChildSendersAndBadClassIds) {
  // A class beyond num_classes is a section too many, or an out-of-range
  // class id on the one per-class frame type.
  for (const Frame frame : {Frame::kInitial, Frame::kBatch, Frame::kResidual,
                            Frame::kReintegration, Frame::kStateSync}) {
    const std::size_t good = well_formed_sections(frame);
    const auto where = ::testing::Message() << "frame "
                                            << static_cast<int>(frame);
    for (const std::size_t bad : {good - 1, good + 1}) {
      Gateway gw(accepting_phase(frame));
      EXPECT_THROW(gw.rt.on_envelope({proto::kProtoVersion, gw.child, gw.id,
                                      make_frame(frame, gw.child, bad)}),
                   std::logic_error)
          << where << " sections " << bad;
    }
    // Every section must have the sender's dimension: a zero-length section
    // would otherwise file as an absent child, a wrong-length one reach the
    // aggregator.
    for (const std::size_t dim : {std::size_t{0}, Gateway::kDim + 1}) {
      Gateway gw(accepting_phase(frame));
      Message msg = make_frame(frame, gw.child, good);
      sections_of(msg).back().assign(dim, 1);
      EXPECT_THROW(
          gw.rt.on_envelope({proto::kProtoVersion, gw.child, gw.id, msg}),
          std::logic_error)
          << where << " section dim " << dim;
    }
    // A leaf under the other gateway is not this gateway's child.
    Gateway gw(accepting_phase(frame));
    const net::NodeId stranger = gw.topo.leaves().back();
    ASSERT_NE(gw.topo.parent(stranger), gw.id);
    EXPECT_THROW(gw.rt.on_envelope({proto::kProtoVersion, stranger, gw.id,
                                    make_frame(frame, stranger, good)}),
                 std::logic_error)
        << where;
  }
  Gateway gw(Phase::kInitialTraining);
  const proto::BatchUpdate bad_class{9, 0, hdc::AccumHV(Gateway::kDim, 1)};
  EXPECT_THROW(
      gw.rt.on_envelope({proto::kProtoVersion, gw.child, gw.id, bad_class}),
      std::logic_error);
}

TEST(NodeRuntime, EveryPhaseTakesExactlyTheFramesItsSessionPosts) {
  // Every (phase, model-bearing frame) pair: delivery either files the
  // frame (exactly the pairs a session posts) or throws std::logic_error.
  std::size_t accepted = 0;
  for (const Phase phase : kPhases) {
    for (const Frame frame : kFrames) {
      Gateway gw(phase);
      const Message msg =
          make_frame(frame, gw.child, well_formed_sections(frame));
      const Envelope env{proto::kProtoVersion, gw.child, gw.id, msg};
      const auto where = ::testing::Message()
                         << "phase " << static_cast<int>(phase) << " frame "
                         << static_cast<int>(frame);
      if (frame == Frame::kBatchUpdate || accepting_phase(frame) != phase) {
        EXPECT_THROW(gw.rt.on_envelope(env), std::logic_error) << where;
        continue;
      }
      ASSERT_NO_THROW(gw.rt.on_envelope(env)) << where;
      ++accepted;
      // Filed where the phase's finish step reads it.
      switch (frame) {
        case Frame::kInitial:
        case Frame::kStateSync:
          EXPECT_EQ(gw.rt.finish_initial_training(gw.pool),
                    gw.lifted(sections_of(msg)))
              << where;
          break;
        case Frame::kResidual:
          EXPECT_EQ(gw.rt.finish_residual_propagation(gw.pool),
                    gw.lifted(sections_of(msg)))
              << where;
          break;
        case Frame::kReintegration:
          EXPECT_EQ(gw.rt.finish_reintegration(gw.child, gw.pool),
                    gw.lifted(sections_of(msg)))
              << where;
          break;
        case Frame::kBatch: {
          // Class-major, batch-ascending.
          const auto lifted = gw.lifted(sections_of(msg));
          const std::vector<std::vector<hdc::AccumHV>> expect{
              {lifted[0]}, {lifted[1], lifted[2]}};
          EXPECT_EQ(gw.rt.finish_batch_retraining(gw.pool), expect) << where;
          break;
        }
        case Frame::kDimensionPatch:
          EXPECT_FALSE(
              gw.rt.finish_dimension_regen_internal(gw.pool).dims.empty())
              << where;
          break;
        case Frame::kBatchUpdate:
          break;
      }
    }
  }
  EXPECT_EQ(accepted, 6u);
}

TEST(NodeRuntime, ClassifierlessCheckpointFoldsLaterDeltas) {
  // A gateway without a classifier checkpoints its own class accumulators.
  // A reintegrated contribution adds to them and a propagated residual
  // subtracts from them, as each would on a hosted classifier.
  Gateway gw(Phase::kInitialTraining);
  const auto deliver = [&gw](Frame frame) {
    Message msg = make_frame(frame, gw.child, Gateway::kClasses);
    auto lifted = gw.lifted(sections_of(msg));
    gw.rt.on_envelope({proto::kProtoVersion, gw.child, gw.id, std::move(msg)});
    return lifted;
  };
  auto expect = deliver(Frame::kInitial);
  gw.rt.finish_initial_training(gw.pool);
  EXPECT_EQ(gw.rt.checkpoint_state(), expect);

  gw.rt.begin_reintegration();
  const auto reintegrated = deliver(Frame::kReintegration);
  gw.rt.finish_reintegration(gw.child, gw.pool);
  for (std::size_t c = 0; c < Gateway::kClasses; ++c) {
    hdc::accumulate(expect[c], reintegrated[c]);
  }
  EXPECT_EQ(gw.rt.checkpoint_state(), expect);

  gw.rt.begin_residual_propagation();
  const auto residual = deliver(Frame::kResidual);
  gw.rt.finish_residual_propagation(gw.pool);
  for (std::size_t c = 0; c < Gateway::kClasses; ++c) {
    hdc::deaccumulate(expect[c], residual[c]);
  }
  EXPECT_EQ(gw.rt.checkpoint_state(), expect);
}

TEST(NodeRuntime, BatchClassSetWithAnAbsentChildMatchesPerEntryAggregation) {
  // A gateway closes a 69-entry batch class set (three tiles) in one batch
  // projection. One child delivers; the other is absent, so its sections
  // read as zeros. Each entry equals aggregate_accum over a zero-filled
  // slot, at every worker count.
  const auto topo = net::Topology::paper_tree(4);
  const net::NodeId gw = topo.parent(topo.leaves().front());
  const auto kids = topo.children(gw);
  ASSERT_EQ(kids.size(), 2u);
  const std::vector<std::size_t> dims(kids.size(), Gateway::kDim);
  proto::ClassBatches batches(2);
  std::size_t sample = 0;
  for (std::size_t b = 0; b < 40; ++b) batches[0].push_back({sample++});
  for (std::size_t b = 0; b < 29; ++b) batches[1].push_back({sample++});
  const auto frame = class_set(sample, 500);

  const hier::HierEncoder reference(dims, Gateway::kDim, 99);
  std::vector<std::vector<hdc::AccumHV>> expect(2);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const std::vector<hdc::AccumHV> slots{frame[i],
                                          hdc::AccumHV(Gateway::kDim, 0)};
    expect[i < 40 ? 0 : 1].push_back(reference.aggregate_accum(slots));
  }
  for (const std::size_t workers : {1u, 2u, 8u}) {
    runtime::ThreadPool pool(workers);
    proto::NodeRuntime rt;
    rt.init(gw, topo, Gateway::kDim, 2);
    rt.install_aggregator(
        std::make_unique<hier::HierEncoder>(dims, Gateway::kDim, 99));
    rt.begin_batch_retraining(batches);
    rt.on_envelope({proto::kProtoVersion, kids[0], gw,
                    proto::ReducePartial{proto::kReduceBatch,
                                         static_cast<std::uint32_t>(kids[0]),
                                         frame}});
    EXPECT_EQ(rt.finish_batch_retraining(pool), expect)
        << "workers " << workers;
  }
}

TEST(NodeRuntime, StateSyncFromASupersededIncarnationThrows) {
  Gateway gw(Phase::kInitialTraining);
  gw.rt.on_envelope(
      {proto::kProtoVersion, gw.child, gw.id, proto::NodeJoin{3}});
  EXPECT_THROW(gw.rt.on_envelope({proto::kProtoVersion, gw.child, gw.id,
                                  proto::StateSync{2, class_set(2, 370)}}),
               std::logic_error);
  EXPECT_NO_THROW(gw.rt.on_envelope({proto::kProtoVersion, gw.child, gw.id,
                                     proto::StateSync{3, class_set(2, 370)}}));
}

// ---- per-type byte accounting of the training sessions ----------------------

TEST(ProtoObs, PerTypeBytesPartitionCollectiveSessionTotals) {
  // Every byte a training session charges to CommStats must land
  // in exactly one per-type proto.<name>.bytes counter: the per-type rows
  // partition the phase totals, with no double counting and nothing
  // slipping through unattributed.
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  auto ds = data::make_synthetic("obspart", 40, 3, {10, 10, 10, 10}, 240, 40,
                                 97, 3.6F, 0.5F, 0.5F);
  data::zscore_normalize(ds);
  core::SystemConfig cfg;
  cfg.total_dim = 600;
  cfg.batch_size = 4;
  core::EdgeHdSystem sys(ds, net::Topology::paper_tree(4), cfg);

  auto& reg = obs::MetricsRegistry::global();
  const auto totals = [&reg] {
    proto::CommStats sum;
    for (std::uint8_t b = 1; b <= 12; ++b) {
      if (!proto::is_msg_type(b)) continue;
      const std::string base =
          std::string("proto.") +
          proto::to_string(static_cast<MsgType>(b)) + ".";
      sum.bytes += reg.counter_value(base + "bytes");
      sum.messages += reg.counter_value(base + "messages");
    }
    return sum;
  };

  const auto before = totals();
  auto charged = sys.train_initial();
  charged += sys.retrain_batches();
  const auto after = totals();
  EXPECT_EQ(after.bytes - before.bytes, charged.bytes);
  EXPECT_EQ(after.messages - before.messages, charged.messages);
  // Fused frames carried the model traffic.
  EXPECT_GT(reg.counter_value("proto.reduce_partial.bytes"), 0u);
}

TEST(NodeRuntime, DimensionPatchRequiresRegenPhaseAndParentSender) {
  const auto topo = net::Topology::paper_tree(4);
  const net::NodeId gw = topo.parent(topo.leaves().front());
  const net::NodeId root = topo.parent(gw);
  proto::NodeRuntime rt;
  rt.init(gw, topo, /*dim=*/32, /*num_classes=*/2);

  const Envelope request{proto::kProtoVersion, root, gw,
                         proto::DimensionPatch{1, {3, 17}, {}, {}}};
  // Outside the regeneration phase: protocol violation.
  EXPECT_THROW(rt.on_envelope(request), std::logic_error);

  rt.begin_dimension_regen(1);
  EXPECT_EQ(rt.phase(), proto::NodeRuntime::Phase::kDimensionRegen);
  // Requests flow top-down: a child impersonating the parent is rejected.
  const net::NodeId child = topo.children(gw).front();
  EXPECT_THROW(rt.on_envelope({proto::kProtoVersion, child, gw,
                               proto::DimensionPatch{1, {3}, {}, {}}}),
               std::logic_error);
  // Requested dims must fit this node's model.
  EXPECT_THROW(rt.on_envelope({proto::kProtoVersion, root, gw,
                               proto::DimensionPatch{1, {99}, {}, {}}}),
               std::logic_error);
  // A well-formed request from the parent is filed for the finish step.
  EXPECT_NO_THROW(rt.on_envelope(request));
  EXPECT_EQ(rt.regen_request(), (std::vector<std::uint32_t>{3, 17}));
}

TEST(NodeRuntime, RegenerationPatchesLoadedEncodingsToAFullEncode) {
  // The reference for the in-place patch: after each regeneration round a
  // leaf's stored encodings equal a from-scratch encode of its slices under
  // the regenerated projection. The second round re-draws a dimension the
  // first already replaced, so its delta reads the patched values.
  const auto topo = net::Topology::paper_tree(4);
  const net::NodeId leaf = topo.leaves().front();
  constexpr std::size_t kFeatures = 9;
  constexpr std::size_t kDim = 200;
  constexpr std::size_t kSamples = 40;
  constexpr std::size_t kClasses = 3;
  std::vector<std::vector<float>> slices(kSamples);
  std::vector<std::size_t> labels(kSamples);
  hdc::Rng rng(5);
  for (std::size_t s = 0; s < kSamples; ++s) {
    for (std::size_t f = 0; f < kFeatures; ++f) {
      slices[s].push_back(rng.gaussian());
    }
    labels[s] = s % kClasses;
  }
  runtime::ThreadPool pool(2);
  const std::vector<std::vector<std::uint32_t>> rounds{{2, 17, 18, 150, 199},
                                                       {17, 60}};
  for (const auto kind :
       {hdc::EncoderKind::kRbfDense, hdc::EncoderKind::kRbfSparse}) {
    for (const auto mode :
         {hdc::ProjectionMode::kStored, hdc::ProjectionMode::kDeterministic}) {
      const auto where = ::testing::Message()
                         << "kind " << static_cast<int>(kind) << " mode "
                         << hdc::to_string(mode);
      proto::NodeRuntime rt;
      rt.init(leaf, topo, kDim, kClasses);
      rt.install_leaf_encoder(
          hdc::make_encoder(kind, kFeatures, kDim, 77, mode));
      rt.load_training(slices, labels, pool);
      for (std::uint32_t r = 0; r < rounds.size(); ++r) {
        const std::vector<hdc::BipolarHV> before(rt.train_encodings().begin(),
                                                 rt.train_encodings().end());
        rt.begin_dimension_regen(r + 1);
        rt.set_regen_request(rounds[r]);
        EXPECT_EQ(rt.finish_dimension_regen_leaf().dims, rounds[r]) << where;
        const auto stored = rt.train_encodings();
        ASSERT_EQ(stored.size(), kSamples) << where;
        EXPECT_NE(std::vector<hdc::BipolarHV>(stored.begin(), stored.end()),
                  before)
            << where << " round " << r;
        for (std::size_t s = 0; s < kSamples; ++s) {
          EXPECT_EQ(stored[s], rt.leaf_encoder().encode(slices[s]))
              << where << " round " << r << " sample " << s;
        }
      }
    }
  }
}

TEST(NodeRuntime, ProbesAndQueriesAreCountedNotFiled) {
  const auto topo = net::Topology::paper_tree(4);
  const net::NodeId gw = topo.parent(topo.leaves().front());
  proto::NodeRuntime rt;
  rt.init(gw, topo, 32, 2);
  const net::NodeId child = topo.children(gw).front();
  // Probes and queries are phase-free: fine even while idle.
  rt.on_envelope(
      {proto::kProtoVersion, child, gw, proto::HealthProbe{1, 2}});
  rt.on_envelope({proto::kProtoVersion, child, gw,
                  proto::QueryEscalate{1, 1, random_bipolar(32, 6)}});
  rt.on_envelope({proto::kProtoVersion, child, gw, proto::QueryReply{}});
  EXPECT_EQ(rt.probes_received(), 1u);
  EXPECT_EQ(rt.queries_received(), 2u);
  EXPECT_EQ(rt.phase(), proto::NodeRuntime::Phase::kIdle);
}

// ---- sessions ---------------------------------------------------------------

TEST(Sessions, AThrowInsideALevelPostsOnlyTheNodesBeforeIt) {
  // A holographic star with RBF / linear-level / RBF leaves: the middle
  // leaf's encoder cannot regenerate, so its finish step throws while the
  // leaf level closes on the pool. The session rethrows that error after
  // posting exactly what a serial walk would have posted before reaching
  // it: the first leaf's DimensionPatch.
  const auto topo = net::Topology::star(3);
  const auto leaves = topo.leaves();
  const std::size_t n = topo.num_nodes();
  constexpr std::size_t kFeatures = 4;
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kClasses = 2;
  constexpr std::size_t kSamples = 12;
  std::vector<std::vector<float>> slices(kSamples);
  std::vector<std::size_t> labels(kSamples);
  hdc::Rng rng(9);
  for (std::size_t s = 0; s < kSamples; ++s) {
    for (std::size_t f = 0; f < kFeatures; ++f) {
      slices[s].push_back(rng.gaussian());
    }
    labels[s] = s % kClasses;
  }
  const hdc::EncoderKind kinds[] = {hdc::EncoderKind::kRbfSparse,
                                    hdc::EncoderKind::kLinearLevel,
                                    hdc::EncoderKind::kRbfSparse};
  for (const std::size_t workers : {1, 2, 8}) {
    runtime::ThreadPool pool(workers);
    std::vector<proto::NodeRuntime> nodes(n);
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      proto::NodeRuntime& rt = nodes[leaves[i]];
      rt.init(leaves[i], topo, kDim, kClasses);
      rt.install_leaf_encoder(
          hdc::make_encoder(kinds[i], kFeatures, kDim, 40 + i));
      rt.load_training(slices, labels, pool);
    }
    nodes[topo.root()].init(topo.root(), topo, kDim, kClasses);
    nodes[topo.root()].install_aggregator(std::make_unique<hier::HierEncoder>(
        std::vector<std::size_t>(leaves.size(), kDim), kDim, 99));

    proto::LocalBus bus(n);
    std::size_t patches = 0;
    for (net::NodeId id = 0; id < n; ++id) {
      bus.subscribe(id, [&nodes, &patches, id](const Envelope& env) {
        if (std::holds_alternative<proto::DimensionPatch>(env.msg)) ++patches;
        nodes[id].on_envelope(env);
      });
    }
    std::vector<std::vector<hdc::AccumHV>> pending_contrib(n);
    std::vector<std::vector<hdc::AccumHV>> pending_residuals(n);
    std::vector<net::NodeId> stragglers;
    proto::SessionContext ctx;
    ctx.topology = &topo;
    ctx.nodes = nodes;
    ctx.bus = &bus;
    ctx.pool = &pool;
    ctx.num_classes = kClasses;
    ctx.labels = labels;
    ctx.pending_contrib = &pending_contrib;
    ctx.pending_residuals = &pending_residuals;
    ctx.stragglers = &stragglers;

    proto::run_initial_training(ctx);
    EXPECT_THROW(proto::run_dimension_regeneration(ctx, 4, 1),
                 std::logic_error)
        << "workers " << workers;
    EXPECT_EQ(patches, 1u) << "workers " << workers;
  }
}

}  // namespace
