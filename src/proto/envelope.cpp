#include "envelope.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "obs/metrics.hpp"
#include "section_codec.hpp"
#include "wire_format.hpp"

namespace edgehd::proto {

namespace {

constexpr std::uint8_t kMagic0 = 'E';
constexpr std::uint8_t kMagic1 = 'P';

/// Decode-side rejection counter (stable: rejects are a deterministic
/// function of the inputs decoded).
const obs::Counter& decode_rejects() {
  static const obs::Counter c = [] {
    obs::Counter handle;
    if constexpr (obs::kEnabled) {
      handle = obs::MetricsRegistry::global().counter("proto.decode.rejected");
    }
    return handle;
  }();
  return c;
}

DecodeResult reject(DecodeError err) {
  decode_rejects().inc();
  DecodeResult r;
  r.error = err;
  return r;
}

// ---- accumulator payload: u32 dim, u8 bits, packed two's complement ------

void write_accum(ByteWriter& w, std::span<const std::int32_t> acc) {
  std::int64_t max_mag = 0;
  for (const std::int32_t v : acc) {
    max_mag = std::max<std::int64_t>(max_mag, std::llabs(v));
  }
  const std::uint32_t bits = hdc::bits_for_magnitude(max_mag);
  w.u32(static_cast<std::uint32_t>(acc.size()));
  w.u8(static_cast<std::uint8_t>(bits));
  std::uint64_t bitbuf = 0;
  unsigned filled = 0;
  const std::uint64_t mask = bits >= 64 ? ~std::uint64_t{0}
                                        : (std::uint64_t{1} << bits) - 1;
  for (const std::int32_t v : acc) {
    const auto enc =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(v)) & mask;
    bitbuf |= enc << filled;
    filled += bits;
    while (filled >= 8) {
      w.u8(static_cast<std::uint8_t>(bitbuf & 0xFF));
      bitbuf >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) w.u8(static_cast<std::uint8_t>(bitbuf & 0xFF));
}

bool read_accum(ByteReader& r, hdc::AccumHV& out) {
  std::uint32_t dim = 0;
  std::uint8_t bits = 0;
  if (!r.u32(dim) || !r.u8(bits)) return false;
  // bits_for_magnitude never emits fewer than 2 bits; int32 magnitudes fit
  // in 33 (sign + 32).
  if (bits < 2 || bits > 33) return false;
  if (dim > kMaxWireDim) return false;
  const std::uint64_t packed_bytes =
      (static_cast<std::uint64_t>(dim) * bits + 7) / 8;
  std::span<const std::uint8_t> body;
  if (!r.bytes(static_cast<std::size_t>(packed_bytes), body)) return false;
  out.assign(dim, 0);
  std::uint64_t bitbuf = 0;
  unsigned filled = 0;
  std::size_t next_byte = 0;
  const std::uint64_t sign_bit = std::uint64_t{1} << (bits - 1);
  for (std::uint32_t i = 0; i < dim; ++i) {
    while (filled < bits) {
      bitbuf |= static_cast<std::uint64_t>(body[next_byte++]) << filled;
      filled += 8;
    }
    const std::uint64_t mask = bits >= 64 ? ~std::uint64_t{0}
                                          : (std::uint64_t{1} << bits) - 1;
    std::uint64_t enc = bitbuf & mask;
    bitbuf >>= bits;
    filled -= bits;
    // Sign-extend from `bits` wide two's complement.
    if ((enc & sign_bit) != 0) enc |= ~mask;
    const auto wide = static_cast<std::int64_t>(enc);
    if (wide < INT32_MIN || wide > INT32_MAX) return false;
    out[i] = static_cast<std::int32_t>(wide);
  }
  // Pad bits in the final byte must be zero (strict canonical form).
  if (filled > 0 && bitbuf != 0) return false;
  return true;
}

// ---- bipolar payload: u32 dim, packed bits --------------------------------

void write_bipolar(ByteWriter& w, std::span<const std::int8_t> hv) {
  w.u32(static_cast<std::uint32_t>(hv.size()));
  const auto packed = hdc::pack_bipolar(hv);
  w.bytes(packed);
}

bool read_bipolar(ByteReader& r, hdc::BipolarHV& out) {
  std::uint32_t dim = 0;
  if (!r.u32(dim)) return false;
  if (dim > kMaxWireDim) return false;
  std::span<const std::uint8_t> body;
  if (!r.bytes(static_cast<std::size_t>(hdc::wire_bytes_bipolar(dim)), body)) {
    return false;
  }
  out = hdc::unpack_bipolar(body, dim);
  return true;
}

// ---- section-coded class sets: u32 count, u32 dim each, section bodies ----

/// Returns the section bodies' bytes (the framing is not counted).
std::uint64_t write_framed_sections(ByteWriter& w,
                                    std::span<const hdc::AccumHV> sections) {
  w.u32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& s : sections) w.u32(static_cast<std::uint32_t>(s.size()));
  return write_sections(w, sections);
}

bool read_framed_sections(ByteReader& r, std::vector<hdc::AccumHV>& out) {
  std::uint32_t count = 0;
  if (!r.u32(count)) return false;
  if (count > kMaxWireDim) return false;
  // Dims are framing; their sum is capped like a single accumulator's dim
  // so a corrupt count can never drive a huge allocation.
  std::vector<std::uint32_t> dims;
  std::uint64_t total_lanes = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t dim = 0;
    if (!r.u32(dim)) return false;
    if (dim > kMaxWireDim) return false;
    total_lanes += dim;
    if (total_lanes > kMaxWireDim) return false;
    dims.push_back(dim);
  }
  return read_sections(r, dims, out);
}

// ---- per-type payload codecs ---------------------------------------------

/// Writes `msg`'s payload and returns wire_size(msg). A class set's size
/// comes from the section plan the payload was written with, so no frame
/// is planned twice.
std::uint64_t write_payload(ByteWriter& w, const Message& msg) {
  const std::optional<std::uint64_t> planned = std::visit(
      [&w](const auto& m) -> std::optional<std::uint64_t> {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, BatchUpdate>) {
          w.u32(m.class_id);
          w.u32(m.batch_id);
          write_accum(w, m.accum);
        } else if constexpr (std::is_same_v<T, QueryEscalate>) {
          w.u64(m.query_id);
          w.u32(m.hops);
          write_bipolar(w, m.query);
        } else if constexpr (std::is_same_v<T, QueryReply>) {
          w.u64(m.query_id);
          w.u32(m.label);
          w.f64(m.confidence);
          w.u64(m.serving_node);
          w.u32(m.serving_level);
          w.u8(m.degraded);
        } else if constexpr (std::is_same_v<T, HealthProbe>) {
          w.u64(m.nonce);
          w.u64(m.sent_at);
          w.u64(m.incarnation);
          w.u64(m.suspects);
        } else if constexpr (std::is_same_v<T, NodeJoin>) {
          w.u64(m.incarnation);
        } else if constexpr (std::is_same_v<T, NodeLeave>) {
          w.u64(m.incarnation);
          w.u8(m.planned);
        } else if constexpr (std::is_same_v<T, StateSync>) {
          w.u64(m.incarnation);
          return 8 + write_framed_sections(w, m.sections);
        } else if constexpr (std::is_same_v<T, ReducePartial>) {
          w.u8(m.phase);
          w.u32(m.origin);
          return write_framed_sections(w, m.sections);
        } else {
          // DimensionPatch. Canonical form (enforced on decode): dims
          // strictly ascending; generations empty for the request form and
          // dims-sized for the patch form; one column per class, each
          // dims-sized.
          w.u32(m.round);
          w.u32(static_cast<std::uint32_t>(m.dims.size()));
          w.u32(static_cast<std::uint32_t>(m.generations.size()));
          w.u32(static_cast<std::uint32_t>(m.columns.size()));
          for (const std::uint32_t d : m.dims) w.u32(d);
          for (const std::uint16_t g : m.generations) w.u16(g);
          for (const auto& col : m.columns) write_accum(w, col);
        }
        return std::nullopt;
      },
      msg);
  return planned ? *planned : wire_size(msg);
}

bool read_payload(ByteReader& r, MsgType type, Message& out) {
  switch (type) {
    case MsgType::kBatchUpdate: {
      BatchUpdate m;
      if (!r.u32(m.class_id) || !r.u32(m.batch_id) ||
          !read_accum(r, m.accum)) {
        return false;
      }
      out = std::move(m);
      return true;
    }
    case MsgType::kQueryEscalate: {
      QueryEscalate m;
      if (!r.u64(m.query_id) || !r.u32(m.hops) || !read_bipolar(r, m.query)) {
        return false;
      }
      out = std::move(m);
      return true;
    }
    case MsgType::kQueryReply: {
      QueryReply m;
      if (!r.u64(m.query_id) || !r.u32(m.label) || !r.f64(m.confidence) ||
          !r.u64(m.serving_node) || !r.u32(m.serving_level) ||
          !r.u8(m.degraded)) {
        return false;
      }
      out = m;
      return true;
    }
    case MsgType::kHealthProbe: {
      HealthProbe m;
      if (!r.u64(m.nonce) || !r.u64(m.sent_at) || !r.u64(m.incarnation) ||
          !r.u64(m.suspects)) {
        return false;
      }
      out = m;
      return true;
    }
    case MsgType::kNodeJoin: {
      NodeJoin m;
      if (!r.u64(m.incarnation)) return false;
      out = m;
      return true;
    }
    case MsgType::kNodeLeave: {
      NodeLeave m;
      if (!r.u64(m.incarnation) || !r.u8(m.planned)) return false;
      out = m;
      return true;
    }
    case MsgType::kStateSync: {
      StateSync m;
      if (!r.u64(m.incarnation) || !read_framed_sections(r, m.sections)) {
        return false;
      }
      out = std::move(m);
      return true;
    }
    case MsgType::kReducePartial: {
      ReducePartial m;
      if (!r.u8(m.phase) || !is_reduce_phase(m.phase) || !r.u32(m.origin) ||
          !read_framed_sections(r, m.sections)) {
        return false;
      }
      out = std::move(m);
      return true;
    }
    case MsgType::kDimensionPatch: {
      DimensionPatch m;
      std::uint32_t ndims = 0;
      std::uint32_t ngens = 0;
      std::uint32_t ncols = 0;
      if (!r.u32(m.round) || !r.u32(ndims) || !r.u32(ngens) || !r.u32(ncols)) {
        return false;
      }
      if (ndims > kMaxWireDim || ncols > kMaxWireDim) return false;
      // Canonical: a request carries no generations/columns, a patch carries
      // one generation per dim and one dims-sized column per class.
      if (ngens != (ncols != 0 ? ndims : 0)) return false;
      if (ncols != 0 &&
          static_cast<std::uint64_t>(ncols) * ndims > kMaxWireDim) {
        return false;
      }
      m.dims.resize(ndims);
      for (std::uint32_t i = 0; i < ndims; ++i) {
        if (!r.u32(m.dims[i])) return false;
        if (i > 0 && m.dims[i] <= m.dims[i - 1]) return false;  // ascending
      }
      m.generations.resize(ngens);
      for (std::uint32_t i = 0; i < ngens; ++i) {
        if (!r.u16(m.generations[i])) return false;
      }
      m.columns.resize(ncols);
      for (std::uint32_t c = 0; c < ncols; ++c) {
        if (!read_accum(r, m.columns[c])) return false;
        if (m.columns[c].size() != ndims) return false;
      }
      out = std::move(m);
      return true;
    }
  }
  return false;
}

}  // namespace

const char* to_string(DecodeError err) noexcept {
  switch (err) {
    case DecodeError::kNone:
      return "none";
    case DecodeError::kTruncatedHeader:
      return "truncated_header";
    case DecodeError::kBadMagic:
      return "bad_magic";
    case DecodeError::kBadVersion:
      return "bad_version";
    case DecodeError::kBadType:
      return "bad_type";
    case DecodeError::kLengthMismatch:
      return "length_mismatch";
    case DecodeError::kTruncatedPayload:
      return "truncated_payload";
    case DecodeError::kCorruptPayload:
      return "corrupt_payload";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode(const Envelope& env, std::uint64_t* wire) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(kMagic0);
  w.u8(kMagic1);
  w.u8(env.version);
  w.u8(static_cast<std::uint8_t>(type_of(env.msg)));
  w.u32(static_cast<std::uint32_t>(env.src));
  w.u32(static_cast<std::uint32_t>(env.dst));
  w.u32(0);  // payload length, patched below
  const std::uint64_t size = write_payload(w, env.msg);
  if (wire != nullptr) *wire = size;
  const auto payload_len = static_cast<std::uint32_t>(out.size() - kHeaderSize);
  for (int i = 0; i < 4; ++i) {
    out[12 + i] = static_cast<std::uint8_t>(payload_len >> (8 * i));
  }
  return out;
}

DecodeResult decode(std::span<const std::uint8_t> buf) {
  ByteReader r(buf);
  std::uint8_t m0 = 0;
  std::uint8_t m1 = 0;
  std::uint8_t version = 0;
  std::uint8_t type_byte = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t payload_len = 0;
  if (!r.u8(m0) || !r.u8(m1) || !r.u8(version) || !r.u8(type_byte) ||
      !r.u32(src) || !r.u32(dst) || !r.u32(payload_len)) {
    return reject(DecodeError::kTruncatedHeader);
  }
  if (m0 != kMagic0 || m1 != kMagic1) return reject(DecodeError::kBadMagic);
  if (version != kProtoVersion) return reject(DecodeError::kBadVersion);
  if (!is_msg_type(type_byte)) return reject(DecodeError::kBadType);
  if (payload_len > r.remaining()) {
    return reject(DecodeError::kTruncatedPayload);
  }
  if (payload_len < r.remaining()) {
    return reject(DecodeError::kLengthMismatch);
  }
  std::span<const std::uint8_t> payload;
  r.bytes(payload_len, payload);  // cannot fail: length checked above
  ByteReader pr(payload);
  DecodeResult result;
  if (!read_payload(pr, static_cast<MsgType>(type_byte), result.envelope.msg)) {
    return reject(DecodeError::kCorruptPayload);
  }
  if (!pr.empty()) return reject(DecodeError::kCorruptPayload);
  result.envelope.version = version;
  result.envelope.src = src;
  result.envelope.dst = dst;
  return result;
}

}  // namespace edgehd::proto
