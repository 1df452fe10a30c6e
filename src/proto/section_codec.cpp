#include "section_codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

namespace edgehd::proto {
namespace {

std::uint32_t zigzag(std::int32_t v) noexcept {
  return (static_cast<std::uint32_t>(v) << 1) ^
         static_cast<std::uint32_t>(v >> 31);
}

std::int32_t unzigzag(std::uint32_t z) noexcept {
  return static_cast<std::int32_t>(z >> 1) ^
         -static_cast<std::int32_t>(z & 1U);
}

/// Appends bit runs LSB-first within bytes (same bit order as the envelope
/// codec's write_accum), with explicit zero padding at byte_align().
class BitSink {
 public:
  explicit BitSink(ByteWriter& w) : w_(&w) {}

  void push(std::uint32_t bits, unsigned n) {
    acc_ |= static_cast<std::uint64_t>(bits) << nbits_;
    nbits_ += n;
    while (nbits_ >= 8) {
      w_->u8(static_cast<std::uint8_t>(acc_));
      acc_ >>= 8;
      nbits_ -= 8;
    }
  }

  void byte_align() {
    if (nbits_ > 0) {
      w_->u8(static_cast<std::uint8_t>(acc_));
      acc_ = 0;
      nbits_ = 0;
    }
  }

 private:
  ByteWriter* w_;
  std::uint64_t acc_ = 0;
  unsigned nbits_ = 0;
};

/// Consumes bit runs LSB-first; align_checked() enforces zero pad bits so a
/// frame has exactly one valid encoding (canonical-form strictness, matching
/// the envelope codec's pad-bit rule).
class BitSource {
 public:
  explicit BitSource(ByteReader& r) : r_(&r) {}

  bool take(unsigned n, std::uint32_t& out) noexcept {
    while (nbits_ < n) {
      std::uint8_t b = 0;
      if (!r_->u8(b)) return false;
      acc_ |= static_cast<std::uint64_t>(b) << nbits_;
      nbits_ += 8;
    }
    out = static_cast<std::uint32_t>(
        acc_ & ((n >= 64 ? ~0ULL : (1ULL << n) - 1ULL)));
    acc_ >>= n;
    nbits_ -= n;
    return true;
  }

  bool take_bit(std::uint32_t& b) noexcept { return take(1, b); }

  /// Drops up to 7 leftover pad bits; they must all be zero.
  bool align_checked() noexcept {
    if (acc_ != 0) return false;
    nbits_ = 0;
    return true;
  }

 private:
  ByteReader* r_;
  std::uint64_t acc_ = 0;
  unsigned nbits_ = 0;
};

struct ForParams {
  std::int32_t vmin = 0;
  std::uint8_t step = 1;
  std::uint8_t ubits = 0;
};

ForParams for_params(const hdc::AccumHV& s) noexcept {
  ForParams p;
  if (s.empty()) return p;
  std::int32_t vmin = s[0];
  std::int32_t vmax = s[0];
  const std::uint32_t parity = static_cast<std::uint32_t>(s[0]) & 1U;
  bool same_parity = true;
  for (std::int32_t v : s) {
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
    same_parity &= ((static_cast<std::uint32_t>(v) & 1U) == parity);
  }
  p.vmin = vmin;
  if (vmax == vmin) return p;
  p.step = same_parity ? 2 : 1;
  const std::uint64_t range =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(vmax) -
                                 static_cast<std::int64_t>(vmin)) /
      p.step;
  p.ubits = static_cast<std::uint8_t>(std::bit_width(range));
  return p;
}

// Per-section FOR overhead: vmin (4) + step (1) + ubits (1).
constexpr std::uint64_t kForSideBytes = 6;

std::uint64_t for_body_bytes(std::span<const hdc::AccumHV> sections,
                             std::span<const ForParams> params) noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    total += kForSideBytes +
             (static_cast<std::uint64_t>(sections[i].size()) *
                  params[i].ubits +
              7) /
                 8;
  }
  return total;
}

struct HuffPlan {
  bool available = false;
  std::vector<std::uint8_t> lengths;  ///< code length per zigzag symbol
  std::uint64_t body_bytes = 0;       ///< excludes the shared mode byte
};

HuffPlan huff_plan(std::span<const hdc::AccumHV> sections) {
  HuffPlan plan;
  std::size_t max_sym = 0;
  std::uint64_t lanes = 0;
  for (const auto& s : sections) {
    for (std::int32_t v : s) {
      const std::uint32_t z = zigzag(v);
      if (z >= kMaxHuffSymbols) return plan;
      max_sym = std::max<std::size_t>(max_sym, z);
      ++lanes;
    }
  }
  if (lanes == 0) return plan;
  const std::size_t table = max_sym + 1;
  std::vector<std::uint64_t> freq(table, 0);
  for (const auto& s : sections) {
    for (std::int32_t v : s) ++freq[zigzag(v)];
  }

  // Huffman tree with fully deterministic tie-breaking: the min-heap orders
  // by (weight, creation index), leaves created in ascending symbol order.
  struct Node {
    std::uint32_t left;
    std::uint32_t right;
  };
  constexpr std::uint32_t kLeafChild = std::numeric_limits<std::uint32_t>::max();
  std::vector<Node> nodes;
  std::vector<std::uint32_t> leaf_sym;
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t sym = 0; sym < table; ++sym) {
    if (freq[sym] == 0) continue;
    const auto idx = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back({kLeafChild, kLeafChild});
    leaf_sym.push_back(static_cast<std::uint32_t>(sym));
    heap.push({freq[sym], idx});
  }
  if (leaf_sym.size() < 2) return plan;  // degenerate alphabet: FOR is free
  while (heap.size() > 1) {
    const Entry a = heap.top();
    heap.pop();
    const Entry b = heap.top();
    heap.pop();
    const auto idx = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back({a.second, b.second});
    heap.push({a.first + b.first, idx});
  }

  // Leaf depths via an explicit stack from the root (last node created).
  std::vector<std::uint32_t> depth(nodes.size(), 0);
  plan.lengths.assign(table, 0);
  std::vector<std::uint32_t> stack{static_cast<std::uint32_t>(nodes.size() - 1)};
  while (!stack.empty()) {
    const std::uint32_t idx = stack.back();
    stack.pop_back();
    const Node& n = nodes[idx];
    if (n.left == kLeafChild) {
      if (depth[idx] > kMaxHuffCodeLen) return plan;
      plan.lengths[leaf_sym[idx]] = static_cast<std::uint8_t>(depth[idx]);
    } else {
      depth[n.left] = depth[idx] + 1;
      depth[n.right] = depth[idx] + 1;
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }

  // Table size (u32) + one length byte per symbol + per-section packed
  // codes, byte-aligned per section.
  plan.body_bytes = 4 + table;
  for (const auto& s : sections) {
    std::uint64_t bits = 0;
    for (std::int32_t v : s) bits += plan.lengths[zigzag(v)];
    plan.body_bytes += (bits + 7) / 8;
  }
  plan.available = true;
  return plan;
}

/// Canonical code values from lengths: symbols ordered (length, symbol)
/// ascending get increasing codes (RFC 1951 convention).
struct CanonicalCodes {
  std::array<std::uint32_t, kMaxHuffCodeLen + 1> bl_count{};
  std::array<std::uint32_t, kMaxHuffCodeLen + 2> first_code{};
  std::array<std::uint32_t, kMaxHuffCodeLen + 2> offset{};
  std::vector<std::uint32_t> syms;  ///< used symbols ordered (length, symbol)
  /// Per symbol, bit-reversed within its length so one LSB-first push
  /// emits the code MSB-first (encoder side).
  std::vector<std::uint32_t> code_of;
};

std::uint32_t reverse_bits(std::uint32_t code, std::uint32_t len) noexcept {
  std::uint32_t out = 0;
  for (std::uint32_t i = 0; i < len; ++i) {
    out = (out << 1) | ((code >> i) & 1U);
  }
  return out;
}

bool build_canonical(std::span<const std::uint8_t> lengths,
                     CanonicalCodes& c, bool require_complete) {
  c.bl_count.fill(0);
  std::uint64_t kraft = 0;
  for (std::uint8_t len : lengths) {
    if (len == 0) continue;
    if (len > kMaxHuffCodeLen) return false;
    ++c.bl_count[len];
    kraft += 1ULL << (kMaxHuffCodeLen - len);
  }
  if (require_complete && kraft != (1ULL << kMaxHuffCodeLen)) return false;
  std::uint32_t code = 0;
  std::uint32_t total = 0;
  for (std::uint32_t len = 1; len <= kMaxHuffCodeLen; ++len) {
    code = (code + c.bl_count[len - 1]) << 1;
    c.first_code[len] = code;
    c.offset[len] = total;
    total += c.bl_count[len];
  }
  c.syms.resize(total);
  c.code_of.assign(lengths.size(), 0);
  std::array<std::uint32_t, kMaxHuffCodeLen + 1> next = {};
  for (std::uint32_t len = 1; len <= kMaxHuffCodeLen; ++len) {
    next[len] = c.first_code[len];
  }
  std::array<std::uint32_t, kMaxHuffCodeLen + 1> fill = {};
  for (std::size_t sym = 0; sym < lengths.size(); ++sym) {
    const std::uint8_t len = lengths[sym];
    if (len == 0) continue;
    c.code_of[sym] = reverse_bits(next[len]++, len);
    c.syms[c.offset[len] + fill[len]++] = static_cast<std::uint32_t>(sym);
  }
  return true;
}

struct SectionPlan {
  SectionMode mode = SectionMode::kFrameOfReference;
  std::vector<ForParams> fors;
  HuffPlan huff;
  std::uint64_t bytes = 0;  ///< total body bytes including the mode byte
};

SectionPlan plan_sections(std::span<const hdc::AccumHV> sections) {
  SectionPlan plan;
  plan.fors.reserve(sections.size());
  for (const auto& s : sections) plan.fors.push_back(for_params(s));
  const std::uint64_t for_bytes = 1 + for_body_bytes(sections, plan.fors);
  plan.huff = huff_plan(sections);
  const std::uint64_t huff_bytes =
      plan.huff.available ? 1 + plan.huff.body_bytes
                          : std::numeric_limits<std::uint64_t>::max();
  if (huff_bytes < for_bytes) {
    plan.mode = SectionMode::kHuffman;
    plan.bytes = huff_bytes;
  } else {
    plan.mode = SectionMode::kFrameOfReference;
    plan.bytes = for_bytes;
  }
  return plan;
}

bool read_sections_for(ByteReader& r, std::span<const std::uint32_t> dims,
                       std::vector<hdc::AccumHV>& out) {
  for (std::size_t i = 0; i < dims.size(); ++i) {
    std::uint32_t vmin_raw = 0;
    std::uint8_t step = 0;
    std::uint8_t ubits = 0;
    if (!r.u32(vmin_raw) || !r.u8(step) || !r.u8(ubits)) return false;
    if ((step != 1 && step != 2) || ubits > 32) return false;
    const auto vmin =
        static_cast<std::int64_t>(static_cast<std::int32_t>(vmin_raw));
    hdc::AccumHV& section = out[i];
    section.resize(dims[i]);
    BitSource bs(r);
    for (std::uint32_t lane = 0; lane < dims[i]; ++lane) {
      std::uint32_t residue = 0;
      if (ubits > 0 && !bs.take(ubits, residue)) return false;
      const std::int64_t v =
          vmin + static_cast<std::int64_t>(residue) * step;
      if (v < std::numeric_limits<std::int32_t>::min() ||
          v > std::numeric_limits<std::int32_t>::max()) {
        return false;
      }
      section[lane] = static_cast<std::int32_t>(v);
    }
    if (!bs.align_checked()) return false;
  }
  return true;
}

bool read_sections_huff(ByteReader& r, std::span<const std::uint32_t> dims,
                        std::vector<hdc::AccumHV>& out) {
  std::uint32_t table = 0;
  if (!r.u32(table)) return false;
  if (table == 0 || table > kMaxHuffSymbols) return false;
  std::vector<std::uint8_t> lengths(table);
  for (auto& len : lengths) {
    if (!r.u8(len)) return false;
  }
  CanonicalCodes codes;
  // Completeness (Kraft sum saturated) guarantees every bit path reaches a
  // used symbol, so decode terminates within kMaxHuffCodeLen bits.
  if (!build_canonical(lengths, codes, /*require_complete=*/true)) {
    return false;
  }
  for (std::size_t i = 0; i < dims.size(); ++i) {
    hdc::AccumHV& section = out[i];
    section.resize(dims[i]);
    BitSource bs(r);
    for (std::uint32_t lane = 0; lane < dims[i]; ++lane) {
      std::uint32_t code = 0;
      std::uint32_t len = 0;
      std::uint32_t sym = 0;
      while (true) {
        std::uint32_t bit = 0;
        if (!bs.take_bit(bit)) return false;
        code = (code << 1) | bit;
        ++len;
        if (len > kMaxHuffCodeLen) return false;
        const std::uint32_t first = codes.first_code[len];
        if (code >= first && code - first < codes.bl_count[len]) {
          sym = codes.syms[codes.offset[len] + (code - first)];
          break;
        }
      }
      section[lane] = unzigzag(sym);
    }
    if (!bs.align_checked()) return false;
  }
  return true;
}

}  // namespace

std::uint64_t write_sections(ByteWriter& w,
                             std::span<const hdc::AccumHV> sections) {
  const SectionPlan plan = plan_sections(sections);
  w.u8(static_cast<std::uint8_t>(plan.mode));
  if (plan.mode == SectionMode::kFrameOfReference) {
    for (std::size_t i = 0; i < sections.size(); ++i) {
      const ForParams& p = plan.fors[i];
      w.u32(static_cast<std::uint32_t>(p.vmin));
      w.u8(p.step);
      w.u8(p.ubits);
      BitSink sink(w);
      for (std::int32_t v : sections[i]) {
        const auto residue = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(static_cast<std::int64_t>(v) -
                                       p.vmin) /
            p.step);
        if (p.ubits > 0) sink.push(residue, p.ubits);
      }
      sink.byte_align();
    }
    return plan.bytes;
  }
  const auto& lengths = plan.huff.lengths;
  w.u32(static_cast<std::uint32_t>(lengths.size()));
  for (std::uint8_t len : lengths) w.u8(len);
  CanonicalCodes codes;
  build_canonical(lengths, codes, /*require_complete=*/false);
  for (const auto& s : sections) {
    BitSink sink(w);
    for (std::int32_t v : s) {
      const std::uint32_t sym = zigzag(v);
      sink.push(codes.code_of[sym], lengths[sym]);
    }
    sink.byte_align();
  }
  return plan.bytes;
}

bool read_sections(ByteReader& r, std::span<const std::uint32_t> dims,
                   std::vector<hdc::AccumHV>& out) {
  out.assign(dims.size(), hdc::AccumHV{});
  std::uint8_t mode = 0;
  if (!r.u8(mode)) return false;
  switch (static_cast<SectionMode>(mode)) {
    case SectionMode::kFrameOfReference:
      return read_sections_for(r, dims, out);
    case SectionMode::kHuffman:
      return read_sections_huff(r, dims, out);
  }
  return false;
}

std::uint64_t sections_wire_size(
    std::span<const hdc::AccumHV> sections) noexcept {
  return plan_sections(sections).bytes;
}

}  // namespace edgehd::proto
