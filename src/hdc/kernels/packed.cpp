#include "packed.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "../wire.hpp"
#include "kernels.hpp"

namespace edgehd::hdc::kernels {

PackedHV pack_hv(std::span<const std::int8_t> hv) {
  PackedHV p;
  p.dim = hv.size();
  p.words.assign(packed_words(p.dim), 0);
  if (p.dim != 0) {
    active().pack_signs(hv.data(), p.dim, p.words.data(), nullptr);
  }
  return p;
}

BipolarHV unpack_hv(const PackedHV& p) {
  BipolarHV out(p.dim);
  for (std::size_t i = 0; i < p.dim; ++i) {
    const bool bit = (p.words[i / 64] >> (i % 64)) & 1U;
    out[i] = bit ? std::int8_t{1} : std::int8_t{-1};
  }
  return out;
}

PackedQuery pack_query(std::span<const std::int8_t> hv) {
  PackedQuery q;
  q.dim = hv.size();
  const std::size_t words = packed_words(q.dim);
  q.pos.assign(words, 0);
  q.neg.assign(words, 0);
  if (q.dim != 0) {
    active().pack_signs(hv.data(), q.dim, q.pos.data(), q.neg.data());
  }
  return q;
}

std::int64_t packed_dot(const PackedHV& a, const PackedHV& b) {
  assert(a.dim == b.dim);
  const std::uint64_t mismatches =
      active().xor_popcount(a.words.data(), b.words.data(), a.words.size());
  return static_cast<std::int64_t>(a.dim) -
         2 * static_cast<std::int64_t>(mismatches);
}

double packed_hamming(const PackedHV& a, const PackedHV& b) {
  assert(a.dim == b.dim);
  if (a.dim == 0) return 0.0;
  const std::uint64_t mismatches =
      active().xor_popcount(a.words.data(), b.words.data(), a.words.size());
  return static_cast<double>(mismatches) / static_cast<double>(a.dim);
}

PackedPlanes build_planes(std::span<const std::int32_t> acc) {
  PackedPlanes p;
  p.dim = acc.size();
  std::int64_t max_mag = 0;
  for (std::int32_t v : acc) {
    const std::int64_t m = v < 0 ? -static_cast<std::int64_t>(v)
                                 : static_cast<std::int64_t>(v);
    if (m > max_mag) max_mag = m;
  }
  // The wire codec's width rule: sign bit + magnitude bits, min 2. Any
  // accumulator value then fits nplanes-bit two's complement.
  p.nplanes = bits_for_magnitude(max_mag);
  const std::size_t words = packed_words(p.dim);
  p.planes.assign(p.nplanes * words, 0);
  for (std::size_t i = 0; i < p.dim; ++i) {
    // Sign-extend through 64 bits: nplanes can reach 33 for accumulators
    // near the int32 limits, and the high planes of a negative value must
    // read the replicated sign bit.
    const auto u =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(acc[i]));
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    for (std::size_t b = 0; b < p.nplanes; ++b) {
      if ((u >> b) & 1U) p.planes[b * words + i / 64] |= bit;
    }
  }
  return p;
}

std::int64_t planes_dot(const PackedQuery& q, const PackedPlanes& p) {
  if (q.dim != p.dim) {
    throw std::invalid_argument("planes_dot: dimension mismatch");
  }
  if (q.dim == 0) return 0;
  return active().planes_dot(q.pos.data(), q.neg.data(), p.planes.data(),
                             packed_words(q.dim), p.nplanes);
}

void planes_add(PackedPlanes& p, std::span<const std::uint64_t> pos,
                std::span<const std::uint64_t> neg, int sign) {
  const std::size_t words = packed_words(p.dim);
  if (pos.size() != words || neg.size() != words) {
    throw std::invalid_argument("planes_add: mask length mismatch");
  }
  if (sign != 1 && sign != -1) {
    throw std::invalid_argument("planes_add: sign must be +1 or -1");
  }
  assert(p.nplanes >= 1 || words == 0);
  assert(p.planes.size() == p.nplanes * words);
  // pos and neg are disjoint, so one pass can ripple a carry (components
  // gaining 1) and a borrow (components losing 1) side by side.
  const std::uint64_t* inc = sign > 0 ? pos.data() : neg.data();
  const std::uint64_t* dec = sign > 0 ? neg.data() : pos.data();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t carry = inc[w];
    std::uint64_t borrow = dec[w];
    std::size_t b = 0;
    for (; b + 1 < p.nplanes && (carry | borrow) != 0; ++b) {
      std::uint64_t& x = p.planes[b * words + w];
      const std::uint64_t old = x;
      x = old ^ carry ^ borrow;
      carry &= old;
      borrow &= ~old;
    }
    if ((carry | borrow) == 0) continue;
    // The ripple reached the sign plane. A carry into a clear sign bit or a
    // borrow out of a set one wraps: that component now needs one more
    // plane.
    std::uint64_t& s = p.planes[b * words + w];
    const std::uint64_t old = s;
    s = old ^ carry ^ borrow;
    const std::uint64_t overflow = (carry & ~old) | (borrow & old);
    if (overflow == 0) continue;
    // kMaxPlanes planes hold every int32 value ± 1, so they never wrap.
    assert(p.nplanes < kMaxPlanes);
    // Grow by one plane. Words before w hold updated values and words after
    // it old ones; both fit the old width, so the new plane is a copy of the
    // sign plane, except where word w's components wrapped: their true high
    // bit is the inverse of the wrapped sign bit. Values fitted the old width
    // before this ±1, so no later word can overflow the new one.
    const std::size_t top = p.nplanes * words;
    p.planes.resize(top + words);
    std::copy_n(p.planes.begin() + static_cast<std::ptrdiff_t>(top - words),
                words, p.planes.begin() + static_cast<std::ptrdiff_t>(top));
    p.planes[top + w] ^= overflow;
    ++p.nplanes;
  }
}

bool update_plane_columns(PackedPlanes& p, std::span<const std::uint32_t> dims,
                          std::span<const std::int32_t> vals) {
  assert(dims.size() == vals.size());
  if (p.nplanes == 0 && !dims.empty()) return false;
  for (std::size_t j = 0; j < dims.size(); ++j) {
    assert(dims[j] < p.dim);
    // v fits iff its bits above plane nplanes-1 are all copies of the sign
    // bit, i.e. the arithmetic shift by nplanes-1 yields 0 or -1.
    const auto v = static_cast<std::int64_t>(vals[j]);
    const std::int64_t high = v >> (p.nplanes - 1);
    if (high != 0 && high != -1) return false;
  }
  const std::size_t words = packed_words(p.dim);
  for (std::size_t j = 0; j < dims.size(); ++j) {
    const std::size_t i = dims[j];
    const auto u =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(vals[j]));
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    for (std::size_t b = 0; b < p.nplanes; ++b) {
      std::uint64_t& w = p.planes[b * words + i / 64];
      if ((u >> b) & 1U) {
        w |= bit;
      } else {
        w &= ~bit;
      }
    }
  }
  return true;
}

void packed_to_bytes(const PackedHV& p, std::uint8_t* out) {
  const std::size_t bytes = (p.dim + 7) / 8;
  for (std::size_t k = 0; k < bytes; ++k) {
    out[k] = static_cast<std::uint8_t>(p.words[k / 8] >> (8 * (k % 8)));
  }
}

PackedHV packed_from_bytes(std::span<const std::uint8_t> bytes,
                           std::size_t dim) {
  assert(bytes.size() >= (dim + 7) / 8);
  PackedHV p;
  p.dim = dim;
  p.words.assign(packed_words(dim), 0);
  const std::size_t nbytes = (dim + 7) / 8;
  for (std::size_t k = 0; k < nbytes; ++k) {
    p.words[k / 8] |= static_cast<std::uint64_t>(bytes[k]) << (8 * (k % 8));
  }
  if (dim % 64 != 0 && !p.words.empty()) {  // zero the padding bits
    p.words.back() &= (std::uint64_t{1} << (dim % 64)) - 1;
  }
  return p;
}

}  // namespace edgehd::hdc::kernels
