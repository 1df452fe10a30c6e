#include "hypervector.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

namespace edgehd::hdc {

BipolarHV bind(std::span<const std::int8_t> a, std::span<const std::int8_t> b) {
  assert(a.size() == b.size());
  BipolarHV out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = static_cast<std::int8_t>(a[i] * b[i]);
  }
  return out;
}

void bundle_into(AccumHV& acc, std::span<const std::int8_t> v) {
  assert(acc.size() == v.size());
  for (std::size_t i = 0; i < v.size(); ++i) acc[i] += v[i];
}

void unbundle_from(AccumHV& acc, std::span<const std::int8_t> v) {
  assert(acc.size() == v.size());
  for (std::size_t i = 0; i < v.size(); ++i) acc[i] -= v[i];
}

void accumulate(AccumHV& acc, std::span<const std::int32_t> other) {
  assert(acc.size() == other.size());
  for (std::size_t i = 0; i < other.size(); ++i) acc[i] += other[i];
}

void deaccumulate(AccumHV& acc, std::span<const std::int32_t> other) {
  assert(acc.size() == other.size());
  for (std::size_t i = 0; i < other.size(); ++i) acc[i] -= other[i];
}

bool is_zero(std::span<const AccumHV> accums) {
  const auto zero = [](std::int32_t v) { return v == 0; };
  return std::ranges::all_of(
      accums, [&](const AccumHV& a) { return std::ranges::all_of(a, zero); });
}

BipolarHV permute(std::span<const std::int8_t> v, std::size_t shift) {
  const std::size_t n = v.size();
  BipolarHV out(n);
  if (n == 0) return out;
  shift %= n;
  // A cyclic rotation is two straight block copies: v[0 .. n-shift) lands at
  // out[shift ..) and the wrapped tail v[n-shift ..) lands at out[0 ..).
  std::copy(v.begin(), v.end() - static_cast<std::ptrdiff_t>(shift),
            out.begin() + static_cast<std::ptrdiff_t>(shift));
  std::copy(v.end() - static_cast<std::ptrdiff_t>(shift), v.end(),
            out.begin());
  return out;
}

BipolarHV binarize(std::span<const float> v) {
  BipolarHV out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = v[i] < 0.0F ? std::int8_t{-1} : std::int8_t{1};
  }
  return out;
}

BipolarHV binarize(std::span<const std::int32_t> v) {
  BipolarHV out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = v[i] < 0 ? std::int8_t{-1} : std::int8_t{1};
  }
  return out;
}

std::int64_t dot(std::span<const std::int8_t> a, std::span<const std::int8_t> b) {
  assert(a.size() == b.size());
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += static_cast<std::int64_t>(a[i]) * b[i];
  }
  return sum;
}

float dot(std::span<const std::int8_t> a, std::span<const float> b) {
  assert(a.size() == b.size());
  // Bipolar components only flip signs, so the product reduces to
  // conditional negation — the same trick the FPGA negation block uses.
  float sum = 0.0F;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += a[i] > 0 ? b[i] : -b[i];
  }
  return sum;
}

double dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return sum;
}

double norm(std::span<const float> v) {
  double sum = 0.0;
  for (float x : v) sum += static_cast<double>(x) * x;
  return std::sqrt(sum);
}

double norm(std::span<const std::int32_t> v) {
  double sum = 0.0;
  for (std::int32_t x : v) sum += static_cast<double>(x) * x;
  return std::sqrt(sum);
}

double cosine(std::span<const float> a, std::span<const float> b) {
  const double na = norm(a);
  const double nb = norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

double cosine(std::span<const std::int8_t> a, std::span<const std::int32_t> b) {
  assert(a.size() == b.size());
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  const double nb = norm(b);
  if (nb == 0.0) return 0.0;
  const double na = std::sqrt(static_cast<double>(a.size()));
  return sum / (na * nb);
}

double hamming(std::span<const std::int8_t> a, std::span<const std::int8_t> b) {
  assert(a.size() == b.size());
  if (a.empty()) return 0.0;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++mismatches;
  }
  return static_cast<double>(mismatches) / static_cast<double>(a.size());
}

RealHV normalized(std::span<const std::int32_t> acc) {
  RealHV out(acc.size(), 0.0F);
  const double n = norm(acc);
  if (n == 0.0) return out;
  const float inv = static_cast<float>(1.0 / n);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    out[i] = static_cast<float>(acc[i]) * inv;
  }
  return out;
}

}  // namespace edgehd::hdc
