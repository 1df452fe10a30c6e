// Hypervector types and the algebra that operates on them.
//
// EdgeHD stores hypervectors at rest in bipolar form (components in {-1,+1},
// one int8 each) and accumulates bundles of them in 32-bit integer
// accumulators. Similarity search uses pre-normalized float copies of the
// accumulators, matching the paper's FPGA optimization of folding the class
// norm into the model once per training step (Section V-B).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace edgehd::hdc {

/// A bipolar hypervector: every component is -1 or +1.
using BipolarHV = std::vector<std::int8_t>;

/// An integer accumulator hypervector, the result of bundling (element-wise
/// adding) bipolar hypervectors. Values are bounded by the bundle count.
using AccumHV = std::vector<std::int32_t>;

/// A real-valued hypervector (pre-binarization encodings, normalized models).
using RealHV = std::vector<float>;

/// Element-wise product (the HDC "binding" operation) of two bipolar
/// hypervectors of equal dimensionality. Binding is its own inverse:
/// bind(bind(a, b), b) == a.
BipolarHV bind(std::span<const std::int8_t> a, std::span<const std::int8_t> b);

/// Adds `v` element-wise into the accumulator `acc` (the "bundling"
/// operation). `acc` and `v` must have equal dimensionality.
void bundle_into(AccumHV& acc, std::span<const std::int8_t> v);

/// Subtracts `v` element-wise from `acc`; used by retraining and by
/// residual-hypervector model updates.
void unbundle_from(AccumHV& acc, std::span<const std::int8_t> v);

/// Adds integer accumulators element-wise: acc += other.
void accumulate(AccumHV& acc, std::span<const std::int32_t> other);

/// Subtracts integer accumulators element-wise: acc -= other.
void deaccumulate(AccumHV& acc, std::span<const std::int32_t> other);

/// True when every component of every accumulator is zero.
bool is_zero(std::span<const AccumHV> accums);

/// Cyclic rotation by `shift` positions (the HDC "permutation" operation),
/// used to encode sequence/order information.
BipolarHV permute(std::span<const std::int8_t> v, std::size_t shift);

/// Binarizes a real hypervector with the sign function; ties (exact zeros)
/// map to +1 so the result is strictly bipolar.
BipolarHV binarize(std::span<const float> v);

/// Binarizes an integer accumulator with the sign function; zeros map to +1.
BipolarHV binarize(std::span<const std::int32_t> v);

/// Dot product of two bipolar hypervectors. For bipolar vectors this equals
/// D - 2 * hamming_distance.
std::int64_t dot(std::span<const std::int8_t> a, std::span<const std::int8_t> b);

/// Dot product of a bipolar query against a real (normalized model) vector.
float dot(std::span<const std::int8_t> a, std::span<const float> b);

/// Dot product of two real hypervectors.
double dot(std::span<const float> a, std::span<const float> b);

/// Euclidean norm of a real hypervector.
double norm(std::span<const float> v);

/// Euclidean norm of an integer accumulator.
double norm(std::span<const std::int32_t> v);

/// Cosine similarity between two real hypervectors. Returns 0 when either
/// vector is all-zero.
double cosine(std::span<const float> a, std::span<const float> b);

/// Cosine similarity between a bipolar query and an integer class
/// accumulator. Returns 0 when the accumulator is all-zero.
double cosine(std::span<const std::int8_t> a, std::span<const std::int32_t> b);

/// Normalized Hamming distance in [0, 1] between two bipolar hypervectors.
double hamming(std::span<const std::int8_t> a, std::span<const std::int8_t> b);

/// Returns `acc / ||acc||` as a float vector; an all-zero accumulator maps
/// to an all-zero float vector.
RealHV normalized(std::span<const std::int32_t> acc);

}  // namespace edgehd::hdc
