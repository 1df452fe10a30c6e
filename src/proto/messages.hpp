// Typed message schema of the EdgeHD protocols (paper Sections IV-B/C/D).
//
// Everything that crosses a link in the hierarchy is one of these messages:
//
//   BatchUpdate    — one per-class batch hypervector of size B (a wire
//                    type only: training ships batches in ReducePartial);
//   QueryEscalate  — a query hypervector escalating to an ancestor
//                    classifier during routed inference;
//   QueryReply     — the serving node's answer travelling back to the
//                    query's origin;
//   HealthProbe    — a periodic liveness heartbeat carrying the sender's
//                    incarnation and suspicion set (the failure detector's
//                    only input — see net/detector.hpp);
//   NodeJoin       — a (re)joining node announcing itself with a fresh
//                    incarnation;
//   NodeLeave      — a node's departure being recorded (planned shutdown or
//                    a detector's death declaration);
//   StateSync      — a child's k class accumulators re-synced during the
//                    rejoin session, section-coded like ReducePartial and
//                    tagged with the rejoiner's incarnation so stale syncs
//                    are rejected;
//   ReducePartial  — a node's class set for one session fused into one
//                    frame and entropy-coded as a unit (see
//                    section_codec.hpp): how models, batches, residuals and
//                    reintegration deltas move up, one frame per hop;
//   DimensionPatch — a regenerated-dimension request or delta (DESIGN.md
//                    §14).
//
// This header also owns the *canonical byte accounting*: wire_size() is the
// single source of truth for what a message costs on the air — the quantity
// every CommStats total normalizes against. The analytic cost model
// (core/cost_model.hpp) prices fixed-width per-accumulator payloads
// (accum_wire_size per class or per batch), an upper bound the
// section-coded frames undercut. The helpers below replace the per-phase
// copies that used to live in core/edgehd.cpp, core/cost_model.cpp and
// bench/bench_faults.cpp.
#pragma once

#include <cstdint>
#include <variant>

#include "hdc/hypervector.hpp"
#include "hdc/wire.hpp"

namespace edgehd::proto {

/// Wire discriminator of a message (one byte in the envelope header).
enum class MsgType : std::uint8_t {
  // 1 and 3 are unassigned (retired per-class model and residual frames);
  // decode rejects them.
  kBatchUpdate = 2,
  kQueryEscalate = 4,
  kQueryReply = 5,
  kHealthProbe = 6,
  kNodeJoin = 7,
  kNodeLeave = 8,
  kStateSync = 9,
  kReducePartial = 10,
  // 11 is unassigned (a retired schedule announcement); decode rejects it.
  kDimensionPatch = 12,
};

/// True for the bytes that name a MsgType; decode rejects every other byte.
bool is_msg_type(std::uint8_t byte) noexcept;

/// Human-readable message-type name ("batch_update", ...); also the label
/// used by the per-type "proto.<name>.*" metrics.
const char* to_string(MsgType type) noexcept;

/// One per-class batch hypervector (batch retraining, Section IV-B).
struct BatchUpdate {
  std::uint32_t class_id = 0;
  std::uint32_t batch_id = 0;
  hdc::AccumHV accum;

  friend bool operator==(const BatchUpdate&, const BatchUpdate&) = default;
};

/// A query hypervector escalating to an ancestor classifier (Section IV-C).
/// The payload is the query as encoded *at the destination node* — in a real
/// deployment the higher node re-aggregates the gathered query into its own
/// hypervector space before searching.
struct QueryEscalate {
  std::uint64_t query_id = 0;
  std::uint32_t hops = 0;  ///< escalations taken so far
  hdc::BipolarHV query;

  friend bool operator==(const QueryEscalate&, const QueryEscalate&) = default;
};

/// The serving node's verdict, returned to the query's origin.
struct QueryReply {
  std::uint64_t query_id = 0;
  std::uint32_t label = 0;
  double confidence = 0.0;
  std::uint64_t serving_node = 0;
  std::uint32_t serving_level = 0;
  std::uint8_t degraded = 0;

  friend bool operator==(const QueryReply&, const QueryReply&) = default;
};

/// Periodic liveness heartbeat. Beyond the transport diagnostics of PR 5
/// (nonce + timestamp) it now carries the failure-detection payload: the
/// sender's incarnation (bumped every time it returns from the dead, so a
/// receiver can tell a rejoin from a late packet) and the sender's current
/// suspicion set as a bitmask (node i suspected => bit i; nodes >= 64 are
/// never gossiped — direct edge evidence still covers them).
struct HealthProbe {
  std::uint64_t nonce = 0;
  std::uint64_t sent_at = 0;     ///< sender-side timestamp (virtual time)
  std::uint64_t incarnation = 0; ///< sender's membership generation
  std::uint64_t suspects = 0;    ///< gossip: bitmask of suspected node ids

  friend bool operator==(const HealthProbe&, const HealthProbe&) = default;
};

/// A (re)joining node announcing itself. `incarnation` is strictly greater
/// than any the cluster has seen from this node, which is what lets
/// receivers discard in-flight state from its previous life.
struct NodeJoin {
  std::uint64_t incarnation = 0;

  friend bool operator==(const NodeJoin&, const NodeJoin&) = default;
};

/// A departure record: either a planned shutdown announced by the node
/// itself or a detector's death declaration recorded on its behalf.
struct NodeLeave {
  std::uint64_t incarnation = 0;
  std::uint8_t planned = 0;  ///< 1 = graceful, 0 = declared dead

  friend bool operator==(const NodeLeave&, const NodeLeave&) = default;
};

/// A child's k class accumulators re-synced during a rejoin session, one
/// frame per (child, hop), its sections coded like ReducePartial's. Tagged
/// with the rejoiner's incarnation so an ancestor can reject a sync from a
/// superseded life of the node.
struct StateSync {
  std::uint64_t incarnation = 0;
  std::vector<hdc::AccumHV> sections;

  friend bool operator==(const StateSync&, const StateSync&) = default;
};

// ---- fused class-set frames ------------------------------------------------

/// ReducePartial::phase values: which session a fused frame belongs to.
/// decode rejects any other byte; 2 and 3 are unassigned (retired
/// schedules).
inline constexpr std::uint8_t kReduceInitial = 0;  ///< initial training
inline constexpr std::uint8_t kReduceBatch = 1;    ///< batch retraining
inline constexpr std::uint8_t kReduceResidual = 4;  ///< residual propagation
inline constexpr std::uint8_t kReduceReintegration = 5;  ///< reintegration

/// True for the bytes that name a ReducePartial phase.
bool is_reduce_phase(std::uint8_t byte) noexcept;

/// A node's entire contribution to one session hop fused into one frame
/// whose sections are entropy-coded as a unit by the section codec: its k
/// class accumulators (initial training), k residual bundles (residual
/// propagation) or k lifted deltas (reintegration), or every per-(class,
/// batch) accumulator, class-major and batch-ascending (batch retraining).
/// `origin` is the contributing node.
struct ReducePartial {
  std::uint8_t phase = kReduceInitial;
  std::uint32_t origin = 0;
  std::vector<hdc::AccumHV> sections;

  friend bool operator==(const ReducePartial&, const ReducePartial&) = default;
};

/// A regenerated-dimension slice moving through the hierarchy (adaptive
/// dimensionality, DESIGN.md §14). Two forms share the type:
///
///   * request (columns empty, generations empty) — parent -> child: "your
///     dimensions `dims` were scored undiscriminating; regenerate them".
///   * patch (one column per class, generations per dim) — child -> parent:
///     the per-class accumulator deltas of exactly the regenerated
///     dimensions, plus the generation counter each projection row was
///     re-derived at. Ancestors apply the k-column delta in place instead of
///     receiving full D-dimensional class accumulators.
///
/// `dims` is strictly ascending (canonical form, enforced on decode); each
/// column has dims.size() entries, columns[c] belonging to class c.
struct DimensionPatch {
  std::uint32_t round = 0;
  std::vector<std::uint32_t> dims;
  std::vector<std::uint16_t> generations;
  std::vector<hdc::AccumHV> columns;

  /// True for the parent -> child request form.
  bool is_request() const noexcept { return columns.empty(); }

  friend bool operator==(const DimensionPatch&,
                         const DimensionPatch&) = default;
};

using Message =
    std::variant<BatchUpdate, QueryEscalate, QueryReply, HealthProbe, NodeJoin,
                 NodeLeave, StateSync, ReducePartial, DimensionPatch>;

MsgType type_of(const Message& msg) noexcept;

// ---- canonical byte accounting --------------------------------------------

/// Bytes of one integer accumulator hypervector sized to its actual
/// magnitude (the BatchUpdate and DimensionPatch column payload cost).
inline std::uint64_t accum_wire_size(
    std::span<const std::int32_t> acc) noexcept {
  return hdc::wire_bytes_accum(acc);
}

/// Bytes of a D-dimensional bipolar hypervector (1 bit per dimension).
inline std::uint64_t bipolar_wire_size(std::size_t dim) noexcept {
  return hdc::wire_bytes_bipolar(dim);
}

/// Amortized bytes of one compressed query hypervector of dimensionality
/// `dim` under m-to-1 bundling (Section IV-C): m bipolar queries superpose
/// into one accumulator with |entry| <= m, and the bundle's bytes are
/// amortized over its members. m <= 1 disables compression (plain packed
/// bits). This is the single definition shared by the accuracy engine, the
/// analytic cost model and the fault benches.
std::uint64_t compressed_query_wire_size(std::size_t dim,
                                         std::size_t compression) noexcept;

/// Canonical accounting size of a message: what the paper's evaluation
/// charges for shipping it (payload only — envelope framing excluded).
std::uint64_t wire_size(const Message& msg) noexcept;

}  // namespace edgehd::proto
