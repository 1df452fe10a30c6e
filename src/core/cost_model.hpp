// Analytic execution-time / energy / communication model for the four
// deployments the paper's efficiency experiments compare (Section VI-D/E/G):
//
//   DNN-GPU  — centralized MLP training/inference on the server GPU;
//   HD-GPU   — centralized EdgeHD algorithm on the server GPU;
//   HD-FPGA  — centralized EdgeHD algorithm on the Kintex-7 design;
//   EdgeHD   — the hierarchical deployment: per-node FPGA + RPi hosts,
//              model/batch hypervectors (not raw data) on the wire.
//
// Costs come from explicit operation counts priced by the platform models
// and byte counts priced by the medium models, scheduled on the
// discrete-event simulator so pipeline overlap across nodes and link
// serialization are accounted for. The cost model deliberately uses the
// *paper-scale* sample counts (Table I) — no learning actually executes
// here, so there is no need to shrink the workloads.
//
// Protocol note: the deployed EdgeHD retrains on batch hypervectors at every
// level (Section IV-B); the accuracy engine (EdgeHdSystem) additionally lets
// end nodes retrain on their local per-sample encodings, which costs no
// communication but is not charged here.
//
// Byte note: training uploads are priced as fixed-width per-accumulator
// payloads (one bits_for_magnitude-wide accumulator per class and per
// batch). That is an upper bound: the protocol ships each node's set as one
// section-coded frame per hop (proto/section_codec.hpp), which undercuts
// it — Figure 13's depth-3 deployment measured 1,016,715 training bytes
// fused against 1,335,831 under one frame per accumulator.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"
#include "edgehd.hpp"
#include "net/medium.hpp"
#include "net/platform.hpp"
#include "net/topology.hpp"

namespace edgehd::core {

/// Shape parameters of a workload (no actual samples).
struct WorkloadShape {
  std::size_t num_features = 0;
  std::size_t num_classes = 0;
  std::vector<std::size_t> partitions;  ///< per-leaf feature counts
  std::size_t train_size = 0;
  std::size_t test_size = 0;

  /// From a Table-I spec, using the paper's sample counts and an even
  /// feature partition over the spec's end nodes (1 node if non-hierarchical).
  static WorkloadShape from_spec(const data::DatasetSpec& spec);
};

/// The four compared deployments.
enum class Deployment : std::uint8_t {
  kDnnGpu,
  kHdGpu,
  kHdFpga,
  kEdgeHd,
};

/// Cost of one phase (training or inference) of one deployment.
struct PhaseCosts {
  net::SimTime time = 0;     ///< makespan
  double energy_j = 0.0;     ///< compute + communication energy
  std::uint64_t bytes = 0;   ///< bytes placed on links (per hop)
};

struct ScenarioCosts {
  PhaseCosts train;
  PhaseCosts infer;
};

/// Cost model for one workload shape under one EdgeHD configuration.
class CostModel {
 public:
  explicit CostModel(WorkloadShape shape, SystemConfig config = {});

  const WorkloadShape& shape() const noexcept { return shape_; }

  /// Full train + inference costs of a deployment on a topology/medium. For
  /// EdgeHD, inference runs at the central node (the highest-quality mode).
  ScenarioCosts evaluate(Deployment dep, const net::Topology& topo,
                         const net::Medium& medium) const;

  /// EdgeHD inference served at hierarchy level `level` (Figure 11): queries
  /// are answered by the level-`level` ancestor of each subtree, so traffic
  /// and search work stop at that level. `query_fraction` scales the test
  /// set (used by the routed mix below).
  PhaseCosts edgehd_inference_at_level(const net::Topology& topo,
                                       const net::Medium& medium,
                                       std::size_t level,
                                       double query_fraction = 1.0) const;

  /// EdgeHD inference under confidence routing (Section IV-C): queries are
  /// served at the lowest confident level. `level_fractions[i]` is the share
  /// of queries served at level i+1; defaults to the serving mix measured on
  /// the learning benches after offline training (~50/35/15 across three
  /// levels, deeper levels folded into the top entry).
  PhaseCosts edgehd_inference_routed(
      const net::Topology& topo, const net::Medium& medium,
      const std::vector<double>& level_fractions = {0.50, 0.35, 0.15}) const;

  /// Per-query inference latency when the answer is served at hierarchy
  /// level `level` (Figure 11): host overhead + the slowest leaf-to-server
  /// gather path (encode, per-hop transfer of the bipolar query, projection
  /// at each gateway) + the associative search. A single interactive query
  /// cannot amortize m-to-1 compression, so queries travel as packed bits.
  net::SimTime edgehd_query_latency(const net::Topology& topo,
                                    const net::Medium& medium,
                                    std::size_t level) const;

  /// Per-query latency of the centralized deployment on `platform`: host
  /// overhead + slowest leaf's hop-by-hop raw-feature transfer + central
  /// encode + search.
  net::SimTime centralized_query_latency(const net::Topology& topo,
                                         const net::Medium& medium,
                                         const net::Platform& platform,
                                         std::uint64_t macs_per_query) const;

  // ---- operation counts (exposed for tests and the microbench) ----------

  std::uint64_t dnn_train_macs() const;
  std::uint64_t dnn_infer_macs_per_query() const;
  std::uint64_t hd_central_train_macs(bool sparse_encoder) const;
  std::uint64_t hd_central_infer_macs_per_query(bool sparse_encoder) const;

  /// Batches per class partition: sum over classes of ceil(train_c / B).
  std::uint64_t num_batches() const;

 private:
  PhaseCosts centralized_train(const net::Topology& topo,
                               const net::Medium& medium,
                               const net::Platform& platform,
                               std::uint64_t compute_macs) const;
  PhaseCosts centralized_infer(const net::Topology& topo,
                               const net::Medium& medium,
                               const net::Platform& platform,
                               std::uint64_t macs_per_query) const;
  PhaseCosts edgehd_train(const net::Topology& topo,
                          const net::Medium& medium) const;

  /// Per-node dims for a topology (same allocation the engine uses).
  std::vector<std::size_t> node_dims(const net::Topology& topo) const;

  std::uint64_t compressed_query_bytes(std::size_t dim) const;

  WorkloadShape shape_;
  SystemConfig config_;
};

}  // namespace edgehd::core
