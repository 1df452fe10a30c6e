// bench_dim — adaptive dimensionality (DESIGN.md §14): what deterministic
// (counter-derived) projections and learner-aware dimension regeneration buy
// on Table-I workloads, swept over D and the regeneration fraction.
//
// Section 1 (memory): for each (dataset, D), train once with the legacy
// stored projection rows and once with counter-derived rows at projection
// budget 0 (the memory-constrained device), and compare root accuracy and
// the leaves' resident projection bytes. At budget 0 the provider re-derives
// rows per chunk from counter streams, so its resident state is ~zero until
// regeneration allocates its 2-byte generation counters. Stored and deterministic draws are different (equally
// distributed) random projections, so each point is averaged over a few
// system seeds and the gate compares the means.
//
// Section 2 (wire): in concatenation aggregation — where every root
// dimension traces back to one leaf dimension and patches stay k columns at
// every hop — regenerate frac·D worst-scored dimensions and compare the
// DimensionPatch session's bytes against what initial training paid to ship
// the full models, plus the accuracy after the post-regeneration retrain.
//
// Writes BENCH_dim.json. `--smoke` runs a reduced sweep for CI. Exits 1 when
// a gate fails:
//   * >= 4x leaf projection-memory reduction (deterministic vs stored) at
//     every operating point, with the accuracy delta — averaged over every
//     (dataset, D, seed) pair, since a single point at bench caps carries
//     several points of draw noise — within 3 points of stored;
//   * DimensionPatch bytes <= 50% of the full-model initial-training bytes
//     at every swept fraction, with the mean post-regen accuracy delta
//     within 3 points of the no-regen baseline.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace edgehd;

constexpr std::uint64_t kSeeds[] = {7, 8, 9};
constexpr double kAccTol = 0.03;

struct TrainedRun {
  double accuracy = 0.0;
  std::size_t proj_bytes = 0;
};

TrainedRun run_once(const bench::HierSetup& setup, std::size_t total_dim,
                    hdc::ProjectionMode mode, hier::AggregationMode agg,
                    std::uint64_t seed,
                    std::size_t budget_bytes =
                        hdc::kDefaultProjectionBudgetBytes) {
  core::SystemConfig cfg = setup.cfg;
  cfg.total_dim = total_dim;
  cfg.projection_mode = mode;
  cfg.projection_budget_bytes = budget_bytes;
  cfg.aggregation = agg;
  cfg.seed = seed;
  core::EdgeHdSystem sys(setup.ds, setup.topo, cfg);
  TrainedRun r;
  sys.train_initial();
  sys.retrain_batches();
  r.accuracy = sys.accuracy_at_node(sys.topology().root());
  r.proj_bytes = sys.leaf_projection_bytes();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t train_cap = smoke ? 480 : bench::kTrainCap;
  const std::size_t test_cap = smoke ? 160 : bench::kTestCap;
  const std::vector<std::size_t> dims =
      smoke ? std::vector<std::size_t>{512, 1024}
            : std::vector<std::size_t>{512, 1024, 2048, 4096};
  const std::vector<double> fracs = {0.05, 0.10};
  const std::vector<data::DatasetId> ids = {data::DatasetId::kPamap2,
                                            data::DatasetId::kPecan};
  const double nseeds = static_cast<double>(std::size(kSeeds));

  std::printf("Adaptive dimensionality: deterministic projections + "
              "dimension regeneration (%s, %zu seeds/point)\n",
              smoke ? "smoke" : "full", std::size(kSeeds));

  bool ok = true;
  double worst_mem_ratio = 1e30;
  double acc_delta_sum = 0.0;          // deterministic - stored, per point
  std::size_t acc_delta_n = 0;
  double worst_patch_ratio = 0.0;      // patch bytes / full-model bytes
  double regen_delta_sum = 0.0;        // post-regen - no-regen, per point
  std::size_t regen_delta_n = 0;

  for (const auto id : ids) {
    const auto setup = bench::hier_setup(id, train_cap, test_cap);
    const std::string dname = data::spec(id).name;
    std::printf("\n%s: stored vs deterministic projections (holographic)\n",
                dname.c_str());
    bench::print_rule(76);
    std::printf("%6s %12s %12s %8s %10s %10s\n", "D", "stored-B",
                "determ-B", "mem-x", "acc-sto", "acc-det");
    bench::print_rule(76);

    for (const std::size_t d : dims) {
      double acc_s = 0.0;
      double acc_d = 0.0;
      std::size_t stored_b = 0;
      std::size_t det_b = 0;
      for (const std::uint64_t seed : kSeeds) {
        const auto stored = run_once(setup, d, hdc::ProjectionMode::kStored,
                                     hier::AggregationMode::kHolographic, seed);
        const auto det =
            run_once(setup, d, hdc::ProjectionMode::kDeterministic,
                     hier::AggregationMode::kHolographic, seed,
                     /*budget_bytes=*/0);
        acc_s += stored.accuracy / nseeds;
        acc_d += det.accuracy / nseeds;
        stored_b = stored.proj_bytes;
        det_b = det.proj_bytes;
      }
      const std::string base =
          "dim." + dname + ".D" + std::to_string(d) + ".";
      const double sb = bench::via_registry(
          base + "stored_proj_bytes", static_cast<double>(stored_b));
      const double db = bench::via_registry(
          base + "determ_proj_bytes", static_cast<double>(det_b));
      const double ratio =
          bench::via_registry(base + "mem_ratio", sb / std::max(1.0, db));
      acc_s = bench::via_registry(base + "stored_acc", acc_s);
      acc_d = bench::via_registry(base + "determ_acc", acc_d);
      worst_mem_ratio = std::min(worst_mem_ratio, ratio);
      acc_delta_sum += acc_d - acc_s;
      ++acc_delta_n;
      std::printf("%6zu %12.0f %12.0f %7.0fx %9.1f%% %9.1f%%\n", d, sb, db,
                  ratio, bench::pct(acc_s), bench::pct(acc_d));
    }

    std::printf("\n%s: regeneration wire bytes (concatenation)\n",
                dname.c_str());
    bench::print_rule(76);
    std::printf("%6s %6s %12s %12s %8s %10s %10s\n", "D", "frac", "full-B",
                "patch-B", "ratio", "acc-base", "acc-regen");
    bench::print_rule(76);
    for (const std::size_t d : dims) {
      double acc_base = 0.0;
      for (const std::uint64_t seed : kSeeds) {
        acc_base += run_once(setup, d, hdc::ProjectionMode::kDeterministic,
                             hier::AggregationMode::kConcatenation, seed)
                        .accuracy /
                    nseeds;
      }
      for (const double frac : fracs) {
        double acc_regen = 0.0;
        double full_bytes = 0.0;
        double patch_bytes = 0.0;
        for (const std::uint64_t seed : kSeeds) {
          core::SystemConfig cfg = setup.cfg;
          cfg.total_dim = d;
          cfg.projection_mode = hdc::ProjectionMode::kDeterministic;
          cfg.aggregation = hier::AggregationMode::kConcatenation;
          cfg.seed = seed;
          core::EdgeHdSystem sys(setup.ds, setup.topo, cfg);
          const core::CommStats initial = sys.train_initial();
          sys.retrain_batches();
          const auto root = sys.topology().root();
          const std::size_t k = std::max<std::size_t>(
              1, static_cast<std::size_t>(
                     frac * static_cast<double>(sys.node_dim(root))));
          const core::CommStats patch = sys.regenerate_dimensions(k);
          sys.retrain_batches();
          acc_regen += sys.accuracy_at_node(root) / nseeds;
          full_bytes = static_cast<double>(initial.bytes);
          patch_bytes = static_cast<double>(patch.bytes);
        }

        const std::string mbase = "dim." + dname + ".D" + std::to_string(d) +
                                  ".f" + std::to_string(
                                             static_cast<int>(frac * 100)) +
                                  ".";
        const double full_b =
            bench::via_registry(mbase + "full_model_bytes", full_bytes);
        const double patch_b =
            bench::via_registry(mbase + "patch_bytes", patch_bytes);
        const double ratio = bench::via_registry(
            mbase + "patch_ratio", patch_b / std::max(1.0, full_b));
        const double acc_r = bench::via_registry(mbase + "regen_acc", acc_regen);
        worst_patch_ratio = std::max(worst_patch_ratio, ratio);
        regen_delta_sum += acc_r - acc_base;
        ++regen_delta_n;
        std::printf("%6zu %5.0f%% %12.0f %12.0f %7.2f %9.1f%% %9.1f%%\n", d,
                    100.0 * frac, full_b, patch_b, ratio,
                    bench::pct(acc_base), bench::pct(acc_r));
      }
    }
  }

  bench::print_rule(76);
  const double mean_acc_delta =
      acc_delta_sum / static_cast<double>(acc_delta_n);
  const double mean_regen_delta =
      regen_delta_sum / static_cast<double>(regen_delta_n);
  bench::via_registry("dim.worst_mem_ratio", worst_mem_ratio);
  bench::via_registry("dim.mean_acc_delta", mean_acc_delta);
  bench::via_registry("dim.worst_patch_ratio", worst_patch_ratio);
  bench::via_registry("dim.mean_regen_delta", mean_regen_delta);
  std::printf("worst memory reduction %.0fx | mean det-vs-stored accuracy "
              "%+.2f pts | worst patch/full bytes %.2f | mean regen "
              "accuracy delta %+.2f pts\n",
              worst_mem_ratio, 100.0 * mean_acc_delta, worst_patch_ratio,
              100.0 * mean_regen_delta);
  bench::dump_metrics("BENCH_dim.json");

  if (worst_mem_ratio < 4.0) {
    std::printf("GATE FAILED: projection-memory reduction %.1fx < 4x\n",
                worst_mem_ratio);
    ok = false;
  }
  if (mean_acc_delta < -kAccTol) {
    std::printf("GATE FAILED: deterministic accuracy %.2f pts below stored "
                "on average (tolerance %.1f)\n",
                100.0 * mean_acc_delta, 100.0 * kAccTol);
    ok = false;
  }
  if (worst_patch_ratio > 0.5) {
    std::printf("GATE FAILED: patch bytes %.2f of full-model bytes > 0.50\n",
                worst_patch_ratio);
    ok = false;
  }
  if (mean_regen_delta < -kAccTol) {
    std::printf("GATE FAILED: post-regen accuracy %.2f pts below baseline "
                "on average (tolerance %.1f)\n",
                100.0 * mean_regen_delta, 100.0 * kAccTol);
    ok = false;
  }
  if (!ok) return 1;
  std::printf("gates passed: >=4x projection memory, patch bytes <= 0.5x "
              "full-model bytes, accuracy within tolerance\n");
  return 0;
}
