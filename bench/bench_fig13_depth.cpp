// Figure 13 — impact of hierarchy depth on PECAN: (a) EdgeHD speedup over
// centralized learning on the same topology at 1 Gbps and 802.11n, for
// hierarchy depths 3..7; (b) central-node accuracy vs depth, plus the
// measured training bytes.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/cost_model.hpp"

int main() {
  using namespace edgehd;
  const auto& spec = data::spec(data::DatasetId::kPecan);

  std::printf("Figure 13a: PECAN end-to-end (train+infer) speedup vs "
              "centralized HD-FPGA\n");
  bench::print_rule(60);
  std::printf("%-6s %14s %14s\n", "depth", "Wired-1Gbps", "WiFi-802.11n");
  bench::print_rule(60);

  core::WorkloadShape shape = core::WorkloadShape::from_spec(spec);
  shape.partitions = bench::hier_partitions(data::DatasetId::kPecan);
  const core::CostModel model(shape);

  for (std::size_t depth = 3; depth <= 7; ++depth) {
    const auto topo =
        net::Topology::uniform_depth(shape.partitions.size(), depth);
    const std::string prefix = "fig13.depth" + std::to_string(depth) + ".";
    std::printf("%-6zu", depth);
    for (const auto kind :
         {net::MediumKind::kWired1G, net::MediumKind::kWifi80211n}) {
      const auto& medium = net::medium(kind);
      const auto central =
          model.evaluate(core::Deployment::kHdFpga, topo, medium);
      const auto edge = model.evaluate(core::Deployment::kEdgeHd, topo, medium);
      const double central_total = static_cast<double>(central.train.time) +
                                   static_cast<double>(central.infer.time);
      const double edge_total = static_cast<double>(edge.train.time) +
                                static_cast<double>(edge.infer.time);
      std::printf(" %13.1fx",
                  bench::via_registry(prefix + "speedup." + medium.name,
                                      central_total / edge_total));
    }
    std::printf("\n");
  }
  bench::print_rule(60);

  std::printf("\nFigure 13b: PECAN central-node accuracy and train bytes "
              "vs depth\n");
  bench::print_rule(60);
  auto setup = bench::hier_setup(data::DatasetId::kPecan);
  for (std::size_t depth = 3; depth <= 7; ++depth) {
    const std::string prefix = "fig13.depth" + std::to_string(depth) + ".";
    auto ds = setup.ds;
    const auto topo = net::Topology::uniform_depth(ds.partitions.size(), depth);
    core::EdgeHdSystem system(ds, topo, setup.cfg);
    const auto comm = system.train();
    const double train_bytes = bench::via_registry(
        prefix + "train_bytes", static_cast<double>(comm.bytes));

    // Deeper chains of sign-projections lose information at fixed D; the
    // paper compensates with a larger dimensionality in deep configurations.
    auto comp_cfg = setup.cfg;
    comp_cfg.total_dim = setup.cfg.total_dim * depth / 3;
    core::EdgeHdSystem compensated(ds, topo, comp_cfg);
    compensated.train();
    const double acc = bench::via_registry(
        prefix + "central_accuracy_pct",
        bench::pct(system.accuracy_at_node(system.topology().root())));
    const double comp_acc = bench::via_registry(
        prefix + "compensated_accuracy_pct",
        bench::pct(compensated.accuracy_at_node(compensated.topology().root())));
    std::printf("depth=%zu  central accuracy = %.1f%%   (D=%zu: %.1f%%)   "
                "train bytes %.0f\n",
                depth, acc, comp_cfg.total_dim, comp_acc, train_bytes);
  }
  bench::print_rule(60);
  std::printf("paper: speedup grows with depth (3.3x at 1Gbps by depth 7); "
              "accuracy stays within ~1%% of the 3-level configuration\n");
  bench::dump_metrics("BENCH_fig13_metrics.json");
  return 0;
}
