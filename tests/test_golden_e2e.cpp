// Golden end-to-end regression: a small synthetic workload through a
// 2-level hierarchy with every source of cross-platform variance removed
// (LinearLevelEncoder leaves — no libm transcendentals — and the exact
// integer byte accounting), pinning routed accuracy, total escalations and
// total query bytes to exact values.
//
// These goldens pin *behaviour*, not an approximation: train(), the routed
// walk and the byte accounting are integer/bit-exact and independent of
// worker count and kernel backend, so any drift means a real semantic
// change somewhere in the encode/train/route/account pipeline.
//
// Updating the goldens (only after an *intentional* semantic change):
//   1. Re-run this test and read the actual values from the failure output
//      (cd build && ctest -R GoldenE2E --output-on-failure).
//   2. Confirm the shift is explained by your change (e.g. a new escalation
//      rule), not an accident — diff the metrics JSON of old vs new builds.
//   3. Paste the new values into kGolden below and record the reason in the
//      commit message.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace edgehd;

struct Golden {
  std::size_t correct;        ///< routed predictions matching test labels
  std::size_t escalations;    ///< sum over queries of (serving level - 1)
  std::uint64_t total_bytes;  ///< sum of RoutedResult::bytes
  std::uint64_t train_bytes;  ///< initial training traffic
};

// Pinned on the seed deployment below; see the update procedure above.
constexpr Golden kGolden = {176, 194, 5238, 25755};

TEST(GoldenE2E, TwoLevelHierarchyIsPinned) {
  auto ds = data::make_synthetic("golden", 24, 3, {8, 8, 8}, 600, 200, 91,
                                 3.8F, 0.5F, 0.5F);
  data::zscore_normalize(ds);

  core::SystemConfig cfg;
  cfg.total_dim = 900;
  cfg.batch_size = 8;
  cfg.num_threads = 1;
  cfg.leaf_encoder = hdc::EncoderKind::kLinearLevel;
  core::EdgeHdSystem sys(ds, net::Topology::star(3), cfg);
  ASSERT_EQ(sys.topology().depth(), 2u);

  if constexpr (obs::kEnabled) obs::MetricsRegistry::global().reset();
  const auto comm = sys.train();

  const auto start = sys.topology().leaves().front();
  std::size_t correct = 0;
  std::size_t escalations = 0;
  std::uint64_t total_bytes = 0;
  for (std::size_t i = 0; i < ds.test_size(); ++i) {
    const auto r = sys.infer_routed(ds.test_x[i], start);
    ASSERT_TRUE(r.served());
    if (r.label == ds.test_y[i]) ++correct;
    escalations += r.level - 1;
    total_bytes += r.bytes;
  }

  EXPECT_EQ(correct, kGolden.correct);
  EXPECT_EQ(escalations, kGolden.escalations);
  EXPECT_EQ(total_bytes, kGolden.total_bytes);
  EXPECT_EQ(comm.bytes, kGolden.train_bytes);

  // The metrics registry observed the same run; it must agree exactly with
  // the values computed from the returned RoutedResults.
  if constexpr (obs::kEnabled) {
    const auto& reg = obs::MetricsRegistry::global();
    EXPECT_EQ(reg.counter_value("core.routed.queries"), ds.test_size());
    EXPECT_EQ(reg.counter_value("core.routed.escalations"), escalations);
    EXPECT_EQ(reg.counter_value("core.routed.bytes"), total_bytes);
    // train() is initial training plus batch retraining; the registry splits
    // the two phases.
    EXPECT_EQ(reg.counter_value("core.train_initial.bytes") +
                  reg.counter_value("core.retrain.bytes"),
              comm.bytes);
  }
}

}  // namespace
