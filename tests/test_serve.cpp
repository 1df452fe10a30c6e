// Query-serving plane (src/serve): admission, micro-batching, async
// escalation sessions, load generation, fault behaviour and the
// determinism + accounting contracts (DESIGN.md §10).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/edgehd.hpp"
#include "data/dataset.hpp"
#include "net/fault.hpp"
#include "net/medium.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/queue.hpp"

namespace {

using namespace edgehd;
using net::kMillisecond;
using net::NodeId;

// ------------------------------------------------------------ AdmissionQueue

TEST(AdmissionQueue, ShedsAtDepthAndTracksPeak) {
  serve::AdmissionQueue q(2);
  EXPECT_TRUE(q.try_push({1, 10}));
  EXPECT_TRUE(q.try_push({2, 20}));
  EXPECT_FALSE(q.try_push({3, 30}));  // full: shed
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.peak(), 2u);
  EXPECT_EQ(q.oldest_enqueued(), 10);
  EXPECT_EQ(q.pop_front().slot, 1u);
  EXPECT_TRUE(q.try_push({4, 40}));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.oldest_enqueued(), 20);
  EXPECT_EQ(q.peak(), 2u);
}

// ------------------------------------------------------------- LoadGenerator

TEST(LoadGenerator, PoissonIsDeterministicOrderedAndQuotaBound) {
  const serve::LoadSpec spec =
      serve::LoadSpec::poisson({0, 1, 2}, 5000.0, 500, 42);
  serve::LoadGenerator a(spec, 100), b(spec, 100);
  serve::Arrival x, y;
  net::SimTime prev = 0;
  std::size_t n = 0;
  while (a.next(x)) {
    ASSERT_TRUE(b.next(y));
    EXPECT_EQ(x.at, y.at);
    EXPECT_EQ(x.origin, y.origin);
    EXPECT_EQ(x.sample, y.sample);
    EXPECT_GE(x.at, prev) << "arrivals must be globally time-ordered";
    EXPECT_LT(x.sample, 100u);
    prev = x.at;
    ++n;
  }
  EXPECT_FALSE(b.next(y));
  EXPECT_EQ(n, 500u);
}

TEST(LoadGenerator, AddingAnOriginDoesNotPerturbOthers) {
  serve::LoadSpec two = serve::LoadSpec::poisson({0, 1}, 2000.0, 100, 7);
  serve::LoadSpec three = serve::LoadSpec::poisson({0, 1, 2}, 2000.0, 300, 7);
  std::vector<serve::Arrival> from_two, from_three;
  serve::LoadGenerator g2(two, 50), g3(three, 50);
  serve::Arrival a;
  while (g2.next(a)) from_two.push_back(a);
  while (g3.next(a)) {
    if (a.origin != 2) from_three.push_back(a);
  }
  ASSERT_GE(from_three.size(), from_two.size());
  for (std::size_t i = 0; i < from_two.size(); ++i) {
    EXPECT_EQ(from_two[i].at, from_three[i].at);
    EXPECT_EQ(from_two[i].origin, from_three[i].origin);
    EXPECT_EQ(from_two[i].sample, from_three[i].sample);
  }
}

TEST(LoadGenerator, BurstyOnOffClustersArrivals) {
  const auto spec = serve::LoadSpec::bursty(
      {0}, 50'000.0, 10 * kMillisecond, 200 * kMillisecond, 400, 11);
  serve::LoadGenerator gen(spec, 10);
  serve::Arrival a;
  std::vector<net::SimTime> gaps;
  net::SimTime prev = -1;
  while (gen.next(a)) {
    if (prev >= 0) gaps.push_back(a.at - prev);
    prev = a.at;
  }
  ASSERT_GT(gaps.size(), 100u);
  // ON/OFF traffic is overdispersed: most gaps are short intra-burst ones,
  // with rare OFF-period gaps far above the mean.
  std::size_t tiny = 0, huge = 0;
  for (const auto g : gaps) {
    if (g < 1 * kMillisecond) ++tiny;
    if (g > 50 * kMillisecond) ++huge;
  }
  EXPECT_GT(tiny, gaps.size() / 2);
  EXPECT_GT(huge, 0u);
}

// ------------------------------------------------------------- serving world

struct World {
  data::Dataset ds;
  std::unique_ptr<core::EdgeHdSystem> sys;
};

World make_world(std::size_t num_threads, double threshold = 0.55) {
  World w;
  w.ds = data::make_synthetic("serve", 40, 3, {10, 10, 10, 10}, 900, 250, 91,
                              3.8F, 0.5F, 0.5F);
  data::zscore_normalize(w.ds);
  core::SystemConfig cfg;
  cfg.total_dim = 1600;
  cfg.batch_size = 8;
  cfg.confidence_threshold = threshold;
  cfg.num_threads = num_threads;
  w.sys = std::make_unique<core::EdgeHdSystem>(
      w.ds, net::Topology::paper_tree(4), cfg);
  w.sys->train();
  return w;
}

serve::ServeConfig deep_queues() {
  serve::ServeConfig cfg;
  cfg.queue_depth = 1u << 14;  // never shed
  cfg.max_batch = 16;
  return cfg;
}

// --------------------------------------------------- equivalence + batching

TEST(Serve, MicroBatchedServingMatchesSyncRoutedInference) {
  const World w = make_world(2);
  const auto leaves = w.sys->topology().leaves();
  const auto load = serve::LoadSpec::poisson(
      {leaves.begin(), leaves.end()}, 3000.0, 1200, 5);
  const auto report = w.sys->serve_run(deep_queues(), load);

  EXPECT_EQ(report.submitted, 1200u);
  EXPECT_EQ(report.served, 1200u);
  EXPECT_EQ(report.shed_admission, 0u);
  EXPECT_EQ(report.unserved, 0u);
  ASSERT_EQ(report.replies.size(), 1200u);
  EXPECT_LT(report.batches, report.served)
      << "micro-batching never kicked in at this load";

  // Every reply must match the synchronous walk bit-for-bit: same label,
  // same confidence, same serving node, same gather-byte charge.
  std::map<std::pair<std::uint64_t, NodeId>, core::RoutedResult> sync;
  for (const serve::Reply& r : report.replies) {
    const auto key = std::make_pair(r.sample, r.origin);
    auto it = sync.find(key);
    if (it == sync.end()) {
      it = sync.emplace(key, w.sys->infer_routed(w.ds.test_x[r.sample],
                                                 r.origin))
               .first;
    }
    const core::RoutedResult& s = it->second;
    EXPECT_EQ(r.result.label, s.label);
    EXPECT_EQ(r.result.confidence, s.confidence);
    EXPECT_EQ(r.result.node, s.node);
    EXPECT_EQ(r.result.level, s.level);
    EXPECT_EQ(r.result.bytes, s.bytes);
    EXPECT_FALSE(r.result.degraded);
  }
}

TEST(Serve, DeterministicAcrossRunsAndWorkerCounts) {
  std::vector<serve::ServeReport> reports;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const World w = make_world(threads);
    const auto leaves = w.sys->topology().leaves();
    const auto load = serve::LoadSpec::poisson(
        {leaves.begin(), leaves.end()}, 6000.0, 1500, 17);
    serve::ServeConfig cfg = deep_queues();
    cfg.record_replies = false;
    reports.push_back(w.sys->serve_run(cfg, load));
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].reply_hash, reports[0].reply_hash);
    EXPECT_EQ(reports[i].served, reports[0].served);
    EXPECT_EQ(reports[i].escalation_hops, reports[0].escalation_hops);
    EXPECT_EQ(reports[i].batches, reports[0].batches);
    EXPECT_EQ(reports[i].makespan, reports[0].makespan);
    EXPECT_EQ(reports[i].p50_latency_ns, reports[0].p50_latency_ns);
    EXPECT_EQ(reports[i].p95_latency_ns, reports[0].p95_latency_ns);
    EXPECT_EQ(reports[i].p99_latency_ns, reports[0].p99_latency_ns);
    EXPECT_EQ(reports[i].slo_violations, reports[0].slo_violations);
  }
}

// ----------------------------------------------- escalation byte accounting

TEST(ObsServeInvariants, BatchedEscalationAccountingPartitions) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out (-DEDGEHD_OBS=OFF)";
  }
  const World w = make_world(2, /*threshold=*/0.7);  // escalate plenty
  const auto& topo = w.sys->topology();
  const auto leaves = topo.leaves();

  // Lossy leaf uplinks make retry_bytes non-zero so the retry accounting is
  // exercised under the batcher, not just trivially equal at zero.
  net::FaultPlan plan(23);
  for (const NodeId leaf : leaves) plan.loss(leaf, 0.3);

  auto engine = w.sys->serve_start(deep_queues());
  engine->set_fault_plan(plan);
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  const auto report = engine->run(serve::LoadSpec::poisson(
      {leaves.begin(), leaves.end()}, 4000.0, 1000, 29));

  ASSERT_EQ(report.served, 1000u);
  ASSERT_GT(report.escalation_hops, 0u)
      << "no escalations; the invariants would be vacuous";

  std::uint64_t bytes = 0, retry_bytes = 0;
  for (const serve::Reply& r : report.replies) {
    bytes += r.result.bytes;
    retry_bytes += r.result.retry_bytes;
  }
  ASSERT_GT(retry_bytes, 0u) << "lossy links produced no retry bytes";

  // Per-reply sums partition the registry counters exactly.
  EXPECT_EQ(reg.counter_value("core.routed.bytes"), bytes);
  EXPECT_EQ(reg.counter_value("core.routed.retry_bytes"), retry_bytes);
  EXPECT_EQ(reg.counter_value("core.routed.queries"),
            report.served + report.unserved);
  EXPECT_EQ(reg.counter_value("core.routed.escalations"),
            report.escalation_hops);

  // One QueryEscalate envelope per hop, one QueryReply per served query —
  // the same per-type charges the synchronous walk makes.
  EXPECT_EQ(reg.counter_value("proto.query_escalate.messages"),
            report.escalation_hops);
  EXPECT_EQ(reg.counter_value("proto.query_reply.messages"), report.served);
  EXPECT_GT(reg.counter_value("proto.query_escalate.bytes"), 0u);

  // Per-node serve counters partition the served total.
  std::uint64_t serves = 0;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    serves += reg.counter_value("core.routed.serves.node" + std::to_string(n));
  }
  EXPECT_EQ(serves, report.served);

  // serve.* plane counters agree with the report.
  EXPECT_EQ(reg.counter_value("serve.submitted"), report.submitted);
  EXPECT_EQ(reg.counter_value("serve.batches"), report.batches);
  EXPECT_EQ(reg.counter_value("serve.slo_violations"), report.slo_violations);
}

// ------------------------------------------------------- faults + overload

TEST(Serve, GatewayOutageWindowDegradesThenRecovers) {
  const World w = make_world(2, /*threshold=*/0.97);  // force escalation
  const auto& topo = w.sys->topology();
  const auto leaves = topo.leaves();
  const NodeId gateway = topo.parent(leaves.front());

  // The gateway dies for a window in the middle of the run: escalations
  // from its leaves are cut short and served degraded at the leaf.
  net::FaultPlan plan(31);
  plan.crash(gateway, 50 * kMillisecond, 150 * kMillisecond);

  const auto load = serve::LoadSpec::poisson(
      {leaves.begin(), leaves.end()}, 4000.0, 1500, 13);
  const auto report = w.sys->serve_run(deep_queues(), load, plan);

  EXPECT_EQ(report.submitted, 1500u);
  EXPECT_EQ(report.served + report.unserved + report.shed_admission,
            report.submitted);
  EXPECT_GT(report.served_degraded, 0u)
      << "outage window produced no degraded serves";
  EXPECT_LT(report.served_degraded, report.served)
      << "recovery never happened: everything served degraded";

  // Degraded serves must be confined to the outage window (plus in-flight
  // stragglers one hop past it).
  for (const serve::Reply& r : report.replies) {
    if (r.result.degraded) {
      EXPECT_GE(r.completed, 50 * kMillisecond);
    }
  }
}

TEST(Serve, StaticFaultServingMatchesSyncRoutedInference) {
  // Under a fault plan that never changes, the async serving plane and the
  // synchronous walk run the same escalation rule over the same liveness:
  // every reply must equal infer_routed for its (sample, origin), down to
  // the degraded flag and the retry bytes.
  World w = make_world(2, /*threshold=*/0.7);
  const auto& topo = w.sys->topology();
  const auto leaves = topo.leaves();
  const NodeId gateway = topo.parent(leaves.front());

  std::vector<net::FaultPlan> plans(3, net::FaultPlan(37));
  plans[0].crash(gateway);
  plans[1].outage(leaves.back()).outage(gateway);
  for (const NodeId leaf : leaves) plans[2].loss(leaf, 0.25);

  for (const net::FaultPlan& plan : plans) {
    const auto report = w.sys->serve_run(
        deep_queues(),
        serve::LoadSpec::poisson({leaves.begin(), leaves.end()}, 4000.0, 400,
                                 3),
        plan);
    ASSERT_EQ(report.replies.size(), report.served + report.unserved);
    w.sys->set_fault_plan(plan);
    std::size_t affected = 0;
    for (const serve::Reply& r : report.replies) {
      const core::RoutedResult s =
          w.sys->infer_routed(w.ds.test_x[r.sample], r.origin);
      EXPECT_EQ(r.result.label, s.label);
      EXPECT_EQ(r.result.node, s.node);
      EXPECT_EQ(r.result.level, s.level);
      EXPECT_EQ(r.result.confidence, s.confidence);
      EXPECT_EQ(r.result.bytes, s.bytes);
      EXPECT_EQ(r.result.retry_bytes, s.retry_bytes);
      EXPECT_EQ(r.result.degraded, s.degraded);
      if (s.degraded || s.retry_bytes > 0) ++affected;
    }
    w.sys->clear_health();
    EXPECT_GT(affected, 0u) << "the plan changed no reply";
  }
}

TEST(Serve, FaultedRunIsDeterministicAcrossWorkerCounts) {
  std::vector<serve::ServeReport> reports;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const World w = make_world(threads, /*threshold=*/0.97);
    const auto& topo = w.sys->topology();
    const auto leaves = topo.leaves();
    net::FaultPlan plan(31);
    plan.crash(topo.parent(leaves.front()), 50 * kMillisecond,
               150 * kMillisecond);
    for (const NodeId leaf : leaves) plan.loss(leaf, 0.2);
    serve::ServeConfig cfg = deep_queues();
    cfg.record_replies = false;
    reports.push_back(w.sys->serve_run(
        cfg,
        serve::LoadSpec::poisson({leaves.begin(), leaves.end()}, 4000.0, 1200,
                                 19),
        plan));
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].reply_hash, reports[0].reply_hash);
    EXPECT_EQ(reports[i].served, reports[0].served);
    EXPECT_EQ(reports[i].served_degraded, reports[0].served_degraded);
    EXPECT_EQ(reports[i].unserved, reports[0].unserved);
    EXPECT_EQ(reports[i].shed_admission, reports[0].shed_admission);
    EXPECT_EQ(reports[i].shed_escalated, reports[0].shed_escalated);
    EXPECT_EQ(reports[i].makespan, reports[0].makespan);
  }
}

TEST(Serve, OverloadShedsAtBoundedQueueAndViolatesSlo) {
  const World w = make_world(2);
  const auto leaves = w.sys->topology().leaves();
  serve::ServeConfig cfg;
  cfg.queue_depth = 8;  // tiny queue
  cfg.max_batch = 4;
  cfg.per_query_cost = 500 * net::kMicrosecond;  // slow service
  cfg.batch_overhead = 1 * kMillisecond;
  cfg.slo = 5 * kMillisecond;
  cfg.record_replies = false;
  // Offered load far above service capacity.
  const auto report = w.sys->serve_run(
      cfg, serve::LoadSpec::poisson({leaves.begin(), leaves.end()}, 20'000.0,
                                    2000, 3));
  EXPECT_GT(report.shed_admission, 0u);
  EXPECT_EQ(report.served + report.unserved + report.shed_admission,
            report.submitted);
  EXPECT_GT(report.slo_violations, 0u);
  std::size_t peak = 0;
  for (const auto& n : report.per_node) peak = std::max(peak, n.peak_queue);
  EXPECT_LE(peak, cfg.queue_depth);
}

// ------------------------------------------------------ loop modes + facade

TEST(Serve, ClosedLoopRespectsQuotaAndThinkTime) {
  const World w = make_world(2);
  const auto leaves = w.sys->topology().leaves();
  serve::ClosedLoopSpec loop;
  loop.origins = {leaves.begin(), leaves.end()};
  loop.clients_per_origin = 2;
  loop.think = 2 * kMillisecond;
  loop.num_queries = 600;
  loop.seed = 9;
  const auto report = w.sys->serve_run(deep_queues(), loop);
  EXPECT_EQ(report.submitted, 600u);
  EXPECT_EQ(report.served + report.unserved + report.shed_admission,
            report.submitted);
  EXPECT_EQ(report.shed_admission, 0u)
      << "closed loop with deep queues cannot overload admission";
  EXPECT_GT(report.makespan, 0);
  EXPECT_GT(report.p50_latency_ns, 0.0);
}

TEST(Serve, ScriptedSubmissionsServeInOrder) {
  const World w = make_world(1);
  const auto leaves = w.sys->topology().leaves();
  auto engine = w.sys->serve_start(deep_queues());
  for (int i = 0; i < 20; ++i) {
    engine->submit(i * kMillisecond, leaves[i % leaves.size()],
                   static_cast<std::uint64_t>(i));
  }
  const auto report = engine->run();
  EXPECT_EQ(report.submitted, 20u);
  EXPECT_EQ(report.served, 20u);
  ASSERT_EQ(report.replies.size(), 20u);
  for (std::size_t i = 1; i < report.replies.size(); ++i) {
    EXPECT_GE(report.replies[i].completed, report.replies[i - 1].arrival);
  }
}

TEST(Serve, EngineValidatesInputs) {
  const World w = make_world(1);
  auto engine = w.sys->serve_start(serve::ServeConfig{});
  EXPECT_THROW(engine->submit(0, w.sys->topology().num_nodes(), 0),
               std::invalid_argument);
  EXPECT_THROW(engine->submit(0, w.sys->topology().leaves().front(),
                              w.ds.test_size()),
               std::invalid_argument);
  engine->submit(0, w.sys->topology().leaves().front(), 0);
  (void)engine->run();
  EXPECT_THROW(engine->run(), std::logic_error);  // single-shot
}

}  // namespace
