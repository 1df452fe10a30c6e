// Delivery substrate for proto envelopes.
//
// A Bus moves envelopes between NodeRuntimes and is the single place where
// protocol traffic is accounted: every delivered envelope advances the
// per-message-type "proto.<name>.messages" / "proto.<name>.bytes" registry
// counters and, when a CommStats sink is attached, charges the message's
// canonical wire_size() (payload bytes only — envelope framing is an
// implementation detail and never reaches the paper-comparable totals).
//
// Two implementations:
//
//  * LocalBus — deterministic in-process delivery: post() invokes the
//    destination's handler before returning, so a protocol session that
//    walks nodes bottom-up doubles as the event loop. Every envelope
//    round-trips through the real codec, which is how the facade proves
//    the protocols run over actual bytes.
//  * SimulatorBus — rides net::Simulator::send_payload: envelopes are
//    encoded, travel one hop with full link/fault semantics, and are decoded
//    at the receiver (a decode failure is counted, never fatal).
//
// Routed-inference queries deliberately bypass the bus: a query walk is
// per-query reentrant state (see routing.hpp) so infer_routed_batch can fan
// out across threads, and its byte accounting is the amortized
// query-gathering cost, not a per-envelope charge.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "envelope.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "types.hpp"

namespace edgehd::proto {

/// Receiver-side callback: one delivered envelope.
using Handler = std::function<void(const Envelope&)>;

/// Where envelopes travel. Implementations deliver to the handler subscribed
/// for env.dst and own the protocol-layer accounting.
class Bus {
 public:
  virtual ~Bus() = default;

  /// Registers the consumer of envelopes addressed to `node` (one handler
  /// per node; re-subscribing replaces it).
  virtual void subscribe(net::NodeId node, Handler handler) = 0;

  /// Posts one envelope toward env.dst.
  virtual void post(Envelope env) = 0;

  /// Attaches the CommStats sink charged wire_size() per delivered envelope
  /// (nullptr detaches; phases swap their own sink in while they run).
  virtual void set_charge(CommStats* sink) noexcept = 0;
};

/// Synchronous in-process bus: post() delivers before returning, in posting
/// order, so protocol control flow stays deterministic and single-stack.
class LocalBus final : public Bus {
 public:
  /// Posted envelopes always round-trip through encode()/decode() before
  /// delivery; a decode failure throws (the codec broke its own contract).
  // One value, kept only because bench/e2e/bench_e2e.cpp spells kEncoded.
  enum class Codec : std::uint8_t { kEncoded };

  explicit LocalBus(std::size_t num_nodes, Codec codec = Codec::kEncoded);

  void subscribe(net::NodeId node, Handler handler) override;
  void post(Envelope env) override;
  void set_charge(CommStats* sink) noexcept override { charge_ = sink; }

  /// Envelopes delivered to a subscribed handler since construction.
  std::uint64_t delivered() const noexcept { return delivered_; }

 private:
  std::vector<Handler> handlers_;
  CommStats* charge_ = nullptr;
  std::uint64_t delivered_ = 0;
};

/// Bus riding the discrete-event network simulator: each post is one
/// encoded frame on the (src, dst) link — which must be a parent/child pair
/// — with the simulator's latency, occupancy and fault semantics. Delivery
/// (and hence charging) happens when the frame lands during Simulator::run.
class SimulatorBus final : public Bus {
 public:
  /// Installs this bus as `sim`'s payload handler; the bus must outlive the
  /// simulator's run.
  explicit SimulatorBus(net::Simulator& sim);

  void subscribe(net::NodeId node, Handler handler) override;
  void post(Envelope env) override;
  void set_charge(CommStats* sink) noexcept override { charge_ = sink; }

  std::uint64_t delivered() const noexcept { return delivered_; }

  /// Frames that arrived but failed strict decode (also visible as
  /// "proto.decode.rejected" in the metrics registry).
  std::uint64_t decode_failures() const noexcept { return decode_failures_; }

 private:
  net::Simulator* sim_;
  std::vector<Handler> handlers_;
  CommStats* charge_ = nullptr;
  std::uint64_t delivered_ = 0;
  std::uint64_t decode_failures_ = 0;
};

namespace detail {
/// Advances the per-type "proto.<name>.messages/bytes" registry counters and
/// returns the message's canonical wire size. Shared by both buses and by
/// the query walk (which accounts envelopes without a bus).
std::uint64_t account_delivery(const Message& msg);
}  // namespace detail

}  // namespace edgehd::proto
