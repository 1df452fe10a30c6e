// Delivery substrate for proto envelopes.
//
// A LocalBus moves envelopes between NodeRuntimes and is the single place
// where protocol traffic is accounted: every delivered envelope advances the
// per-message-type "proto.<name>.messages" / "proto.<name>.bytes" registry
// counters and, when a CommStats sink is attached, charges the message's
// canonical wire_size() (payload bytes only — envelope framing is an
// implementation detail and never reaches the paper-comparable totals).
//
// Delivery is deterministic and in-process: post() invokes the
// destination's handler before returning, so a protocol session that walks
// nodes bottom-up doubles as the event loop. Every envelope round-trips
// through the real codec, which is how the facade proves the protocols run
// over actual bytes.
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
#include "net/topology.hpp"
#include "types.hpp"

namespace edgehd::proto {

/// Receiver-side callback: one delivered envelope, handed over as an rvalue
/// (the decoded copy is discarded after delivery, so a handler may move its
/// payload out).
using Handler = std::function<void(Envelope&&)>;

/// Synchronous in-process bus: post() delivers before returning, in posting
/// order, so protocol control flow stays deterministic and single-stack.
class LocalBus {
 public:
  /// Posted envelopes always round-trip through encode()/decode() before
  /// delivery; a decode failure throws (the codec broke its own contract).
  // One value, kept only because bench/e2e/bench_e2e.cpp spells kEncoded.
  enum class Codec : std::uint8_t { kEncoded };

  explicit LocalBus(std::size_t num_nodes, Codec codec = Codec::kEncoded);

  /// Registers the consumer of envelopes addressed to `node` (one handler
  /// per node; re-subscribing replaces it).
  void subscribe(net::NodeId node, Handler handler);

  /// Delivers `env` to the handler subscribed for env.dst before returning
  /// (no handler: the envelope is charged and dropped). The envelope is
  /// encoded once, charged the wire size the encoder planned, and released
  /// before the frame is decoded, so a class set is not held twice.
  void post(Envelope env);

  /// Attaches the CommStats sink charged wire_size() per posted envelope
  /// (nullptr detaches; phases swap their own sink in while they run).
  void set_charge(CommStats* sink) noexcept { charge_ = sink; }

  /// Envelopes delivered to a subscribed handler since construction.
  std::uint64_t delivered() const noexcept { return delivered_; }

 private:
  std::vector<Handler> handlers_;
  CommStats* charge_ = nullptr;
  std::uint64_t delivered_ = 0;
};

namespace detail {
/// Advances the per-type "proto.<name>.messages/bytes" registry counters by
/// one message of `bytes` (its canonical wire_size). Shared by the bus and by
/// the query walk (which accounts envelopes without a bus).
void account_delivery(const Message& msg, std::uint64_t bytes);
}  // namespace detail

}  // namespace edgehd::proto
