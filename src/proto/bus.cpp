#include "bus.hpp"

#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace edgehd::proto {

namespace detail {

namespace {

struct TypeObs {
  obs::Counter messages;
  obs::Counter bytes;
};

/// Interned once per process; indexed by the raw MsgType byte. All counts
/// are stable: protocol traffic is a deterministic function of (config,
/// seed, health), independent of scheduling.
const std::array<TypeObs, 13>& type_obs() {
  static const std::array<TypeObs, 13> table = [] {
    std::array<TypeObs, 13> t;
    if constexpr (obs::kEnabled) {
      auto& reg = obs::MetricsRegistry::global();
      for (std::uint8_t b = 1; b <= 12; ++b) {
        if (!is_msg_type(b)) continue;
        const std::string prefix =
            std::string("proto.") + to_string(static_cast<MsgType>(b)) + ".";
        t[b].messages = reg.counter(prefix + "messages");
        t[b].bytes = reg.counter(prefix + "bytes");
      }
    }
    return t;
  }();
  return table;
}

}  // namespace

void account_delivery(const Message& msg, std::uint64_t bytes) {
  const auto idx = static_cast<std::size_t>(type_of(msg));
  type_obs()[idx].messages.inc();
  type_obs()[idx].bytes.inc(bytes);
}

}  // namespace detail

// ---- LocalBus --------------------------------------------------------------

LocalBus::LocalBus(std::size_t num_nodes, Codec /*codec*/)
    : handlers_(num_nodes) {}

void LocalBus::subscribe(net::NodeId node, Handler handler) {
  if (node >= handlers_.size()) {
    throw std::out_of_range("LocalBus: node id out of range");
  }
  handlers_[node] = std::move(handler);
}

void LocalBus::post(Envelope env) {
  if (env.dst >= handlers_.size()) {
    throw std::out_of_range("LocalBus: destination out of range");
  }
  std::uint64_t size = 0;
  const std::vector<std::uint8_t> frame = encode(env, &size);
  detail::account_delivery(env.msg, size);
  env.msg = {};  // the frame carries the payload from here on
  if (charge_ != nullptr) {
    charge_->bytes += size;
    ++charge_->messages;
  }
  const Handler& handler = handlers_[env.dst];
  if (!handler) return;  // no consumer: the envelope is dropped
  ++delivered_;
  DecodeResult result = decode(frame);
  if (!result.ok()) {
    // Impossible by the codec's round-trip contract (pinned by test_proto);
    // reaching this means memory corruption or a codec bug, so fail loudly.
    throw std::logic_error(std::string("LocalBus: round-trip decode failed: ") +
                           to_string(result.error));
  }
  handler(std::move(result.envelope));
}

}  // namespace edgehd::proto
