#include "messages.hpp"

#include <algorithm>

#include "section_codec.hpp"

namespace edgehd::proto {

bool is_msg_type(std::uint8_t byte) noexcept {
  return byte >= static_cast<std::uint8_t>(MsgType::kBatchUpdate) &&
         byte <= static_cast<std::uint8_t>(MsgType::kDimensionPatch) &&
         byte != 3 && byte != 11;  // unassigned
}

bool is_reduce_phase(std::uint8_t byte) noexcept {
  return byte == kReduceInitial || byte == kReduceBatch ||
         byte == kReduceResidual || byte == kReduceReintegration;
}

const char* to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kBatchUpdate:
      return "batch_update";
    case MsgType::kQueryEscalate:
      return "query_escalate";
    case MsgType::kQueryReply:
      return "query_reply";
    case MsgType::kHealthProbe:
      return "health_probe";
    case MsgType::kNodeJoin:
      return "node_join";
    case MsgType::kNodeLeave:
      return "node_leave";
    case MsgType::kStateSync:
      return "state_sync";
    case MsgType::kReducePartial:
      return "reduce_partial";
    case MsgType::kDimensionPatch:
      return "dimension_patch";
  }
  return "unknown";
}

MsgType type_of(const Message& msg) noexcept {
  return std::visit(
      [](const auto& m) -> MsgType {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, BatchUpdate>) {
          return MsgType::kBatchUpdate;
        } else if constexpr (std::is_same_v<T, QueryEscalate>) {
          return MsgType::kQueryEscalate;
        } else if constexpr (std::is_same_v<T, QueryReply>) {
          return MsgType::kQueryReply;
        } else if constexpr (std::is_same_v<T, HealthProbe>) {
          return MsgType::kHealthProbe;
        } else if constexpr (std::is_same_v<T, NodeJoin>) {
          return MsgType::kNodeJoin;
        } else if constexpr (std::is_same_v<T, NodeLeave>) {
          return MsgType::kNodeLeave;
        } else if constexpr (std::is_same_v<T, StateSync>) {
          return MsgType::kStateSync;
        } else if constexpr (std::is_same_v<T, ReducePartial>) {
          return MsgType::kReducePartial;
        } else {
          return MsgType::kDimensionPatch;
        }
      },
      msg);
}

std::uint64_t compressed_query_wire_size(std::size_t dim,
                                         std::size_t compression) noexcept {
  const std::size_t m = std::max<std::size_t>(1, compression);
  if (m == 1) return hdc::wire_bytes_bipolar(dim);
  const std::uint32_t bits =
      hdc::bits_for_magnitude(static_cast<std::int64_t>(m));
  const std::uint64_t bundle = hdc::wire_bytes_accum(dim, bits);
  return (bundle + m - 1) / m;
}

std::uint64_t wire_size(const Message& msg) noexcept {
  return std::visit(
      [](const auto& m) -> std::uint64_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, BatchUpdate>) {
          return accum_wire_size(m.accum);
        } else if constexpr (std::is_same_v<T, QueryEscalate>) {
          return bipolar_wire_size(m.query.size());
        } else if constexpr (std::is_same_v<T, QueryReply>) {
          // label + confidence + serving node/level + flags: one small
          // control frame.
          return 8 + 4 + 8 + 8 + 4 + 1;
        } else if constexpr (std::is_same_v<T, HealthProbe>) {
          // nonce + timestamp + incarnation + suspicion bitmask
          return 8 + 8 + 8 + 8;
        } else if constexpr (std::is_same_v<T, NodeJoin>) {
          return 8;  // incarnation
        } else if constexpr (std::is_same_v<T, NodeLeave>) {
          return 8 + 1;  // incarnation + planned flag
        } else if constexpr (std::is_same_v<T, StateSync>) {
          // incarnation tag + the entropy-coded section bodies (framed like
          // ReducePartial's).
          return 8 + sections_wire_size(m.sections);
        } else if constexpr (std::is_same_v<T, ReducePartial>) {
          // The entropy-coded section bodies; phase/origin/section counts
          // and dims are framing, matching how write_accum's dim/width
          // prefix is excluded from the per-accumulator accounting.
          return sections_wire_size(m.sections);
        } else {
          // DimensionPatch: dimension indices + generation counters + the
          // k-column accumulator slices (round is framing). A request form
          // is just the index list.
          std::uint64_t bytes = 4 * m.dims.size() + 2 * m.generations.size();
          for (const auto& col : m.columns) bytes += accum_wire_size(col);
          return bytes;
        }
      },
      msg);
}

}  // namespace edgehd::proto
