#include "node_runtime.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace edgehd::proto {

using hdc::AccumHV;

void NodeRuntime::init(net::NodeId id, const net::Topology& topology,
                       std::size_t dim, std::size_t num_classes) {
  id_ = id;
  topology_ = &topology;
  dim_ = dim;
  num_classes_ = num_classes;
  incarnations_.assign(topology.num_nodes(), 0);
  if (topology.is_leaf(id)) {
    role_ = Role::kLeaf;
  } else if (id == topology.root()) {
    role_ = Role::kCentral;
  } else {
    role_ = Role::kGateway;
  }
}

void NodeRuntime::install_leaf_encoder(std::unique_ptr<hdc::Encoder> enc) {
  leaf_encoder_ = std::move(enc);
}

void NodeRuntime::install_aggregator(std::unique_ptr<hier::HierEncoder> agg) {
  aggregator_ = std::move(agg);
}

void NodeRuntime::install_classifier(std::unique_ptr<hdc::HDClassifier> clf) {
  classifier_ = std::move(clf);
}

const hdc::HDClassifier& NodeRuntime::classifier() const {
  if (classifier_ == nullptr) {
    throw std::invalid_argument("NodeRuntime: node hosts no classifier");
  }
  return *classifier_;
}

hdc::HDClassifier& NodeRuntime::classifier() {
  if (classifier_ == nullptr) {
    throw std::invalid_argument("NodeRuntime: node hosts no classifier");
  }
  return *classifier_;
}

const hdc::Encoder& NodeRuntime::leaf_encoder() const {
  if (leaf_encoder_ == nullptr) {
    throw std::invalid_argument("NodeRuntime: node hosts no leaf encoder");
  }
  return *leaf_encoder_;
}

const hier::HierEncoder& NodeRuntime::aggregator() const {
  if (aggregator_ == nullptr) {
    throw std::invalid_argument("NodeRuntime: node hosts no aggregator");
  }
  return *aggregator_;
}

void NodeRuntime::load_training(std::vector<std::vector<float>> slices,
                                std::span<const std::size_t> labels,
                                runtime::ThreadPool& pool) {
  if (role_ != Role::kLeaf) {
    throw std::logic_error("NodeRuntime: load_training on an internal node");
  }
  if (slices.size() != labels.size()) {
    throw std::invalid_argument(
        "NodeRuntime: load_training needs one label per slice");
  }
  train_encoded_ = leaf_encoder().encode_batch(slices, pool);
  train_slices_ = std::move(slices);
  train_labels_ = labels;
}

hdc::Prediction NodeRuntime::predict(
    std::span<const std::int8_t> query) const {
  return classifier().predict(query);
}

// ---- envelope consumption ---------------------------------------------------

std::size_t NodeRuntime::child_index(net::NodeId child) const {
  const auto& kids = topology_->children(id_);
  const auto it = std::find(kids.begin(), kids.end(), child);
  if (it == kids.end()) {
    throw std::logic_error("NodeRuntime: envelope from a non-child node " +
                           std::to_string(child));
  }
  return static_cast<std::size_t>(it - kids.begin());
}

std::size_t NodeRuntime::child_dim(std::size_t child_idx) const {
  return aggregator().child_dims()[child_idx];
}

void NodeRuntime::require_phase(Phase expected, const char* what) const {
  if (phase_ != expected) {
    throw std::logic_error(std::string("NodeRuntime: ") + what +
                           " delivered outside its protocol phase");
  }
}

std::size_t NodeRuntime::checked_child(net::NodeId src,
                                       const std::vector<AccumHV>& sections,
                                       const char* what) const {
  const std::size_t ci = child_index(src);
  const std::size_t cd = child_dim(ci);
  for (const AccumHV& section : sections) {
    if (section.size() != cd) {
      throw std::logic_error(std::string("NodeRuntime: ") + what +
                             " section dimension != sender dimension");
    }
  }
  return ci;
}

void NodeRuntime::file_class_set(net::NodeId src,
                                 std::vector<AccumHV>&& sections,
                                 const char* what) {
  if (sections.size() != num_classes_) {
    throw std::logic_error(std::string("NodeRuntime: ") + what +
                           " section count != num_classes");
  }
  inbox_[checked_child(src, sections, what)] = std::move(sections);
}

void NodeRuntime::on_envelope(Envelope env) {
  std::visit(
      [&](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, BatchUpdate>) {
          throw std::logic_error(
              "NodeRuntime: BatchUpdate is not part of any protocol phase "
              "(retraining ships ReducePartial)");
        } else if constexpr (std::is_same_v<T, HealthProbe>) {
          ++probes_received_;
        } else if constexpr (std::is_same_v<T, NodeJoin>) {
          // Membership announcements advance the runtime's view of the
          // sender's generation; the session layer owns what to do about it.
          if (env.src < incarnations_.size() &&
              m.incarnation > incarnations_[env.src]) {
            incarnations_[env.src] = m.incarnation;
          }
          ++joins_received_;
        } else if constexpr (std::is_same_v<T, NodeLeave>) {
          ++leaves_received_;
        } else if constexpr (std::is_same_v<T, StateSync>) {
          // A child's checkpoint feeding a rejoin rebuild (initial training),
          // tagged with the sender's incarnation — a sync from a superseded
          // life of the node is a protocol violation.
          require_phase(Phase::kInitialTraining, "StateSync");
          if (env.src < incarnations_.size() &&
              m.incarnation < incarnations_[env.src]) {
            throw std::logic_error("NodeRuntime: StateSync from a superseded "
                                   "incarnation");
          }
          file_class_set(env.src, std::move(m.sections), "StateSync");
        } else if constexpr (std::is_same_v<T, ReducePartial>) {
          // A fused frame: the sender's entire contribution to this hop in
          // one envelope, scattered into the phase's [child][class] or
          // [child][class][batch] inbox.
          switch (m.phase) {
            case kReduceInitial:
              require_phase(Phase::kInitialTraining, "ReducePartial(initial)");
              file_class_set(env.src, std::move(m.sections),
                             "ReducePartial(initial)");
              break;
            case kReduceResidual:
              require_phase(Phase::kResidualPropagation,
                            "ReducePartial(residual)");
              file_class_set(env.src, std::move(m.sections),
                             "ReducePartial(residual)");
              residual_any_child_ = true;
              break;
            case kReduceReintegration:
              require_phase(Phase::kReintegration,
                            "ReducePartial(reintegration)");
              file_class_set(env.src, std::move(m.sections),
                             "ReducePartial(reintegration)");
              break;
            case kReduceBatch: {
              require_phase(Phase::kBatchRetraining, "ReducePartial(batch)");
              auto& slot = batch_inbox_[checked_child(
                  env.src, m.sections, "ReducePartial(batch)")];
              std::size_t expected = 0;
              for (std::size_t c = 0; c < num_classes_; ++c) {
                expected += slot[c].size();
              }
              if (m.sections.size() != expected) {
                throw std::logic_error(
                    "NodeRuntime: ReducePartial(batch) section count != "
                    "total batches");
              }
              // Class-major, batch-ascending.
              std::size_t s = 0;
              for (std::size_t c = 0; c < num_classes_; ++c) {
                for (std::size_t b = 0; b < slot[c].size(); ++b) {
                  slot[c][b] = std::move(m.sections[s++]);
                }
              }
              break;
            }
            default:
              throw std::logic_error(
                  "NodeRuntime: ReducePartial with unknown phase");
          }
        } else if constexpr (std::is_same_v<T, DimensionPatch>) {
          require_phase(Phase::kDimensionRegen, "DimensionPatch");
          if (m.is_request()) {
            // Parent -> child assignment. Checked before child_index: a
            // request legitimately arrives from the parent link.
            if (env.src != topology_->parent(id_)) {
              throw std::logic_error(
                  "NodeRuntime: DimensionPatch request from a non-parent "
                  "node " +
                  std::to_string(env.src));
            }
            for (std::uint32_t d : m.dims) {
              if (d >= dim_) {
                throw std::logic_error(
                    "NodeRuntime: DimensionPatch request dim out of range");
              }
            }
            regen_request_ = std::move(m.dims);
            regen_round_ = m.round;
          } else {
            const std::size_t ci = child_index(env.src);
            if (m.columns.size() != num_classes_) {
              throw std::logic_error(
                  "NodeRuntime: DimensionPatch column count != num_classes");
            }
            const std::size_t cd = child_dim(ci);
            for (std::uint32_t d : m.dims) {
              if (d >= cd) {
                throw std::logic_error(
                    "NodeRuntime: DimensionPatch dim out of child range");
              }
            }
            patch_inbox_[ci] = std::move(m);
          }
        } else {
          // QueryEscalate / QueryReply: query walks are handled reentrantly
          // by routing.hpp; a copy arriving over a transport bus is only
          // observed.
          ++queries_received_;
        }
      },
      env.msg);
}

std::vector<AccumHV> NodeRuntime::checkpoint_state() const {
  if (classifier_ != nullptr) {
    std::vector<AccumHV> out(num_classes_);
    for (std::size_t c = 0; c < num_classes_; ++c) {
      out[c] = classifier_->class_accumulator(c);
    }
    return out;
  }
  return own_accums_;
}

std::vector<AccumHV> NodeRuntime::aggregate_inbox(runtime::ThreadPool& pool) {
  std::vector<std::vector<AccumHV>> entries(num_classes_);
  for (std::size_t c = 0; c < num_classes_; ++c) {
    for (auto& per_child : inbox_) entries[c].push_back(std::move(per_child[c]));
  }
  return aggregator().project_batch(std::move(entries), pool);
}

// ---- initial training -------------------------------------------------------

void NodeRuntime::begin_initial_training() {
  phase_ = Phase::kInitialTraining;
  own_accums_.clear();
  if (role_ != Role::kLeaf) {
    inbox_.assign(topology_->children(id_).size(),
                  std::vector<AccumHV>(num_classes_));
  }
}

std::vector<AccumHV> NodeRuntime::finish_initial_training(
    runtime::ThreadPool& pool) {
  require_phase(Phase::kInitialTraining, "finish_initial_training");
  std::vector<AccumHV> accums;
  if (role_ == Role::kLeaf) {
    accums.assign(num_classes_, AccumHV(dim_, 0));
    for (std::size_t s = 0; s < train_encoded_.size(); ++s) {
      hdc::bundle_into(accums[train_labels_[s]], train_encoded_[s]);
    }
  } else {
    accums = aggregate_inbox(pool);
  }
  if (classifier_ != nullptr) {
    for (std::size_t c = 0; c < num_classes_; ++c) {
      classifier_->set_class_accumulator(c, accums[c]);
    }
  } else {
    own_accums_ = accums;
  }
  inbox_.clear();
  phase_ = Phase::kIdle;
  return accums;
}

// ---- batch retraining -------------------------------------------------------

void NodeRuntime::begin_batch_retraining(const ClassBatches& batches) {
  phase_ = Phase::kBatchRetraining;
  batches_ = &batches;
  if (role_ != Role::kLeaf) {
    batch_inbox_.assign(topology_->children(id_).size(), {});
    for (auto& per_child : batch_inbox_) {
      per_child.resize(num_classes_);
      for (std::size_t c = 0; c < num_classes_; ++c) {
        per_child[c].resize(batches[c].size());
      }
    }
  }
}

std::vector<std::vector<AccumHV>> NodeRuntime::finish_batch_retraining(
    runtime::ThreadPool& pool) {
  require_phase(Phase::kBatchRetraining, "finish_batch_retraining");
  const ClassBatches& batches = *batches_;
  std::vector<std::vector<AccumHV>> out(num_classes_);
  if (role_ == Role::kLeaf) {
    for (std::size_t c = 0; c < num_classes_; ++c) {
      for (const auto& batch : batches[c]) {
        AccumHV acc(dim_, 0);
        for (std::size_t s : batch) hdc::bundle_into(acc, train_encoded_[s]);
        out[c].push_back(std::move(acc));
      }
    }
  } else {
    // The whole class set in one batch projection, (class, batch) order;
    // an absent child's empty section reads as zeros.
    std::vector<std::vector<AccumHV>> entries;
    for (std::size_t c = 0; c < num_classes_; ++c) {
      for (std::size_t b = 0; b < batches[c].size(); ++b) {
        auto& entry = entries.emplace_back();
        for (auto& per_child : batch_inbox_) {
          entry.push_back(std::move(per_child[c][b]));
        }
      }
    }
    batch_inbox_.clear();
    auto flat = aggregator().project_batch(std::move(entries), pool);
    std::size_t i = 0;
    for (std::size_t c = 0; c < num_classes_; ++c) {
      for (std::size_t b = 0; b < batches[c].size(); ++b) {
        out[c].push_back(std::move(flat[i++]));
      }
    }
  }

  if (classifier_ != nullptr) {
    if (role_ == Role::kLeaf) {
      // End nodes retrain on their own per-sample encodings; batching only
      // matters for what crosses the network. Serial pass — bit-identity
      // with the protocol's reference behaviour is part of the contract.
      classifier_->retrain(train_encoded_, train_labels_);
    } else {
      std::vector<hdc::BipolarHV> hvs;
      std::vector<std::size_t> batch_labels;
      for (std::size_t c = 0; c < num_classes_; ++c) {
        for (const auto& acc : out[c]) {
          hvs.push_back(hdc::binarize(acc));
          batch_labels.push_back(c);
        }
      }
      classifier_->retrain(hvs, batch_labels);
    }
  }
  batch_inbox_.clear();
  batches_ = nullptr;
  phase_ = Phase::kIdle;
  return out;
}

// ---- residual propagation ---------------------------------------------------

void NodeRuntime::begin_residual_propagation() {
  phase_ = Phase::kResidualPropagation;
  residual_any_child_ = false;
  if (role_ != Role::kLeaf) {
    inbox_.assign(topology_->children(id_).size(),
                  std::vector<AccumHV>(num_classes_));
  }
}

std::vector<AccumHV> NodeRuntime::finish_residual_propagation(
    runtime::ThreadPool& pool) {
  require_phase(Phase::kResidualPropagation, "finish_residual_propagation");
  std::vector<AccumHV> total = residual_any_child_
                                   ? aggregate_inbox(pool)
                                   : std::vector<AccumHV>(num_classes_,
                                                          AccumHV(dim_, 0));
  if (classifier_ != nullptr) {
    auto own = classifier_->take_residuals();
    for (std::size_t c = 0; c < num_classes_; ++c) {
      hdc::accumulate(total[c], own[c]);
    }
    // Figure 5b step (2): update this node's model with everything known
    // here — its own residuals plus the children's, re-encoded.
    if (!hdc::is_zero(total)) classifier_->apply_external_residuals(total);
  } else if (!own_accums_.empty()) {
    // The checkpoint mirrors what a classifier here would hold.
    for (std::size_t c = 0; c < num_classes_; ++c) {
      hdc::deaccumulate(own_accums_[c], total[c]);
    }
  }
  inbox_.clear();
  phase_ = Phase::kIdle;
  return total;
}

// ---- straggler reintegration ------------------------------------------------

void NodeRuntime::begin_reintegration() {
  phase_ = Phase::kReintegration;
  inbox_.assign(topology_->children(id_).size(),
                std::vector<AccumHV>(num_classes_));
}

std::vector<AccumHV> NodeRuntime::finish_reintegration(
    net::NodeId child, runtime::ThreadPool& pool) {
  require_phase(Phase::kReintegration, "finish_reintegration");
  const std::size_t ci = child_index(child);
  // Lift the delta through this node's aggregator: zeros in every slot but
  // the reintegrating child's. The hierarchical encoding is linear (up to
  // its integer rescale), so adding the lifted delta to the class
  // accumulators is what aggregating the full contribution would have
  // produced.
  for (std::size_t cj = 0; cj < inbox_.size(); ++cj) {
    if (cj != ci) inbox_[cj].assign(num_classes_, AccumHV{});
  }
  std::vector<AccumHV> delta = aggregate_inbox(pool);
  for (std::size_t c = 0; c < num_classes_; ++c) {
    if (classifier_ != nullptr) {
      AccumHV acc = classifier_->class_accumulator(c);
      hdc::accumulate(acc, delta[c]);
      classifier_->set_class_accumulator(c, std::move(acc));
    } else if (!own_accums_.empty()) {
      hdc::accumulate(own_accums_[c], delta[c]);
    }
  }
  inbox_.clear();
  phase_ = Phase::kIdle;
  return delta;
}

// ---- adaptive dimensionality ------------------------------------------------

void NodeRuntime::begin_dimension_regen(std::uint32_t round) {
  phase_ = Phase::kDimensionRegen;
  regen_round_ = round;
  regen_request_.clear();
  patch_inbox_.assign(
      role_ == Role::kLeaf ? 0 : topology_->children(id_).size(),
      DimensionPatch{});
}

void NodeRuntime::set_regen_request(std::vector<std::uint32_t> dims) {
  require_phase(Phase::kDimensionRegen, "set_regen_request");
  for (std::uint32_t d : dims) {
    if (d >= dim_) {
      throw std::logic_error("NodeRuntime: regen request dim out of range");
    }
  }
  regen_request_ = std::move(dims);
}

void NodeRuntime::apply_patch(const DimensionPatch& patch) {
  for (std::size_t c = 0; c < num_classes_; ++c) {
    if (classifier_ != nullptr) {
      classifier_->add_to_dimensions(c, patch.dims, patch.columns[c]);
    } else if (!own_accums_.empty()) {
      for (std::size_t j = 0; j < patch.dims.size(); ++j) {
        own_accums_[c][patch.dims[j]] += patch.columns[c][j];
      }
    }
  }
}

DimensionPatch NodeRuntime::finish_dimension_regen_leaf() {
  require_phase(Phase::kDimensionRegen, "finish_dimension_regen_leaf");
  if (role_ != Role::kLeaf) {
    throw std::logic_error(
        "NodeRuntime: finish_dimension_regen_leaf on an internal node");
  }
  DimensionPatch out;
  out.round = regen_round_;
  if (regen_request_.empty()) {
    phase_ = Phase::kIdle;
    return out;
  }
  hdc::Encoder& enc = *leaf_encoder_;
  const std::size_t k = regen_request_.size();

  enc.regenerate_dimensions(regen_request_);
  out.dims = regen_request_;

  // Per-class delta of exactly the regenerated dimensions: the new partial
  // encoding minus the old components, summed over this leaf's samples.
  // The new components replace the old ones in the stored encodings, which
  // then equal a full encode under the regenerated projection.
  out.columns.assign(num_classes_, AccumHV(k, 0));
  std::vector<std::int8_t> fresh(k);
  for (std::size_t s = 0; s < train_encoded_.size(); ++s) {
    enc.encode_dims(train_slices_[s], out.dims, fresh);
    AccumHV& col = out.columns[train_labels_[s]];
    hdc::BipolarHV& hv = train_encoded_[s];
    for (std::size_t j = 0; j < k; ++j) {
      col[j] += fresh[j] - hv[out.dims[j]];
      hv[out.dims[j]] = fresh[j];
    }
  }
  out.generations.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    out.generations[j] = enc.dimension_generation(out.dims[j]);
  }

  apply_patch(out);
  regen_request_.clear();
  phase_ = Phase::kIdle;
  return out;
}

DimensionPatch NodeRuntime::finish_dimension_regen_internal(
    runtime::ThreadPool& pool) {
  require_phase(Phase::kDimensionRegen, "finish_dimension_regen_internal");
  if (role_ == Role::kLeaf) {
    throw std::logic_error(
        "NodeRuntime: finish_dimension_regen_internal on a leaf");
  }
  DimensionPatch out;
  out.round = regen_round_;
  const auto& kids = topology_->children(id_);
  const auto& cdims = aggregator().child_dims();
  std::vector<std::size_t> offs(kids.size() + 1, 0);
  for (std::size_t ci = 0; ci < kids.size(); ++ci) {
    offs[ci + 1] = offs[ci] + cdims[ci];
  }
  if (std::all_of(patch_inbox_.begin(), patch_inbox_.end(),
                  [](const DimensionPatch& p) { return p.dims.empty(); })) {
    patch_inbox_.clear();
    regen_request_.clear();
    phase_ = Phase::kIdle;
    return out;
  }

  // Lift each class's sparse child deltas through the aggregator: the child
  // columns scatter into the child's section (absent where a child did not
  // patch), and the projection — linear — maps the delta exactly as it would
  // have mapped the full re-contribution.
  std::vector<std::vector<AccumHV>> entries(num_classes_,
                                            std::vector<AccumHV>(kids.size()));
  for (std::size_t ci = 0; ci < kids.size(); ++ci) {
    const DimensionPatch& p = patch_inbox_[ci];
    if (p.dims.empty()) continue;
    for (std::size_t c = 0; c < num_classes_; ++c) {
      AccumHV& section = entries[c][ci];
      section.assign(cdims[ci], 0);
      for (std::size_t j = 0; j < p.dims.size(); ++j) {
        section[p.dims[j]] = p.columns[c][j];
      }
    }
  }
  const std::vector<AccumHV> lifted =
      aggregator().project_batch(std::move(entries), pool);

  if (aggregator().mode() == hier::AggregationMode::kConcatenation) {
    // Child dims map 1:1 into this node's space (children in order, each
    // patch ascending), so the merged dims stay ascending and generation
    // counters ride along.
    for (std::size_t ci = 0; ci < kids.size(); ++ci) {
      const DimensionPatch& p = patch_inbox_[ci];
      for (std::size_t j = 0; j < p.dims.size(); ++j) {
        out.dims.push_back(static_cast<std::uint32_t>(offs[ci]) + p.dims[j]);
        out.generations.push_back(
            j < p.generations.size() ? p.generations[j] : 0);
      }
    }
  } else {
    // Holographic: each output dimension mixes many inputs; keep the dims
    // whose lifted delta is non-zero in any class and zero the generations
    // (no single source row's counter applies to a mixed dimension).
    for (std::size_t d = 0; d < dim_; ++d) {
      bool nz = false;
      for (std::size_t c = 0; c < num_classes_ && !nz; ++c) {
        nz = lifted[c][d] != 0;
      }
      if (nz) out.dims.push_back(static_cast<std::uint32_t>(d));
    }
    out.generations.assign(out.dims.size(), 0);
  }

  out.columns.assign(num_classes_, AccumHV(out.dims.size(), 0));
  for (std::size_t c = 0; c < num_classes_; ++c) {
    for (std::size_t j = 0; j < out.dims.size(); ++j) {
      out.columns[c][j] = lifted[c][out.dims[j]];
    }
  }

  apply_patch(out);
  patch_inbox_.clear();
  regen_request_.clear();
  phase_ = Phase::kIdle;
  return out;
}

}  // namespace edgehd::proto
