#include "net/medium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace blackdp::net {
namespace {

void traceFrame(sim::Simulator& simulator, obs::EventKind kind,
                std::uint8_t op, common::NodeId node, const Frame& frame) {
  if (auto* tr = obs::Trace::active()) {
    tr->record({simulator.now().us(), kind, op, node.value(), 0,
                frame.src.value(), frame.dst.value(), 0,
                frame.payload->sizeBytes(),
                std::string{frame.payload->typeName()}});
  }
}

/// Packs a signed 2-D cell coordinate into one hash key.
std::uint64_t cellKey(std::int64_t cx, std::int64_t cy) {
  const auto ux = static_cast<std::uint32_t>(static_cast<std::int32_t>(cx));
  const auto uy = static_cast<std::uint32_t>(static_cast<std::int32_t>(cy));
  return (static_cast<std::uint64_t>(ux) << 32) | uy;
}

/// Grid/candidate entry: ordering by key orders by node id.
std::uint64_t nodeKey(common::NodeId id, std::uint32_t slot) {
  return (static_cast<std::uint64_t>(id.value()) << 32) | slot;
}

/// Widens each send's window to absorb floating-point rounding in
/// positions and in the squared-distance range test.
constexpr double kReachSlackM = 1e-3;

}  // namespace

WirelessMedium::WirelessMedium(sim::Simulator& simulator, sim::Rng rng,
                               MediumConfig config)
    : simulator_{simulator},
      rng_{rng},
      config_{config},
      gridBuiltAt_{simulator.now()} {
  BDP_ASSERT_MSG(config_.transmissionRangeM > 0.0,
                 "transmission range must be positive");
}

void WirelessMedium::reserve(std::size_t nodes, std::size_t addresses) {
  index_.reserve(nodes);
  nodes_.reserve(nodes);
  addressIds_.reserve(addresses);
  ownerOf_.reserve(addresses);
  nextAddress_.reserve(addresses);
}

std::uint32_t WirelessMedium::slotFor(common::NodeId node) {
  if (const NodeEntry* entry = index_.find(node)) return entry->slot;
  std::uint32_t slot = 0;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[slot] = NodeRecord{node};
  index_[node] = NodeEntry{nullptr, slot};
  return slot;
}

void WirelessMedium::releaseSlotIfUnused(std::uint32_t slot) {
  const NodeRecord& record = nodes_[slot];
  if (record.radio != nullptr || record.firstAddress != kNoAddress) return;
  index_.erase(record.id);
  freeSlots_.push_back(slot);
}

void WirelessMedium::attach(common::NodeId node, Radio& radio) {
  BDP_ASSERT_MSG(!isAttached(node), "node attached twice");
  const std::uint32_t slot = slotFor(node);
  index_.find(node)->radio = &radio;
  nodes_[slot].radio = &radio;
  if (config_.spatialGrid) {
    file(slot);
  } else {
    allListed_ = false;
  }
}

void WirelessMedium::detach(common::NodeId node) {
  NodeEntry* entry = index_.find(node);
  if (entry == nullptr) return;
  const std::uint32_t slot = entry->slot;
  entry->radio = nullptr;
  NodeRecord& record = nodes_[slot];
  // A detached node must not keep ownership of any receive address: a later
  // re-use of the address binds it to its new owner, and until then unicasts
  // to it fail the MAC ACK as unreachable rather than consulting a ghost.
  for (std::uint32_t id = record.firstAddress; id != kNoAddress;
       id = nextAddress_[id]) {
    ownerOf_[id] = kUnbound;
  }
  record.firstAddress = kNoAddress;
  if (record.radio != nullptr) {
    unfile(slot);
    record.radio = nullptr;
    allListed_ = false;
  }
  releaseSlotIfUnused(slot);
}

void WirelessMedium::refile(common::NodeId node) {
  if (!config_.spatialGrid) return;
  const NodeEntry* entry = index_.find(node);
  if (entry != nullptr && entry->radio != nullptr) file(entry->slot);
}

void WirelessMedium::bindAddress(common::Address address,
                                 common::NodeId owner) {
  if (address == common::kNullAddress || address == common::kBroadcastAddress) {
    return;
  }
  const std::uint32_t id = addressIds_.intern(address);
  if (id >= ownerOf_.size()) {
    ownerOf_.resize(id + 1, kUnbound);
    nextAddress_.resize(id + 1, kNoAddress);
  }
  if (ownerOf_[id] == owner.value()) return;
  releaseAddress(id);
  NodeRecord& record = nodes_[slotFor(owner)];
  nextAddress_[id] = record.firstAddress;
  record.firstAddress = id;
  ownerOf_[id] = owner.value();
}

void WirelessMedium::unbindAddress(common::Address address) {
  const std::uint32_t id = addressIds_.find(address);
  if (id != common::AddressRegistry::kNoId) releaseAddress(id);
}

void WirelessMedium::releaseAddress(std::uint32_t id) {
  const std::uint32_t owner = ownerOf_[id];
  if (owner == kUnbound) return;
  ownerOf_[id] = kUnbound;
  const NodeEntry* entry = index_.find(common::NodeId{owner});
  BDP_ASSERT_MSG(entry != nullptr, "bound address without an owner record");
  std::uint32_t* link = &nodes_[entry->slot].firstAddress;
  while (*link != id) {
    BDP_ASSERT(*link != kNoAddress);
    link = &nextAddress_[*link];
  }
  *link = nextAddress_[id];
  releaseSlotIfUnused(entry->slot);
}

std::int64_t WirelessMedium::cellOf(double coordinate) const {
  return static_cast<std::int64_t>(
      std::floor(coordinate / config_.transmissionRangeM));
}

void WirelessMedium::file(std::uint32_t slot) {
  NodeRecord& record = nodes_[slot];
  const mobility::Position p = record.radio->radioPosition();
  const std::int64_t cx = cellOf(p.x);
  const std::int64_t cy = cellOf(p.y);
  const std::uint64_t cell = cellKey(cx, cy);
  if (record.filed && record.cell == cell) return;
  unfile(slot);
  cells_[cell].push_back(nodeKey(record.id, slot));
  record.filed = true;
  record.cell = cell;
  minCellX_ = std::min(minCellX_, cx);
  maxCellX_ = std::max(maxCellX_, cx);
  minCellY_ = std::min(minCellY_, cy);
  maxCellY_ = std::max(maxCellY_, cy);
}

void WirelessMedium::unfile(std::uint32_t slot) {
  NodeRecord& record = nodes_[slot];
  if (!record.filed) return;
  std::vector<std::uint64_t>& entries = cells_.find(record.cell)->second;
  const auto it =
      std::find(entries.begin(), entries.end(), nodeKey(record.id, slot));
  BDP_ASSERT(it != entries.end());
  *it = entries.back();
  entries.pop_back();
  record.filed = false;
}

void WirelessMedium::rebuildGrid() {
  for (auto& cell : cells_) cell.second.clear();
  minCellX_ = minCellY_ = std::numeric_limits<std::int64_t>::max();
  maxCellX_ = maxCellY_ = std::numeric_limits<std::int64_t>::min();
  for (std::uint32_t slot = 0; slot < nodes_.size(); ++slot) {
    nodes_[slot].filed = false;
    if (nodes_[slot].radio != nullptr) file(slot);
  }
  gridBuiltAt_ = simulator_.now();
  ++stats_.gridRebuilds;
}

void WirelessMedium::collectCandidates(const mobility::Position& origin,
                                       double reach) {
  candidates_.clear();
  // Every node in range of `origin` now was within `reach` of it when it
  // was filed, so its cell lies in this window; cells outside the occupied
  // box hold nobody.
  const std::int64_t x0 = std::max(cellOf(origin.x - reach), minCellX_);
  const std::int64_t x1 = std::min(cellOf(origin.x + reach), maxCellX_);
  const std::int64_t y0 = std::max(cellOf(origin.y - reach), minCellY_);
  const std::int64_t y1 = std::min(cellOf(origin.y + reach), maxCellY_);
  for (std::int64_t cx = x0; cx <= x1; ++cx) {
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      const auto it = cells_.find(cellKey(cx, cy));
      if (it == cells_.end()) continue;
      candidates_.insert(candidates_.end(), it->second.begin(),
                         it->second.end());
    }
  }
  // Restores the global ascending-node-id visiting order the RNG contract
  // requires.
  std::sort(candidates_.begin(), candidates_.end());
}

void WirelessMedium::collectAll() {
  if (allListed_) return;
  candidates_.clear();
  for (std::uint32_t slot = 0; slot < nodes_.size(); ++slot) {
    if (nodes_[slot].radio != nullptr) {
      candidates_.push_back(nodeKey(nodes_[slot].id, slot));
    }
  }
  std::sort(candidates_.begin(), candidates_.end());
  allListed_ = true;
}

void WirelessMedium::scheduleSendFailure(common::NodeId sender,
                                         const Frame& frame) {
  simulator_.schedule(config_.perHopLatency, [this, sender, frame] {
    if (Radio* radio = radioOf(sender)) radio->onSendFailed(frame);
  });
}

std::uint32_t WirelessMedium::openBatch(const Frame& frame) {
  std::uint32_t batch = 0;
  if (!freeBatches_.empty()) {
    batch = freeBatches_.back();
    freeBatches_.pop_back();
  } else {
    batch = static_cast<std::uint32_t>(batches_.size());
    batches_.emplace_back();
  }
  batches_[batch].frame = frame;
  return batch;
}

void WirelessMedium::flushBatch(std::uint32_t& batch) {
  if (batch == kNoBatch) return;
  simulator_.schedule(config_.perHopLatency,
                      [this, index = batch] { deliverBatch(index); });
  batch = kNoBatch;
}

void WirelessMedium::deliverBatch(std::uint32_t batch) {
  // onFrame may send() and grow batches_, so the frame is held by value and
  // the receiver list is re-indexed through the pool on every step.
  const Frame frame = std::move(batches_[batch].frame);
  for (std::size_t i = 0; i < batches_[batch].receivers.size(); ++i) {
    deliver(batches_[batch].receivers[i], frame);
  }
  batches_[batch].receivers.clear();
  freeBatches_.push_back(batch);
}

void WirelessMedium::deliver(common::NodeId receiver, const Frame& frame) {
  // Deliver only if the receiver is still attached at delivery time (a
  // vehicle may leave the highway while the frame is in flight, or an
  // earlier receiver's handler may detach it).
  Radio* const live = radioOf(receiver);
  if (live == nullptr) return;
  ++stats_.framesDelivered;
  traceFrame(simulator_, obs::EventKind::kFrameRx, 0, receiver, frame);
  live->onFrame(frame);
}

void WirelessMedium::send(common::NodeId sender, Frame frame) {
  Radio* const senderRadio = radioOf(sender);
  BDP_ASSERT_MSG(senderRadio != nullptr, "send from unattached node");
  BDP_ASSERT_MSG(frame.payload != nullptr, "frame without payload");

  ++stats_.framesSent;
  stats_.bytesSent += frame.payload->sizeBytes();
  traceFrame(simulator_, obs::EventKind::kFrameTx, 0, sender, frame);

  const mobility::Position origin = senderRadio->radioPosition();

  // MAC ACK model for unicast frames: unreachable addressee → sender gets
  // a transmission-failure callback after the (ACK-timeout-like) latency.
  // A reachable addressee whose delivery the fault layer eats below fails
  // the same way (no ACK came back through the burst/jam).
  std::optional<common::NodeId> addressee;
  if (!frame.isBroadcast()) {
    const std::uint32_t dstId = addressIds_.find(frame.dst);
    const std::uint32_t ownerValue =
        dstId != common::AddressRegistry::kNoId ? ownerOf_[dstId] : kUnbound;
    const common::NodeId owner{ownerValue};
    const bool reachable =
        ownerValue != kUnbound && [&] {
          Radio* const radio = radioOf(owner);
          return radio != nullptr &&
                 withinRange(origin, radio->radioPosition());
        }();
    if (reachable) {
      addressee = owner;
    } else {
      ++stats_.sendFailures;
      traceFrame(simulator_, obs::EventKind::kFrameSendFailed,
                 static_cast<std::uint8_t>(obs::DropCause::kUnreachable),
                 sender, frame);
      scheduleSendFailure(sender, frame);
    }
  }

  // Zero jitter: every delivery of this send shares one time, so survivors
  // go into one batch event instead of one event each.
  const bool batched = config_.maxJitter <= sim::Duration{};
  std::uint32_t batch = kNoBatch;

  // One delivery decision per candidate receiver. Out-of-range candidates
  // are skipped before any RNG draw, so the grid path (which merely proposes
  // a superset of the in-range nodes) and the linear scan consume the RNG
  // stream identically.
  const auto visit = [&](common::NodeId nodeId, Radio* radio) {
    if (nodeId == sender) return;
    const mobility::Position receiverPos = radio->radioPosition();
    if (!withinRange(origin, receiverPos)) return;
    if (faultHook_ != nullptr) {
      const obs::DropCause cause =
          faultHook_->dropDelivery(sender, nodeId, origin, receiverPos);
      if (cause != obs::DropCause::kNone) {
        ++stats_.framesFaultDropped;
        if (cause == obs::DropCause::kBurstLoss) ++stats_.framesBurstDropped;
        if (cause == obs::DropCause::kJam) ++stats_.framesJamDropped;
        traceFrame(simulator_, obs::EventKind::kFrameDrop,
                   static_cast<std::uint8_t>(cause), nodeId, frame);
        if (addressee && nodeId == *addressee) {
          ++stats_.sendFailures;
          traceFrame(simulator_, obs::EventKind::kFrameSendFailed,
                     static_cast<std::uint8_t>(cause), sender, frame);
          // The failure runs between the deliveries before and after the
          // addressee, as the per-receiver events would have ordered it.
          flushBatch(batch);
          scheduleSendFailure(sender, frame);
        }
        return;
      }
    }
    if (config_.lossProbability > 0.0 &&
        rng_.bernoulli(config_.lossProbability)) {
      ++stats_.framesLost;
      traceFrame(simulator_, obs::EventKind::kFrameDrop,
                 static_cast<std::uint8_t>(obs::DropCause::kRandomLoss),
                 nodeId, frame);
      return;
    }
    if (batched) {
      if (batch == kNoBatch) batch = openBatch(frame);
      batches_[batch].receivers.push_back(nodeId);
      return;
    }
    const sim::Duration latency =
        config_.perHopLatency +
        sim::Duration::microseconds(rng_.uniformInt(0, config_.maxJitter.us()));
    simulator_.schedule(latency,
                        [this, nodeId, frame] { deliver(nodeId, frame); });
  };

  if (config_.spatialGrid) {
    double driftM =
        (simulator_.now() - gridBuiltAt_).toSeconds() * config_.maxNodeSpeedMps;
    if (driftM > kRefileDriftFraction * config_.transmissionRangeM) {
      rebuildGrid();
      driftM = 0.0;
    }
    collectCandidates(origin,
                      config_.transmissionRangeM + driftM + kReachSlackM);
  } else {
    collectAll();
  }
  stats_.candidatesScanned += candidates_.size();
  for (const std::uint64_t key : candidates_) {
    visit(common::NodeId{static_cast<std::uint32_t>(key >> 32)},
          nodes_[static_cast<std::uint32_t>(key)].radio);
  }
  flushBatch(batch);
}

bool WirelessMedium::inRange(common::NodeId a, common::NodeId b) const {
  Radio* const ra = radioOf(a);
  Radio* const rb = radioOf(b);
  if (ra == nullptr || rb == nullptr) return false;
  return withinRange(ra->radioPosition(), rb->radioPosition());
}

}  // namespace blackdp::net
