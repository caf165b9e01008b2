// Unit-disk wireless medium.
//
// Models DSRC at the connectivity level the paper assumes (§III-A): an
// identical, bidirectional transmission range for all nodes (Table I: 1000 m).
// A transmitted frame reaches every attached node within range of the sender
// at transmission time, after a deterministic per-hop latency plus seeded
// jitter (the jitter provides the tie-breaking the paper's "replies as fast
// as it can" behaviour races against). Optional i.i.d. frame loss supports
// failure-injection tests.
//
// Hot path: a uniform spatial grid keyed by cell = ⌊pos / transmissionRange⌋
// narrows each send to the cells a receiver in range can be filed in.
// Filing is incremental: attach, detach and refile (BasicNode::setMotion)
// each move one node's entry in one cell, so building a world of N nodes
// costs O(N), not a grid rebuild per attach. Entries are filed at the
// position read when they were filed, so they go stale as nodes move; the
// whole grid is refiled (reusing its cell storage) once
// maxNodeSpeedMps × (time since the last refile) passes a fixed fraction of
// the range. Until then a send scans the window
// origin ± (range + maxNodeSpeedMps × grid age), clamped to the bounding box
// of the occupied cells: no node in range can be filed outside it.
// Candidates are visited in strictly ascending node-id order, exactly as the
// plain linear scan over every attached node (spatialGrid off) visits them,
// and the in-range check precedes every RNG draw, so a run replays
// byte-identically whichever path is active (pinned by medium_grid_test).
//
// Delivery events. A jittered medium schedules one event per surviving
// receiver, each at its own jittered time. A zero-jitter medium (corridor,
// stream, the experiments preset) schedules ONE event per transmission: the
// receivers that survive send()'s per-candidate decisions are appended, in
// ascending node-id order, to a batch record in a medium-owned pool (one
// Frame plus the receivers' ids), and a single event at now + perHopLatency
// walks that list. Per receiver it applies exactly the checks and effects
// of the per-receiver event it replaces — liveness at delivery time,
// framesDelivered, the kFrameRx trace, onFrame — so the delivery order is
// unchanged: the k per-receiver events shared one `when` and had
// consecutive seqs, so nothing could run between them, and anything a
// handler schedules gets a later seq in both designs. The one event that
// used to sit mid-list, the onSendFailed of a fault-dropped unicast
// addressee, is kept in place by closing the batch before scheduling it and
// opening a new one after. Simulator::executedEvents (and the kSimRun
// run-end count) therefore counts one event per zero-jitter transmission,
// not one per receiver. Batch slots and their receiver vectors recycle, so
// the steady state allocates nothing.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/address_registry.hpp"
#include "mobility/motion.hpp"
#include "net/frame.hpp"
#include "obs/trace_event.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace blackdp::net {

/// What the medium needs from an attached node.
class Radio {
 public:
  virtual ~Radio() = default;

  /// Current physical position (queried at transmission time).
  [[nodiscard]] virtual mobility::Position radioPosition() const = 0;

  /// Frame arrival. Every in-range node hears every frame; address filtering
  /// happens in the node, as on a real shared channel.
  virtual void onFrame(const Frame& frame) = 0;

  /// 802.11-style transmission feedback: a *unicast* frame's addressee was
  /// unreachable (out of range, detached, or unknown) — no ACK came back.
  /// Broadcasts never generate this. Default: ignore.
  virtual void onSendFailed(const Frame& frame) { (void)frame; }
};

struct MediumConfig {
  double transmissionRangeM{1000.0};              ///< Table I / DSRC [12]
  sim::Duration perHopLatency{sim::Duration::microseconds(500)};
  sim::Duration maxJitter{sim::Duration::microseconds(100)};
  double lossProbability{0.0};
  /// Spatial-grid receiver index (cell size = transmission range). Off =
  /// plain linear scan over every attached node in id order, the reference
  /// the grid is tested against. Both paths are byte-identical; the grid
  /// only changes how candidates are found.
  bool spatialGrid{true};
  /// Upper bound on how fast any attached node moves between refiles; the
  /// per-send window widens by this speed × the grid's age, which keeps it
  /// a superset of the nodes in range. Table I tops out at 90 km/h =
  /// 25 m/s; the default leaves headroom. A faster or discontinuous move
  /// must be reported through WirelessMedium::refile.
  double maxNodeSpeedMps{50.0};
};

/// Channel-impairment hook (the fault-injection layer implements it).
/// Consulted once per (frame, receiver) delivery decision, *before* the
/// medium's own i.i.d. loss draw, so an uninstalled or never-dropping hook
/// leaves the medium's RNG stream — and thus the whole simulation — exactly
/// as without it.
class MediumFaultHook {
 public:
  virtual ~MediumFaultHook() = default;

  /// Anything but kNone ⇒ this delivery is lost to an injected fault, and
  /// the returned cause attributes the drop (kBurstLoss, kJam, ...).
  virtual obs::DropCause dropDelivery(
      common::NodeId sender, common::NodeId receiver,
      const mobility::Position& senderPos,
      const mobility::Position& receiverPos) = 0;
};

struct MediumStats {
  std::uint64_t framesSent{0};        ///< transmissions initiated
  std::uint64_t framesDelivered{0};   ///< per-receiver deliveries
  std::uint64_t framesLost{0};        ///< per-receiver random losses
  std::uint64_t framesFaultDropped{0};  ///< per-receiver fault-layer drops
  std::uint64_t framesBurstDropped{0};  ///< ... of which burst fades
  std::uint64_t framesJamDropped{0};    ///< ... of which jam-zone losses
  std::uint64_t sendFailures{0};      ///< unicast frames with no reachable owner
  std::uint64_t bytesSent{0};
  std::uint64_t gridRebuilds{0};      ///< whole-grid refiles (drift bound)
  /// Receivers examined by send() before the range check: the grid window's
  /// entries, or every attached node on the linear path.
  std::uint64_t candidatesScanned{0};
};

class WirelessMedium {
 public:
  WirelessMedium(sim::Simulator& simulator, sim::Rng rng,
                 MediumConfig config = {});

  WirelessMedium(const WirelessMedium&) = delete;
  WirelessMedium& operator=(const WirelessMedium&) = delete;

  /// Attaches a node's radio. The radio must outlive the medium or detach.
  void attach(common::NodeId node, Radio& radio);

  /// Detaches (e.g. vehicle left the highway). Pending deliveries to the
  /// node are suppressed, and every address bound to the node is unbound —
  /// a re-used address routes to its new owner, never to a ghost.
  void detach(common::NodeId node);

  /// Re-files a node's grid entry at its current position. Must be called
  /// whenever the node's position changes discontinuously (teleport-style
  /// setMotion) or faster than MediumConfig::maxNodeSpeedMps;
  /// BasicNode::setMotion does this automatically. O(cell); a no-op for a
  /// node that is not attached.
  void refile(common::NodeId node);

  [[nodiscard]] bool isAttached(common::NodeId node) const {
    return radioOf(node) != nullptr;
  }

  /// The grid is refiled once maxNodeSpeedMps × its age exceeds this
  /// fraction of the transmission range, so a send's window never reaches
  /// past origin ± (1 + kRefileDriftFraction) × range.
  static constexpr double kRefileDriftFraction = 0.5;

  /// Dense ids handed out for bound addresses (monotone over the run).
  [[nodiscard]] std::size_t internedAddresses() const {
    return addressIds_.size();
  }

  /// Pre-sizes the radio tables and the address interner for a fleet of
  /// `nodes` radios binding `addresses` distinct receive addresses. Scenario
  /// setup calls this before its attach storm so a 10k-vehicle corridor
  /// never rehashes or reallocates mid-attach; steady state is untouched.
  void reserve(std::size_t nodes, std::size_t addresses);

  /// Transmits a frame from `sender`. Receivers are all other attached nodes
  /// within range of the sender's position now. For unicast frames the
  /// medium additionally models the MAC-level ACK: if the bound owner of
  /// `frame.dst` is unreachable, the sender's onSendFailed() fires after the
  /// per-hop latency.
  void send(common::NodeId sender, Frame frame);

  /// Binds a receive address to a node (its pseudonym or an alias). The MAC
  /// ACK model needs to know who should have acknowledged a unicast frame.
  void bindAddress(common::Address address, common::NodeId owner);
  void unbindAddress(common::Address address);

  /// Installs (or, with nullptr, removes) the fault-layer hook. The hook
  /// must outlive the medium or be removed first. A fault-dropped *unicast*
  /// frame additionally fails the MAC ACK: the sender's onSendFailed() fires,
  /// unlike for the medium's own i.i.d. losses, which stay silent — a real
  /// MAC retries through short fades, but a burst/jam outlives the retry
  /// window, so only the fault layer surfaces as transmission failure.
  void setFaultHook(MediumFaultHook* hook) { faultHook_ = hook; }

  /// True iff a and b are currently within transmission range.
  [[nodiscard]] bool inRange(common::NodeId a, common::NodeId b) const;

  [[nodiscard]] const MediumStats& stats() const { return stats_; }
  [[nodiscard]] const MediumConfig& config() const { return config_; }

  /// The medium's private jitter/loss stream. Exposed mutably for
  /// checkpoint/restore only: the stream advances once per delivery, so a
  /// restored world must resume it mid-sequence or every post-restore
  /// tie-break would diverge from the uninterrupted run.
  [[nodiscard]] sim::Rng& rng() { return rng_; }

 private:
  /// The one distance-vs-transmissionRange predicate: send's receiver scan,
  /// the unicast MAC ACK model, and inRange() all funnel through it so the
  /// grid path cannot drift from the ACK model.
  [[nodiscard]] bool withinRange(const mobility::Position& a,
                                 const mobility::Position& b) const {
    // Squared-distance compare: sqrt is monotone, so the accept set is the
    // same as `distance(a, b) <= range`, minus one sqrt per candidate —
    // the hottest arithmetic in the broadcast fan-out.
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    return dx * dx + dy * dy <=
           config_.transmissionRangeM * config_.transmissionRangeM;
  }

  /// The node's radio, or nullptr when it is not attached: one probe.
  [[nodiscard]] Radio* radioOf(common::NodeId node) const {
    const NodeEntry* entry = index_.find(node);
    return entry != nullptr ? entry->radio : nullptr;
  }
  [[nodiscard]] std::int64_t cellOf(double coordinate) const;
  /// The slot of `node`, allocated (recycled first) if it has none.
  [[nodiscard]] std::uint32_t slotFor(common::NodeId node);
  /// Frees a slot whose node is detached and owns no address.
  void releaseSlotIfUnused(std::uint32_t slot);
  /// Unbinds dense address `id` from its owner, if it has one, and unlinks
  /// it from the owner's list.
  void releaseAddress(std::uint32_t id);
  /// Files the slot's node in the cell of its current position (moving it
  /// out of its old cell if that differs).
  void file(std::uint32_t slot);
  void unfile(std::uint32_t slot);
  /// Refiles every attached node and restarts the drift clock.
  void rebuildGrid();
  /// Fills `candidates_` with the entries of every occupied cell the window
  /// origin ± reach touches, sorted (ascending node id).
  void collectCandidates(const mobility::Position& origin, double reach);
  /// The linear path's candidates: every attached node, sorted.
  void collectAll();

  void scheduleSendFailure(common::NodeId sender, const Frame& frame);

  /// One zero-jitter transmission in flight: the frame, held once, and the
  /// receivers that survived send()'s decisions, in ascending node-id order.
  struct DeliveryBatch {
    Frame frame;
    std::vector<common::NodeId> receivers;
  };
  static constexpr std::uint32_t kNoBatch = 0xffff'ffffu;
  /// Takes a pool slot (a recycled one first) and stores `frame` in it.
  [[nodiscard]] std::uint32_t openBatch(const Frame& frame);
  /// Schedules the delivery event of `batch`, if one is open, and closes it.
  void flushBatch(std::uint32_t& batch);
  /// The batch event: delivers to every still-attached receiver in order,
  /// then releases the frame and recycles the slot.
  void deliverBatch(std::uint32_t batch);
  /// One delivery, checked and counted at delivery time (both paths).
  void deliver(common::NodeId receiver, const Frame& frame);

  /// ownerOf_ slot value meaning "this address is not currently bound".
  static constexpr std::uint32_t kUnbound = 0xffff'ffffu;
  /// End of a node's list of bound address ids.
  static constexpr std::uint32_t kNoAddress = 0xffff'ffffu;

  sim::Simulator& simulator_;
  sim::Rng rng_;
  MediumConfig config_;
  MediumStats stats_;
  /// Per-node records, map-array style: `index_` maps a node to its radio
  /// (one open-addressing probe per delivery-liveness check) and to a dense
  /// slot indexing `nodes_`. A slot lives while its node is attached or owns
  /// a bound address, and is recycled after. Grid cells and candidate lists
  /// hold keys (nodeId << 32 | slot), so sorting them sorts by node id and
  /// each still finds its record without a probe.
  struct NodeEntry {
    Radio* radio{nullptr};  ///< nullptr while detached
    std::uint32_t slot{0};
  };
  struct NodeRecord {
    common::NodeId id{};
    bool filed{false};
    Radio* radio{nullptr};  ///< same as the index entry's
    std::uint64_t cell{0};  ///< the cell it is filed in, when filed
    /// Head of the list of dense address ids bound to it (linked through
    /// nextAddress_): detach unbinds exactly these.
    std::uint32_t firstAddress{kNoAddress};
  };
  common::DenseKeyMap<common::NodeId, NodeEntry> index_;
  std::vector<NodeRecord> nodes_;
  std::vector<std::uint32_t> freeSlots_;

  /// Address → owner, split map-array style: bindAddress interns the sparse
  /// pseudonym into a dense id once, and the owner lives in a flat vector
  /// indexed by that id. The unicast ACK lookup in send() is then a probe
  /// over interned addresses plus one array read; unbinding just writes the
  /// kUnbound sentinel (dense ids are never recycled — pseudonym churn is
  /// bounded per run, so the vector tracks total distinct addresses).
  common::AddressRegistry addressIds_;
  std::vector<std::uint32_t> ownerOf_;  ///< dense address id -> NodeId value
  /// Dense address id -> the next id bound to the same owner.
  std::vector<std::uint32_t> nextAddress_;
  MediumFaultHook* faultHook_{nullptr};

  /// Spatial grid: packed (cellX, cellY) → keys of the nodes filed there, in
  /// no particular order. Cells are never erased, so a refile reuses their
  /// storage.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> cells_;
  /// Bounding box of the cells filed into since the last refile (it only
  /// grows in between, so it always covers every filed node).
  std::int64_t minCellX_{std::numeric_limits<std::int64_t>::max()};
  std::int64_t maxCellX_{std::numeric_limits<std::int64_t>::min()};
  std::int64_t minCellY_{std::numeric_limits<std::int64_t>::max()};
  std::int64_t maxCellY_{std::numeric_limits<std::int64_t>::min()};
  /// Every entry was filed at or after this time.
  sim::TimePoint gridBuiltAt_{};
  /// Candidate keys of one send, sorted (scratch, reused).
  std::vector<std::uint64_t> candidates_;
  /// Linear path: whether `candidates_` still lists every attached node.
  bool allListed_{false};

  /// Zero-jitter delivery batches, map-array style: events carry only a
  /// slot index (16-byte capture), the records live here. Handlers may
  /// send() mid-batch and grow the pool, so code indexes into it and never
  /// holds a reference across a callback.
  std::vector<DeliveryBatch> batches_;
  std::vector<std::uint32_t> freeBatches_;
};

}  // namespace blackdp::net
