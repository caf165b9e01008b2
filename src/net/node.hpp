// Reusable network node base.
//
// A BasicNode owns the glue every entity (vehicle, RSU, attacker) needs:
// a physical identity on the medium, a trajectory, a current pseudonymous
// address, and an ordered chain of frame handlers (protocol components).
// Address filtering happens here: frames addressed to another pseudonym are
// dropped, frames to this node or to broadcast are offered to each handler
// until one consumes them.
#pragma once

#include <functional>
#include <vector>

#include "mobility/motion.hpp"
#include "net/medium.hpp"

namespace blackdp::net {

/// Transmission interface handed to protocol components.
class LinkLayer {
 public:
  virtual ~LinkLayer() = default;

  /// Sends a frame; the node stamps its current address as src.
  virtual void sendTo(common::Address dst, PayloadPtr payload) = 0;
  virtual void broadcast(PayloadPtr payload) = 0;

  [[nodiscard]] virtual common::Address localAddress() const = 0;
};

class BasicNode : public Radio, public LinkLayer {
 public:
  /// Handler returns true when it consumed the frame.
  using Handler = std::function<bool(const Frame&)>;

  BasicNode(sim::Simulator& simulator, WirelessMedium& medium,
            common::NodeId id, mobility::LinearMotion motion);
  ~BasicNode() override;

  BasicNode(const BasicNode&) = delete;
  BasicNode& operator=(const BasicNode&) = delete;

  [[nodiscard]] common::NodeId id() const { return id_; }

  [[nodiscard]] common::Address localAddress() const override {
    return address_;
  }
  /// Rebinds the pseudonymous address (initial enrollment or renewal). The
  /// previous address is unbound at the medium — frames to it no longer
  /// reach (or get ACKed by) this node, which is exactly the renewal
  /// evasion channel.
  void setLocalAddress(common::Address address);

  /// Secondary receive addresses. The BlackDP detector listens on disposable
  /// identities while probing a suspect; replies to those identities must
  /// still reach this node.
  void addAlias(common::Address alias);
  void removeAlias(common::Address alias);

  /// Sends a frame with an explicit source address (a disposable identity
  /// rather than the node's own pseudonym).
  void sendFromAlias(common::Address src, common::Address dst,
                     PayloadPtr payload);

  [[nodiscard]] const mobility::LinearMotion& motion() const { return motion_; }
  /// Replaces the trajectory. Motion changes may be discontinuous (the
  /// scenario teleports fleeing attackers), so the node is re-filed in the
  /// medium's spatial grid — its bounded-drift argument only covers smooth
  /// motion since the node was last filed.
  void setMotion(mobility::LinearMotion motion) {
    motion_ = motion;
    medium_.refile(id_);
  }

  /// Current position (exact, from the trajectory).
  [[nodiscard]] mobility::Position radioPosition() const override {
    return motion_.positionAt(simulator_.now());
  }

  void sendTo(common::Address dst, PayloadPtr payload) override;
  void broadcast(PayloadPtr payload) override;

  /// Appends a protocol component to the dispatch chain.
  void addHandler(Handler handler);

  /// Transmission-failure observers (MAC ACK feedback for unicast frames).
  using FailureHandler = std::function<void(const Frame&)>;
  void addFailureHandler(FailureHandler handler);
  void onSendFailed(const Frame& frame) override;

  /// Promiscuous tap: sees every frame this radio hears, including frames
  /// addressed to other nodes, before address filtering. Watchdog-style
  /// forwarding observation (Marti et al.) builds on this.
  using PromiscuousTap = std::function<void(const Frame&)>;
  void setPromiscuousTap(PromiscuousTap tap) { tap_ = std::move(tap); }

  /// Takes the node off the air (flee / shutdown). Idempotent.
  void detachFromMedium();
  /// Puts the node back on the air (recovery after a crash), rebinding its
  /// current address and aliases. Idempotent.
  void attachToMedium();
  [[nodiscard]] bool isAttached() const { return attached_; }

  void onFrame(const Frame& frame) override;

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }

 private:
  sim::Simulator& simulator_;
  WirelessMedium& medium_;
  common::NodeId id_;
  mobility::LinearMotion motion_;
  common::Address address_{common::kNullAddress};
  std::vector<common::Address> aliases_;
  std::vector<Handler> handlers_;
  std::vector<FailureHandler> failureHandlers_;
  PromiscuousTap tap_;
  bool attached_{false};
};

}  // namespace blackdp::net
