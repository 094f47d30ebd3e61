// Heartbeat-driven membership with deterministic failure detection. Time
// is a logical tick counter advanced by the fleet driver, never a wall
// clock, so a partition scenario armed under a fixed fault seed replays
// bit-for-bit: the same heartbeats are dropped on the same ticks and the
// same nodes transit Alive -> Suspect -> Dead on the same ticks.
//
// Detection rule: a node that has not heartbeated for kSuspectAfterTicks
// ticks is Suspect (still routed to — it may just be partitioned); after
// kDeadAfterTicks ticks it is Dead and the router stops fanning out to it.
// A heartbeat from a Suspect node revives it to Alive; Dead is sticky
// until an explicit revive() (operator action), because flapping nodes
// repeatedly rejoining a quorum is worse than a smaller quorum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace acsel::fleet {

/// A fleet node: one replica process of one shard group.
struct NodeId {
  std::uint32_t shard = 0;
  std::uint32_t replica = 0;

  auto operator<=>(const NodeId&) const = default;
};

enum class NodeState : std::uint8_t { Alive = 0, Suspect = 1, Dead = 2 };

const char* to_string(NodeState state);

/// Ticks without a heartbeat before Alive -> Suspect.
inline constexpr std::uint64_t kSuspectAfterTicks = 3;
/// Ticks without a heartbeat before Suspect -> Dead (measured from the
/// last heartbeat).
inline constexpr std::uint64_t kDeadAfterTicks = 6;
static_assert(kDeadAfterTicks > kSuspectAfterTicks,
              "a node must be Suspect before it is Dead");

class Membership {
 public:
  /// Registers a node as Alive with a heartbeat at the current tick.
  void join(NodeId node);

  /// Records a heartbeat at the current tick. Revives Suspect nodes;
  /// ignored for Dead nodes (sticky) and unknown nodes.
  void heartbeat(NodeId node);

  /// Advances logical time one tick and applies the detection rule.
  /// Returns the nodes whose state changed this tick.
  std::vector<NodeId> tick();

  /// Operator override: marks a Dead (or Suspect) node Alive again with a
  /// fresh heartbeat. Unknown nodes are joined.
  void revive(NodeId node);

  /// Marks a node Dead immediately (the fleet's node-loss chaos hook and
  /// the demo's kill switch).
  void fail(NodeId node);

  NodeState state(NodeId node) const;
  bool alive(NodeId node) const { return state(node) == NodeState::Alive; }
  /// Alive or Suspect — still worth sending requests to.
  bool routable(NodeId node) const { return state(node) != NodeState::Dead; }

  std::uint64_t now() const { return now_; }
  std::size_t size() const { return nodes_.size(); }

  /// State transitions observed over this table's life (the
  /// fleet.membership_transitions metric source).
  std::uint64_t transitions() const { return transitions_; }

  /// Routable replicas of `shard`, ordered by replica index.
  std::vector<NodeId> routable_replicas(std::uint32_t shard) const;

 private:
  struct Entry {
    NodeState state = NodeState::Alive;
    std::uint64_t last_heartbeat = 0;
  };

  std::uint64_t now_ = 0;
  std::uint64_t transitions_ = 0;
  std::map<NodeId, Entry> nodes_;
};

}  // namespace acsel::fleet
