#include "fleet/membership.h"

#include "util/log.h"

namespace acsel::fleet {

const char* to_string(NodeState state) {
  switch (state) {
    case NodeState::Alive:
      return "Alive";
    case NodeState::Suspect:
      return "Suspect";
    case NodeState::Dead:
      return "Dead";
  }
  return "?";
}

void Membership::join(NodeId node) {
  nodes_[node] = Entry{NodeState::Alive, now_};
}

void Membership::heartbeat(NodeId node) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end() || it->second.state == NodeState::Dead) {
    return;
  }
  if (it->second.state == NodeState::Suspect) {
    it->second.state = NodeState::Alive;
    ++transitions_;
    ACSEL_LOG_INFO("fleet: node " << node.shard << "/" << node.replica
                                  << " revived by heartbeat");
  }
  it->second.last_heartbeat = now_;
}

std::vector<NodeId> Membership::tick() {
  ++now_;
  std::vector<NodeId> changed;
  for (auto& [node, entry] : nodes_) {
    if (entry.state == NodeState::Dead) {
      continue;
    }
    const std::uint64_t silent = now_ - entry.last_heartbeat;
    NodeState next = entry.state;
    if (silent >= kDeadAfterTicks) {
      next = NodeState::Dead;
    } else if (silent >= kSuspectAfterTicks) {
      next = NodeState::Suspect;
    }
    if (next != entry.state) {
      ACSEL_LOG_WARN("fleet: node " << node.shard << "/" << node.replica
                                    << " " << to_string(entry.state) << " -> "
                                    << to_string(next) << " (silent "
                                    << silent << " ticks)");
      entry.state = next;
      ++transitions_;
      changed.push_back(node);
    }
  }
  return changed;
}

void Membership::revive(NodeId node) {
  auto [it, inserted] = nodes_.try_emplace(node, Entry{NodeState::Alive, now_});
  if (!inserted) {
    if (it->second.state != NodeState::Alive) {
      ++transitions_;
    }
    it->second = Entry{NodeState::Alive, now_};
  }
}

void Membership::fail(NodeId node) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end() || it->second.state == NodeState::Dead) {
    return;
  }
  it->second.state = NodeState::Dead;
  ++transitions_;
  ACSEL_LOG_WARN("fleet: node " << node.shard << "/" << node.replica
                                << " marked Dead");
}

NodeState Membership::state(NodeId node) const {
  const auto it = nodes_.find(node);
  // Unknown nodes are Dead: nothing routes to a node that never joined.
  return it == nodes_.end() ? NodeState::Dead : it->second.state;
}

std::vector<NodeId> Membership::routable_replicas(std::uint32_t shard) const {
  std::vector<NodeId> out;
  for (const auto& [node, entry] : nodes_) {
    if (node.shard == shard && entry.state != NodeState::Dead) {
      out.push_back(node);
    }
  }
  return out;
}

}  // namespace acsel::fleet
