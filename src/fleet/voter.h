// N-modular-redundancy voting over replica predictions (the
// CoreGuard-NMR shape: replicate, then vote). A shard group's replicas
// each answer the same SelectRequest; Voter::vote tallies the Ok replies
// by configuration, every replica counting once, and publishes the
// strict-majority configuration, so one faulty replica — a corrupt
// model, a stale version a lagging node re-adopted, a bit-flipped frame —
// cannot push a bad configuration to the caller.
//
// Tie-breaking is deterministic and value-aware: when no configuration
// has a strict majority, the voter falls back to the *median* reply by
// predicted power among the candidates (ties on power broken by lowest
// configuration index, then lowest replica index). Median-of-replies is
// the classic NMR fallback for numeric channels: a single outlier replica
// can drag the mean but never the median.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/message.h"

namespace acsel::fleet {

/// One replica's contribution to a vote round.
struct ReplicaReply {
  /// Replica index within its shard group (stable across rounds).
  std::size_t replica = 0;
  serve::SelectResponse response;
};

struct VoteVerdict {
  /// The published response. When no replica answered Ok this is the
  /// first reply's failure response (so the caller always gets an
  /// explicit status), or a default InternalError response for an empty
  /// round.
  serve::SelectResponse response;
  /// Replicas that answered Ok.
  std::size_t ok_replies = 0;
  /// Ok replies agreeing with the published configuration.
  std::size_t agreeing = 0;
  /// True when at least one Ok reply named a different configuration than
  /// the winner (the fleet's vote-disagreement signal).
  bool disagreement = false;
  /// True when the majority rule was inconclusive and the median fallback
  /// decided.
  bool median_fallback = false;
};

class Voter {
 public:
  /// Votes over one round of replies. Order of `replies` does not affect
  /// the verdict (the voter sorts internally) — determinism holds even
  /// when hedging reorders arrivals.
  static VoteVerdict vote(const std::vector<ReplicaReply>& replies);
};

}  // namespace acsel::fleet
