// Live-resharding handoff payload: one agent's complete verification
// state in flight between two shards of a VerifierPool.
//
// The payload carries the agent's state slice (Verifier::export_agent:
// agent state, not its policy — the destination binds the revision the
// pool hands it), its polling schedule, and the ring move it implements.
// The wire form is JSON over the pool's dedicated handoff network, which
// injects the same faults as any other netsim link — so decode() is an
// untrusted parse surface: a hostile or truncated payload must be
// rejected whole, never partially applied (cia_fuzz target `migration`).
#pragma once

#include <cstdint>
#include <string>

#include "common/json.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "keylime/scheduler.hpp"

namespace cia::keylime {

/// Message kind for shard-to-shard agent handoff.
inline const char kMsgMigrate[] = "pool.migrate";

struct HandoffPayload {
  /// Format version written by encode(); decode() refuses anything newer.
  static constexpr int kVersion = 1;

  std::string agent_id;
  std::uint64_t source_shard = 0;
  std::uint64_t dest_shard = 0;
  json::Value agent_slice;  // Verifier::export_agent / import_agent shape
  AttestationScheduler::AgentSchedule schedule;

  Bytes encode() const;

  /// Strict parse + validation. Every field is checked — including the
  /// embedded agent slice via Verifier::validate_agent_slice and the
  /// requirement that the slice's id matches the envelope's — before the
  /// caller is allowed to see the payload, so an importing shard can
  /// apply a decoded payload without further trust decisions.
  static Result<HandoffPayload> decode(const Bytes& raw);
};

}  // namespace cia::keylime
