// cmtos/util/quarantine.h
//
// Per-peer malformed-PDU quarantine accounting.  A decoder refusal with a
// *valid* checksum means the peer (or something spoofing it) emitted bytes
// that are structurally not a PDU — that is misbehaviour, not line noise,
// and a peer that keeps doing it gets cut off.  Checksum failures are never
// counted here: damaged wire bytes are what an impaired link produces, and
// blaming the peer for them would tear down healthy connections during a
// corruption storm (a CRC-valid structural refusal is a 2^-32 coincidence
// for random damage, so the signal is clean).
//
// The helper is pure bookkeeping — one malformed PDU in, escalation
// decision out.
// The owning layer (ConnectionManager on the transport side, SessionTable
// on the orchestration side) performs the actual teardown.

#pragma once

#include <cstdint>
#include <map>

namespace cmtos {

class PeerQuarantine {
 public:
  enum class Action : std::uint8_t {
    kNone = 0,      // below the warn threshold: drop the PDU, nothing else
    kWarn = 1,      // warn threshold crossed (exactly once per peer)
    kEscalate = 2,  // escalation threshold crossed: tear the peer down
  };

  /// Records one structurally-invalid (CRC-valid) PDU from `peer` and
  /// returns the action the owner should take.  kWarn and kEscalate each
  /// fire at most once per peer; counts are monotonic — a peer that
  /// escalated stays quarantined for the life of this table.
  Action note_malformed(std::uint32_t peer) {
    Entry& e = peers_[peer];
    ++e.malformed;
    if (!e.escalated && e.malformed >= kEscalateAt) {
      e.escalated = true;
      return Action::kEscalate;
    }
    if (!e.warned && e.malformed >= kWarnAt) {
      e.warned = true;
      return Action::kWarn;
    }
    return Action::kNone;
  }

  /// True once the peer crossed the escalation threshold.  Owners use this
  /// to drop further traffic from the peer before decoding it.
  bool quarantined(std::uint32_t peer) const {
    auto it = peers_.find(peer);
    return it != peers_.end() && it->second.escalated;
  }

  std::int64_t malformed(std::uint32_t peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? 0 : it->second.malformed;
  }

 private:
  struct Entry {
    std::int64_t malformed = 0;
    bool warned = false;
    bool escalated = false;
  };
  /// Malformed-PDU counts at which a peer is warned about, then cut off.
  static constexpr std::int64_t kWarnAt = 4;
  static constexpr std::int64_t kEscalateAt = 16;
  std::map<std::uint32_t, Entry> peers_;
};

}  // namespace cmtos
