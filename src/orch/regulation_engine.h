// cmtos/orch/regulation_engine.h
//
// The endpoint-node half of the LLO (§6.2–§6.3): per-VC local state and the
// mechanism itself — delivery gating for prime/start/stop, micro-slot
// regulation toward the interval target (hold when ahead; request
// drop-at-source when behind, spread over the interval "to avoid
// unnecessary jitter", §6.3.1.1), buffer flushing, semaphore-statistics
// windows, and event-pattern matching against the per-OSDU OPDU field.
//
// Every timer here (regulation slots, source budget intervals) is
// node-local: steady-state regulation touches nothing outside this node,
// which is what keeps orchestration rounds parallelisable across shards.

#pragma once

#include <cstdint>
#include <utility>

#include "orch/orch_types.h"
#include "util/slot_table.h"
#include "sim/node_runtime.h"
#include "transport/service.h"
#include "util/thread_annotations.h"

namespace cmtos::transport {
class Connection;
}

namespace cmtos::orch {

class Llo;

class CMTOS_SHARD_AFFINE RegulationEngine {
 public:
  explicit RegulationEngine(Llo& llo) : llo_(llo) {}
  RegulationEngine(const RegulationEngine&) = delete;
  RegulationEngine& operator=(const RegulationEngine&) = delete;

  // --- OPDU types dispatched here by the Llo (endpoint side) ---
  void handle_sess_req(const Opdu& o);  // kSessReq and kAdd
  void handle_sess_rel(const Opdu& o);
  void handle_remove_vc(const Opdu& o);
  void handle_prime(const Opdu& o);
  void handle_start(const Opdu& o);
  void handle_stop(const Opdu& o);
  void handle_regulate_sink(const Opdu& o);
  void handle_regulate_src(const Opdu& o);
  void handle_drop(const Opdu& o);
  void handle_event_reg(const Opdu& o);
  void handle_delayed(const Opdu& o);

  /// Transport observer: a local VC endpoint was torn down (peer death,
  /// local or remote release).  Detaches it from every session it belongs
  /// to and reports kVcDead to each orchestrating node.
  void on_vc_closed(transport::VcId vc, transport::DisconnectReason reason);

  /// "Table space" (paper's rejection reason kNoTableSpace): distinct
  /// sessions this endpoint will hold local state for.
  void set_session_limit(std::size_t n) { session_limit_ = n; }
  std::size_t local_vc_count() const { return locals_.size(); }

  /// Epoch fencing switch (default on).  Off reproduces the unfenced
  /// protocol for split-brain contrast runs: stale-epoch OPDUs are applied
  /// instead of nacked, counted as orch.stale_target_applied.
  void set_fencing_enabled(bool on) { fencing_ = on; }

  /// Highest session epoch seen on `vc` (the fence in force); 0 if none.
  std::uint32_t vc_epoch(transport::VcId vc) const {
    auto it = vc_epoch_.find(vc);
    return it == vc_epoch_.end() ? 0 : it->second;
  }
  /// Orchestrating node whose regulation target was last *applied* on `vc`
  /// at this endpoint (kInvalidNode if never regulated).  Split-brain
  /// oracle: after a partition heals, every sink must report the new
  /// orchestrator here.
  net::NodeId vc_regulator(transport::VcId vc) const {
    auto it = vc_regulator_.find(vc);
    return it == vc_regulator_.end() ? net::kInvalidNode : it->second;
  }

  /// Drops every endpoint attachment and its regulation timers.
  void crash();

 private:
  /// Number of regulation micro-slots per interval (corrections are spread
  /// across the interval to avoid jitter, §6.3.1.1).
  static constexpr int kSlotsPerInterval = 8;

  // Per (session, VC-with-a-local-endpoint) state.
  struct VcLocal {
    OrchVcInfo info;
    net::NodeId orch_node = net::kInvalidNode;
    bool is_source = false;
    bool is_sink = false;
    // Sink-side regulation:
    bool reg_hold = false;    // regulation delivery gate (ahead of target)
    bool group_hold = false;  // prime/stop delivery gate
    std::uint32_t epoch = 1;  // epoch of the last applied kRegulateSink;
                              // stamped on the kDrop requests it spawns
    std::int64_t target_seq = 0;
    std::int64_t start_seq = 0;
    std::uint32_t interval_id = 0;
    Duration interval = 0;
    Time interval_start = 0;
    std::uint32_t max_drop = 0;
    std::uint32_t drops_requested = 0;
    int slot = 0;
    net::NodeId drop_target = net::kInvalidNode;
    sim::Timer slot_timer;
    // Source-side regulation:
    std::uint32_t src_budget = 0;
    std::uint32_t src_dropped = 0;
    std::uint32_t src_interval_id = 0;
    sim::Timer src_timer;
    // Prime:
    bool primed_reported = false;
    // Events:
    bool event_armed = false;
    std::uint64_t event_pattern = 0;
    std::uint64_t event_mask = ~0ull;
  };

  using LocalKey = std::pair<OrchSessionId, transport::VcId>;

  /// What an acked endpoint primitive addresses: its ack, the session
  /// attachment and the connection named by the OPDU's role flag.
  struct Addressed {
    Opdu ack;
    VcLocal* st = nullptr;
    transport::Connection* conn = nullptr;
  };

  VcLocal* local(LocalKey key);
  /// The prologue the acked endpoint primitives share, all but the
  /// idempotent Remove (each runs its own epoch fence first).  With `conn`
  /// null the negative ack has gone out: kNoSession when `o` needs an
  /// attachment here and there is none, kNoSuchVc when the addressed
  /// connection is gone.
  Addressed address(const Opdu& o, OpduType ack_type, bool needs_attachment = true);
  /// Sends `ack` back to `o`'s orchestrating node as a refusal for `reason`.
  void refuse(const Opdu& o, Opdu ack, OrchReason reason);
  /// Tells the orchestrating node, once per prime, that `key`'s sink
  /// buffer is full.
  void report_primed(LocalKey key);
  /// The fence (first thing every fenced handler runs).  Adopts `o.epoch`
  /// as the VC's fence when it is newer; when it is older and fencing is
  /// on, nacks the sender with kEpochNack/kStaleEpoch and returns true
  /// (drop the OPDU).  Deliberately independent of `locals_`: the fence
  /// must keep rejecting a superseded orchestrator even after its
  /// endpoint attachments were purged by release_remote.
  bool epoch_fenced(const Opdu& o);
  void regulation_slot(LocalKey key);
  void finish_sink_interval(LocalKey key);
  void finish_src_interval(LocalKey key);
  void apply_delivery_gate(VcLocal& st);
  void attach_endpoint(OrchSessionId session, const OrchVcInfo& info, net::NodeId orch_node);
  void detach_endpoint(LocalKey key);

  Llo& llo_;
  std::size_t session_limit_ = 64;
  bool fencing_ = true;
  // Flat tables: regulation_slot probes locals_ 8x per interval per VC and
  // the fences are checked per OPDU, so these are the endpoint hot path.
  FlatMap<LocalKey, VcLocal> locals_;
  FlatMap<transport::VcId, std::uint32_t> vc_epoch_;     // fence per VC
  FlatMap<transport::VcId, net::NodeId> vc_regulator_;   // last applied target's origin
};

}  // namespace cmtos::orch
